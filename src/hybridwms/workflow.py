"""Two-level workflow model.

The high level is a node graph interpreted locally (user interaction, data
retrieval, decisions, loops); compute-heavy steps are abstract sub-workflow
DAGs that get mapped onto grid resources by the low-level engine. Both levels
are parsed from strict JSON documents and are immutable after construction; a
workflow graph or sub-workflow that breaks a rule cannot be constructed, and a
graph's nodes hold read-only copies of their checked payloads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from . import documents as doc
from .errors import CycleError, SchemaError


class NodeKind(str, Enum):
    LOCAL_TASK = "LocalTask"
    GRID_SUB_WORKFLOW = "GridSubWorkflow"
    DECISION = "Decision"
    LOOP = "Loop"
    DATA_RETRIEVAL = "DataRetrieval"
    USER_INPUT = "UserInput"
    TERMINAL = "Terminal"


#: Application service levels, cheapest first. Nodes tagged with a level are
#: included only when the selected service level is at least that high.
SERVICE_LEVELS = ("EcgOnly", "EcgDetect", "EcgVhs")


def service_rank(level: str) -> int:
    return SERVICE_LEVELS.index(level)


# Required / optional payload keys per node kind, checked when a graph is built.
_PAYLOAD_SCHEMA = {
    NodeKind.LOCAL_TASK: ({"function"}, set()),
    NodeKind.GRID_SUB_WORKFLOW: ({"subworkflow"}, {"produces"}),
    NodeKind.DECISION: ({"rule_table", "branches"}, set()),
    NodeKind.LOOP: ({"subworkflow", "max_iterations", "tolerance"}, {"back_edge"}),
    NodeKind.DATA_RETRIEVAL: ({"key"}, set()),
    NodeKind.USER_INPUT: ({"key"}, set()),
    NodeKind.TERMINAL: (set(), set()),
}
_PAYLOAD_KEYS = {kind: frozenset({*required, *optional, "min_service"}) for kind, (required, optional) in _PAYLOAD_SCHEMA.items()}


class Node(NamedTuple):
    id: str
    kind: NodeKind
    payload: dict = MappingProxyType({})  # shared by every node built without one, so read-only

    @property
    def min_service(self) -> str:
        return self.payload.get("min_service", SERVICE_LEVELS[0])


@dataclass(frozen=True)
class WorkflowGraph:
    id: str
    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]
    entry: str

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    @cached_property
    def _by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _successors(self) -> dict[str, list[str]]:
        successors: dict[str, list[str]] = {}
        for src, dst in self.edges:
            successors.setdefault(src, []).append(dst)
        return successors

    def successors(self, node_id: str) -> list[str]:
        """The targets of ``node_id``'s edges, in edge order."""
        return list(self._successors.get(node_id, ()))

    def __post_init__(self):
        _check_graph(self)
        object.__setattr__(self, "nodes", tuple(Node(n.id, n.kind, _read_only(n.payload)) for n in self.nodes))


def _read_only(payload) -> MappingProxyType:
    """A read-only copy of a checked payload, and of a Decision's ``branches``,
    so an edit after the check raises TypeError where it is made."""
    return MappingProxyType({k: MappingProxyType(dict(v)) if k == "branches" else v for k, v in payload.items()})


class TaskSpec(NamedTuple):
    id: str
    work: float
    transformation: str


@dataclass(frozen=True)
class AbstractSubWorkflow:
    id: str
    tasks: tuple[TaskSpec, ...]
    data_deps: tuple[tuple[str, str, float], ...]  # (producer, consumer, bytes)
    inputs: tuple[tuple[str, float, str], ...]  # (file id, bytes, consumer)

    def __post_init__(self):
        _check_subworkflow(self)

    @cached_property
    def _order(self) -> tuple[str, ...]:
        """The task ids in ``topological_order``, found once, by the check."""
        return _kahn_order(self)


def _find_cycle(adjacency: dict[str, list[str]]) -> list[str] | None:
    """Return the node ids of one cycle: a depth-first search from each root
    in sorted order, over successors in sorted order, stops at the first vertex
    already on its path and returns the path from that vertex on. The search
    keeps its path on a list, so a long path cannot exhaust Python's stack."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in adjacency}
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path, pending = [root], [iter(sorted(adjacency[root]))]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                color[path.pop()] = BLACK
                pending.pop()
            elif color[nxt] == GRAY:
                return path[path.index(nxt):]
            elif color[nxt] == WHITE:
                color[nxt] = GRAY
                path.append(nxt)
                pending.append(iter(sorted(adjacency[nxt])))
    return None


_WORKFLOW_KEYS = frozenset({"id", "entry", "nodes", "edges"})
_NODE_KEYS = frozenset({"id", "kind", "payload"})


def parse_workflow(document: dict) -> WorkflowGraph:
    """Decode a workflow document into a graph, which checks itself.

    Raises SchemaError naming the offending field.
    """
    root = doc.require_mapping(document, "workflow")
    doc.reject_unknown(root, _WORKFLOW_KEYS, "workflow")
    graph_id, entry = doc.get_required(root, "id", "workflow"), doc.get_required(root, "entry", "workflow")

    nodes = []
    for i, raw in enumerate(doc.require_list(doc.get_required(root, "nodes", "workflow"), "workflow.nodes")):
        path = f"workflow.nodes[{i}]"
        node = doc.require_mapping(raw, path)
        doc.reject_unknown(node, _NODE_KEYS, path)
        node_id, kind = doc.get_required(node, "id", path), doc.get_required(node, "kind", path)
        kind = next((k for k in NodeKind if k.value == kind), kind)  # the graph refuses any other value
        nodes.append(Node(node_id, kind, node.get("payload", {})))

    raw_edges = doc.require_list(doc.get_required(root, "edges", "workflow"), "workflow.edges")
    edges = tuple(tuple(doc.require_list(raw, f"workflow.edges[{i}]")) for i, raw in enumerate(raw_edges))
    return WorkflowGraph(graph_id, tuple(nodes), edges, entry)


def _check_graph(graph: WorkflowGraph) -> None:
    """Refuse a graph, parsed or built in code, that breaks a workflow rule:
    its id and entry, each node's id, kind and payload, each edge's shape,
    then the graph's structure. Raises SchemaError at the field's path, or at
    ``workflow(<subject>)`` listing every structural problem. Cycles are
    tolerated only through edges leaving a Decision node or through a Loop
    node's declared back-edge; the rest of the graph must be acyclic."""
    for key in ("id", "entry"):
        doc.get_str({key: getattr(graph, key)}, key, "workflow")
    for i, node in enumerate(graph.nodes):
        path = f"workflow.nodes[{i}]"
        fields = {"id": node.id, "kind": node.kind}
        doc.get_name(fields, "id", path)
        if not isinstance(node.kind, NodeKind):
            raise SchemaError(f"{path}.kind", f"unknown node kind {doc.get_str(fields, 'kind', path)!r}")
        _parse_payload(node.kind, doc.require_mapping(node.payload, f"{path}.payload"), f"{path}.payload")
    for i, edge in enumerate(graph.edges):
        if not isinstance(edge, tuple) or len(edge) != 2 or not all(isinstance(end, str) for end in edge):
            raise SchemaError(f"workflow.edges[{i}]", "expected [from-node-id, to-node-id]")

    problems: list[tuple[str, str]] = []  # (subject, message)
    ids = [n.id for n in graph.nodes]
    by_id = {}
    for node in graph.nodes:
        if node.id in by_id:
            problems.append((node.id, f"duplicate node id {node.id!r}"))
        by_id[node.id] = node

    for src, dst in graph.edges:
        for end in (src, dst):
            if end not in by_id:
                problems.append((end, f"edge ({src!r}, {dst!r}) references unknown node {end!r}"))

    if graph.entry not in by_id:
        problems.append((graph.entry, f"entry node {graph.entry!r} does not exist"))

    # Loop back-edges must be materialized in the edge list.
    back = {(n.id, n.payload["back_edge"]) for n in graph.nodes if n.kind is NodeKind.LOOP and "back_edge" in n.payload}
    for src, dst in sorted(back):
        if (src, dst) not in graph.edges:
            problems.append((src, f"loop {src!r} declares back-edge to {dst!r} but no such edge exists"))

    # Decision branch targets must be edge targets of the decision node.
    edge_set = set(graph.edges)
    for node in graph.nodes:
        if node.kind is NodeKind.DECISION:
            for label, target in sorted(node.payload["branches"].items()):
                if (node.id, target) not in edge_set:
                    problems.append((node.id, f"branch {label!r} of {node.id!r} targets {target!r} without an edge"))

    # Acyclicity of the restricted graph (no decision edges, no back-edges).
    restricted: dict[str, list[str]] = {i: [] for i in ids}
    for src, dst in graph.edges:
        if src not in by_id or dst not in by_id:
            continue
        if by_id[src].kind is NodeKind.DECISION:
            continue
        if (src, dst) in back:
            continue
        restricted[src].append(dst)
    cycle = _find_cycle(restricted)
    if cycle:
        problems.append((cycle[0], "cycle through nodes: " + " -> ".join(cycle)))

    # Reachability from entry over all edges.
    if graph.entry in by_id:
        seen = {graph.entry}
        frontier = [graph.entry]
        while frontier:
            current = frontier.pop()
            for nxt in graph.successors(current):
                if nxt in by_id and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for node_id in ids:
            if node_id not in seen:
                problems.append((node_id, f"node {node_id!r} is not reachable from entry"))

    if problems:
        raise SchemaError(f"workflow({problems[0][0]})", "; ".join(message for _, message in problems))


def _parse_payload(kind: NodeKind, payload: dict, path: str) -> None:
    """Refuse a payload that breaks its node kind's schema."""
    required, optional = _PAYLOAD_SCHEMA[kind]
    doc.reject_unknown(payload, _PAYLOAD_KEYS[kind], path)
    for key in sorted(required):
        if key not in payload:
            raise SchemaError(f"{path}.{key}", f"required for kind {kind.value}")
    if "min_service" in payload and payload["min_service"] not in SERVICE_LEVELS:
        raise SchemaError(f"{path}.min_service", f"expected one of {list(SERVICE_LEVELS)}")
    if kind is NodeKind.LOOP:
        max_iter = payload["max_iterations"]
        if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
            raise SchemaError(f"{path}.max_iterations", "expected integer >= 1")
        if doc.get_number(payload, "tolerance", path) <= 0:
            raise SchemaError(f"{path}.tolerance", "expected number > 0")
    for key in ("function", "subworkflow", "rule_table", "key", "produces", "back_edge"):
        if key in payload:
            doc.get_str(payload, key, path)
    if kind is NodeKind.DECISION:
        branches = doc.require_mapping(payload["branches"], f"{path}.branches")
        for label, target in branches.items():
            if not isinstance(label, str) or not label:
                raise SchemaError(f"{path}.branches", f"expected non-empty string labels, got {label!r}")
            if not isinstance(target, str) or not target:
                raise SchemaError(f"{path}.branches.{label}", "expected node id string")


_SUBWORKFLOW_KEYS = frozenset({"id", "tasks", "data_deps", "inputs"})
_TASK_KEYS = frozenset({"id", "work", "transformation"})
_INPUT_KEYS = frozenset({"file", "bytes", "consumer"})


def parse_subworkflow(document: dict) -> AbstractSubWorkflow:
    """Decode a sub-workflow document, ``work`` and bytes as floats, into a
    sub-workflow, which checks itself. Raises SchemaError or CycleError."""
    root = doc.require_mapping(document, "subworkflow")
    doc.reject_unknown(root, _SUBWORKFLOW_KEYS, "subworkflow")
    sub_id = doc.get_str(root, "id", "subworkflow")

    tasks = []
    for i, raw in enumerate(doc.require_list(doc.get_required(root, "tasks", "subworkflow"), "subworkflow.tasks")):
        path = f"subworkflow.tasks[{i}]"
        task = doc.require_mapping(raw, path)
        doc.reject_unknown(task, _TASK_KEYS, path)
        tasks.append(TaskSpec(doc.get_str(task, "id", path), doc.get_number(task, "work", path), doc.get_str(task, "transformation", path)))

    deps = []
    for i, triple in enumerate(doc.require_list(root.get("data_deps", []), "subworkflow.data_deps")):
        if not isinstance(triple, list) or len(triple) != 3:
            path = f"subworkflow.data_deps[{i}]"
            doc.require_list(triple, path)
            raise SchemaError(path, "expected [producer, consumer, bytes]")
        producer, consumer, size = triple
        deps.append((producer, consumer, float(size) if _is_bytes(size) else size))  # the check refuses the rest

    inputs = []
    for i, raw in enumerate(doc.require_list(root.get("inputs", []), "subworkflow.inputs")):
        path = f"subworkflow.inputs[{i}]"
        entry = doc.require_mapping(raw, path)
        doc.reject_unknown(entry, _INPUT_KEYS, path)
        inputs.append((doc.get_str(entry, "file", path), doc.get_number(entry, "bytes", path), doc.get_str(entry, "consumer", path)))

    return AbstractSubWorkflow(sub_id, tuple(tasks), tuple(deps), tuple(inputs))


def _is_bytes(size) -> bool:
    return not isinstance(size, bool) and isinstance(size, (int, float)) and 0 <= size <= 1e15


def _check_subworkflow(subwf: AbstractSubWorkflow) -> None:
    """Refuse a sub-workflow, parsed or built in code, that breaks a
    sub-workflow rule: unique task ids, ``work`` in (0, 1e12] (with the bounds
    on resources, this keeps simulated time finite), dependencies and inputs
    between known tasks, bytes in [0, 1e15], and an acyclic task DAG. Raises
    SchemaError at the field's path, or CycleError. A path is formatted only
    for the fault it names."""
    seen = set()
    for i, task in enumerate(subwf.tasks):
        if task.id in seen:
            raise SchemaError(f"subworkflow.tasks[{i}].id", f"duplicate task id {task.id!r}")
        seen.add(task.id)
        work = task.work
        if isinstance(work, bool) or not isinstance(work, (int, float)) or not 0 < work <= 1e12:
            raise SchemaError(f"subworkflow.tasks[{i}].work", "work must be in (0, 1e12]")
    for i, (producer, consumer, size) in enumerate(subwf.data_deps):
        for end in (producer, consumer):
            if not isinstance(end, str) or end not in seen:
                raise SchemaError(f"subworkflow.data_deps[{i}]", f"unknown task {end!r}")
        if not _is_bytes(size):
            raise SchemaError(f"subworkflow.data_deps[{i}][2]", "bytes must be a number in [0, 1e15]")
    for i, (_, size, consumer) in enumerate(subwf.inputs):
        if not _is_bytes(size):
            raise SchemaError(f"subworkflow.inputs[{i}].bytes", "bytes must be in [0, 1e15]")
        if not isinstance(consumer, str) or consumer not in seen:
            raise SchemaError(f"subworkflow.inputs[{i}].consumer", f"unknown task {consumer!r}")
    subwf._order  # raises CycleError on a cyclic task DAG


def topological_order(subwf: AbstractSubWorkflow) -> list[str]:
    """Order task ids so every producer precedes its consumers.

    Simultaneously-ready tasks are emitted in ascending id order, which makes
    the order (and everything downstream of it) deterministic. A sub-workflow
    finds its order once, when it checks itself (Kahn's algorithm over a heap
    of ready ids), and keeps it; each call returns a fresh list copy, so a
    caller's edit never reaches the kept order.
    """
    return list(subwf._order)


def _kahn_order(subwf: AbstractSubWorkflow) -> tuple[str, ...]:
    """The order ``topological_order`` describes, or CycleError naming one
    cycle among the tasks that cannot be placed."""
    indegree = {t.id: 0 for t in subwf.tasks}
    successors: dict[str, list[str]] = {t.id: [] for t in subwf.tasks}
    for producer, consumer, _ in subwf.data_deps:
        indegree[consumer] += 1
        successors[producer].append(consumer)

    ready = [tid for tid, deg in sorted(indegree.items()) if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for nxt in successors[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)

    if len(order) != len(indegree):
        placed = set(order)
        remaining = {tid for tid in indegree if tid not in placed}
        adjacency = {tid: [s for s in successors[tid] if s in remaining] for tid in remaining}
        cycle = _find_cycle(adjacency)
        raise CycleError(cycle or sorted(remaining))
    return tuple(order)
