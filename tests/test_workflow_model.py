"""Workflow graph and sub-workflow model tests."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridwms.errors import CycleError, SchemaError
from hybridwms.workflow import (
    AbstractSubWorkflow,
    Node,
    NodeKind,
    TaskSpec,
    WorkflowGraph,
    _find_cycle,
    parse_subworkflow,
    parse_workflow,
    topological_order,
)


def minimal_workflow_doc():
    return {
        "id": "wf",
        "entry": "a",
        "nodes": [
            {"id": "a", "kind": "DataRetrieval", "payload": {"key": "patient.ecg"}},
            {"id": "b", "kind": "Terminal", "payload": {}},
        ],
        "edges": [["a", "b"]],
    }


def test_parse_workflow_round_trip():
    document = minimal_workflow_doc()
    graph = parse_workflow(minimal_workflow_doc())
    assert graph.id == document["id"]
    assert graph.entry == document["entry"]
    assert [(n.id, n.kind.value, n.payload) for n in graph.nodes] == [
        (n["id"], n["kind"], n["payload"]) for n in document["nodes"]
    ]
    assert [list(edge) for edge in graph.edges] == document["edges"]


def test_parse_workflow_rejects_unknown_root_key():
    doc = minimal_workflow_doc()
    doc["color"] = "red"
    with pytest.raises(SchemaError) as err:
        parse_workflow(doc)
    assert "color" in str(err.value)


def test_parse_workflow_rejects_unknown_kind():
    doc = minimal_workflow_doc()
    doc["nodes"][0]["kind"] = "Quantum"
    with pytest.raises(SchemaError):
        parse_workflow(doc)


def test_parse_workflow_requires_payload_fields():
    doc = minimal_workflow_doc()
    doc["nodes"][0]["payload"] = {}
    with pytest.raises(SchemaError) as err:
        parse_workflow(doc)
    assert "key" in str(err.value)


def test_parse_workflow_rejects_bad_min_service():
    doc = minimal_workflow_doc()
    doc["nodes"][1]["payload"] = {"min_service": "Platinum"}
    with pytest.raises(SchemaError):
        parse_workflow(doc)


def test_loop_payload_validation():
    doc = minimal_workflow_doc()
    doc["nodes"][1] = {
        "id": "b",
        "kind": "Loop",
        "payload": {"subworkflow": "s", "max_iterations": 0, "tolerance": 0.1},
    }
    with pytest.raises(SchemaError) as err:
        parse_workflow(doc)
    assert "max_iterations" in str(err.value)


def graph_failure(build, *args, **fields) -> SchemaError:
    """The error that building a graph with ``build`` (``WorkflowGraph`` or ``replace``) raises."""
    with pytest.raises(SchemaError) as err:
        build(*args, **fields)
    return err.value


def test_validate_reports_duplicate_node():
    err = graph_failure(
        WorkflowGraph,
        "wf",
        (Node("a", NodeKind.TERMINAL), Node("a", NodeKind.TERMINAL)),
        (),
        "a",
    )
    assert (err.path, err.message) == ("workflow(a)", "duplicate node id 'a'")


def test_validate_reports_dangling_edge_and_missing_entry():
    err = graph_failure(WorkflowGraph, "wf", (Node("a", NodeKind.TERMINAL),), (("a", "ghost"),), "nope")
    assert err.path == "workflow(ghost)"
    assert err.message == "edge ('a', 'ghost') references unknown node 'ghost'; entry node 'nope' does not exist"


def test_validate_reports_cycle_outside_allowed_edges():
    err = graph_failure(
        WorkflowGraph,
        "wf",
        (
            Node("a", NodeKind.LOCAL_TASK, {"function": "f"}),
            Node("b", NodeKind.LOCAL_TASK, {"function": "f"}),
        ),
        (("a", "b"), ("b", "a")),
        "a",
    )
    assert (err.path, err.message) == ("workflow(a)", "cycle through nodes: a -> b")


def test_validate_allows_loop_back_edge():
    graph = WorkflowGraph(
        "wf",
        (
            Node("a", NodeKind.LOCAL_TASK, {"function": "f"}),
            Node("loop", NodeKind.LOOP, {"subworkflow": "s", "max_iterations": 2, "tolerance": 0.5, "back_edge": "a"}),
        ),
        (("a", "loop"), ("loop", "a")),
        "a",
    )
    err = graph_failure(replace, graph, edges=(("a", "loop"),))
    assert err.path == "workflow(loop)"
    assert err.message == "loop 'loop' declares back-edge to 'a' but no such edge exists"


def test_validate_reports_unreachable_node():
    err = graph_failure(
        WorkflowGraph,
        "wf",
        (Node("a", NodeKind.TERMINAL), Node("island", NodeKind.TERMINAL)),
        (),
        "a",
    )
    assert (err.path, err.message) == ("workflow(island)", "node 'island' is not reachable from entry")


def test_validate_reports_branch_without_edge():
    graph = WorkflowGraph(
        "wf",
        (
            Node("d", NodeKind.DECISION, {"rule_table": "r", "branches": {"x": "t"}}),
            Node("t", NodeKind.TERMINAL),
        ),
        (("d", "t"),),
        "d",
    )
    err = graph_failure(replace, graph, edges=())
    assert err.path == "workflow(d)"
    assert err.message == "branch 'x' of 'd' targets 't' without an edge; node 't' is not reachable from entry"


def recursive_find_cycle(adjacency):
    """The recursive depth-first cycle search that ``_find_cycle`` replaced, kept as its oracle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in adjacency}
    stack = []

    def visit(vertex):
        color[vertex] = GRAY
        stack.append(vertex)
        for nxt in sorted(adjacency[vertex]):
            if color[nxt] == GRAY:
                return stack[stack.index(nxt):]
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[vertex] = BLACK
        return None

    for vertex in sorted(adjacency):
        if color[vertex] == WHITE:
            found = visit(vertex)
            if found:
                return found
    return None


@st.composite
def digraphs(draw):
    """Adjacency lists over up to 40 vertices, self-loops and repeated edges included."""
    n = draw(st.integers(0, 40))
    vertices = [f"v{k}" for k in range(n)]  # "v10" sorts before "v2"
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end), max_size=2 * n)) if n else []
    adjacency = {v: [] for v in vertices}
    for src, dst in edges:
        adjacency[vertices[src]].append(vertices[dst])
    return adjacency


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_find_cycle_reports_what_the_recursive_search_reported(adjacency):
    assert _find_cycle(adjacency) == recursive_find_cycle(adjacency)


# -- sub-workflows ----------------------------------------------------------


def minimal_subworkflow_doc():
    return {
        "id": "sub",
        "tasks": [
            {"id": "t1", "work": 10, "transformation": "tf"},
            {"id": "t2", "work": 5, "transformation": "tf"},
        ],
        "data_deps": [["t1", "t2", 100]],
        "inputs": [{"file": "in.dat", "bytes": 50, "consumer": "t1"}],
    }


def test_parse_subworkflow_round_trip():
    document = minimal_subworkflow_doc()
    subwf = parse_subworkflow(minimal_subworkflow_doc())
    assert subwf.id == document["id"]
    assert [(t.id, t.work, t.transformation) for t in subwf.tasks] == [
        (t["id"], t["work"], t["transformation"]) for t in document["tasks"]
    ]
    assert subwf.data_deps == (("t1", "t2", 100.0),)
    assert [list(dep) for dep in subwf.data_deps] == document["data_deps"]
    assert [(f, size, c) for f, size, c in subwf.inputs] == [
        (i["file"], i["bytes"], i["consumer"]) for i in document["inputs"]
    ]


def test_parse_subworkflow_rejects_nonpositive_work():
    doc = minimal_subworkflow_doc()
    doc["tasks"][0]["work"] = 0
    with pytest.raises(SchemaError):
        parse_subworkflow(doc)


def test_parse_subworkflow_rejects_unknown_dep_endpoint():
    doc = minimal_subworkflow_doc()
    doc["data_deps"] = [["t1", "ghost", 1]]
    with pytest.raises(SchemaError):
        parse_subworkflow(doc)


def test_parse_subworkflow_rejects_cyclic_dag():
    doc = minimal_subworkflow_doc()
    doc["data_deps"] = [["t1", "t2", 1], ["t2", "t1", 1]]
    with pytest.raises(CycleError):
        parse_subworkflow(doc)


def test_topological_order_respects_dependencies():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 9)
        ids = [f"t{i}" for i in range(n)]
        deps = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    deps.append((ids[i], ids[j], 1.0))
        subwf = AbstractSubWorkflow(
            "s",
            tuple(TaskSpec(t, 1.0, "tf") for t in ids),
            tuple(deps),
            (),
        )
        order = topological_order(subwf)
        assert sorted(order) == sorted(ids)
        position = {t: k for k, t in enumerate(order)}
        for producer, consumer, _ in deps:
            assert position[producer] < position[consumer]


def test_topological_order_ties_break_by_id():
    subwf = AbstractSubWorkflow(
        "s",
        (TaskSpec("c", 1, "tf"), TaskSpec("a", 1, "tf"), TaskSpec("b", 1, "tf")),
        (),
        (),
    )
    assert topological_order(subwf) == ["a", "b", "c"]


def oracle_topological_order(task_ids, deps):
    """Repeatedly place the smallest id among the unplaced tasks whose
    producers are all placed."""
    producers = {t: {p for p, c, _ in deps if c == t} for t in task_ids}
    order = []
    while len(order) < len(task_ids):
        order.append(min(t for t in task_ids if t not in order and producers[t] <= set(order)))
    return order


@st.composite
def shuffled_dags(draw):
    """Task ids and dependencies of a random DAG: edges run forward in a
    hidden rank that is not id order, may repeat, and are listed in drawn
    order, and the tasks are listed in a shuffled order. Ids of one and two
    digits make string order differ from number order ("t10" < "t2")."""
    n = draw(st.integers(1, 14))
    ranked = draw(st.permutations([f"t{i}" for i in range(n)]))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    deps = tuple((ranked[min(i, j)], ranked[max(i, j)], 1.0) for i, j in edges if i != j)
    return draw(st.permutations(ranked)), deps


@given(dag=shuffled_dags())
def test_topological_order_places_the_smallest_id_whose_producers_are_placed(dag):
    # every plan position, and so every mapping and execution record, hangs on this order
    task_ids, deps = dag
    subwf = AbstractSubWorkflow("s", tuple(TaskSpec(t, 1.0, "tf") for t in task_ids), deps, ())
    assert topological_order(subwf) == oracle_topological_order(task_ids, deps)


def test_topological_order_cycle_error_lists_cycle():
    # a sub-workflow orders its tasks when it is built, so a cyclic one cannot be built
    with pytest.raises(CycleError) as err:
        AbstractSubWorkflow(
            "s",
            (TaskSpec("a", 1, "tf"), TaskSpec("b", 1, "tf")),
            (("a", "b", 1.0), ("b", "a", 1.0)),
            (),
        )
    assert set(err.value.tasks) >= {"a", "b"}


def test_a_long_chain_ending_in_a_cycle_names_that_cycle():
    # the tasks left unplaced are found through a set: through the placed list, 20,000 tasks took seconds
    ids = [f"t{i:05d}" for i in range(20_000)]
    deps = tuple((a, b, 1.0) for a, b in zip(ids, ids[1:])) + ((ids[-1], ids[-3], 1.0),)
    with pytest.raises(CycleError) as err:
        AbstractSubWorkflow("chain", tuple(TaskSpec(t, 1.0, "tf") for t in ids), deps, ())
    assert err.value.tasks == ids[-3:]
