"""High-level engine: interprets a node graph and drives the grid engine.

A run starts from a user requirement (SLA), decides and enforces policies,
forms the resource quorum, then walks the workflow graph node by node. Local
nodes execute in-process and take no simulated time; grid nodes are mapped by
the grid engine's one-pass timing recurrence and executed from its records,
advancing the run's simulated clock by their makespan. Nodes whose minimum
service level exceeds the enforced ``app.workflow`` are pruned from the walk;
the SLA reaches the engine only through policy. A run's workspace holds only
what its own nodes computed: a data-retrieval node reads its registered source
when it runs, and a user-input node requires its key in the run configuration
and records it, but no engine function reads the value. The run configuration
checked itself when it was built (``runconfig``), so every signal a run
synthesizes is in domain. Every run is a pure function of its documents and
seed, so one features memo serves every run in the process: each distinct
synthesized signal, a patient's or a VHS candidate's, is made and extracted
once. Features are kept, never signals.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import struct
from dataclasses import dataclass, field

from . import documents as doc
from .ecg import DISEASES, EcgFeatures, EcgSignal, estimate_disease, extract_features, feature_distance, synthesize_ecg
from .errors import EmptyParameterGrid, InvalidConfigValue, MissingInput, NodeError, RunError, WmsError
from .gridengine import RateMemo, SubWorkflowResult, execute_plan, map_workflow
from .policy import (
    DEFAULT_PROVENANCE,
    ConfigRegistry,
    Override,
    PolicySet,
    Sla,
    decide_policy,
    enforce,
    expand_soft_label,
)
from .resources import (
    RANDOM_LEVEL,
    AllocationCostParams,
    Quorum,
    ResourceDescriptor,
    generate_arq,
    random_quorum,
)
from .runconfig import CANDIDATE_DEFAULTS, PatientParams, RunConfig
from .runconfig import parse_run_config  # noqa: F401 -- kept at this name; bench/workloads.py calls it through engine
from .workflow import AbstractSubWorkflow, Node, NodeKind, WorkflowGraph, service_rank


def derive_seed(run_seed: int, scheduler_seed: int, index: int, purpose: str) -> int:
    """Stable per-use seed so independent draws never share a stream; seeds
    enter as 64-bit two's complement, so any int works."""
    mask = 0xFFFFFFFFFFFFFFFF
    raw = struct.pack("<QQQ", run_seed & mask, scheduler_seed & mask, index & mask) + purpose.encode("utf-8")
    digest = hashlib.blake2b(raw, digest_size=8).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFFFFFFFFFF


# --------------------------------------------------------------------------
# Run inputs


def _patient(config: RunConfig) -> PatientParams | EcgSignal:
    """The run's patient: a recorded signal, or its synthesis parameters with the seed resolved."""
    patient = config.patient
    if isinstance(patient, EcgSignal) or patient.seed is not None:
        return patient
    return dataclasses.replace(patient, seed=config.seed)


#: Each key a data-retrieval node may read, and the run input behind it.
DATA_SOURCES = {"patient.ecg": _patient}


@functools.lru_cache(maxsize=1024)
def _signal_features(bpm, irregularity, st_offset, noise, duration, rate, seed) -> EcgFeatures:
    """Features of the signal ``synthesize_ecg`` makes from these arguments,
    which depend on them alone: each distinct signal, a patient's or a VHS
    candidate's, is synthesized and extracted once while it stays among the
    memo's most recently used. Features are kept, never signals; a failure is
    not kept (memo functions: Michie 1968)."""
    return extract_features(synthesize_ecg(bpm, irregularity, st_offset, noise, duration, rate, seed))


def _duration_and_rate(source: PatientParams | EcgSignal) -> tuple[float, float]:
    """The patient signal's ``(duration, rate)``, bit for bit as its ``EcgSignal`` has them, without synthesizing it."""
    rate = float(source.rate)
    return source.duration if isinstance(source, EcgSignal) else int(round(source.duration * rate)) / rate, rate


# --------------------------------------------------------------------------
# Run records


def _fields(record) -> dict:
    """A dataclass's fields by name, the values shared (``dataclasses.asdict`` deep-copies)."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


@dataclass(frozen=True)
class DispatchRecord:
    index: int
    node_id: str
    start: float
    end: float
    result: SubWorkflowResult  # its plan names the sub-workflow, scheduler and quorum level

    @property
    def makespan(self) -> float:
        return self.result.makespan


@dataclass(frozen=True)
class VhsIteration:
    index: int  # 1-based
    candidate: dict
    distance: float
    matched: bool
    makespan: float


@dataclass(frozen=True)
class LoopRecord:
    node_id: str
    iterations: tuple[VhsIteration, ...]
    matched: bool
    best_index: int
    stop_reason: str  # "matched" or "exhausted"


@dataclass(frozen=True)
class NodeOutcome:
    node_id: str
    kind: str
    start: float  # simulated clock; local nodes take no simulated time
    end: float
    detail: dict


@dataclass(frozen=True)
class RunRecord:
    run_id: str
    seed: int
    sla: Sla  # as submitted
    expanded_sla: Sla
    policy_ids: dict
    config: dict
    overrides: tuple[Override, ...]
    quorum: Quorum
    nodes: tuple[NodeOutcome, ...]
    dispatches: tuple[DispatchRecord, ...]
    vhs: LoopRecord | None
    features: EcgFeatures | None
    diagnosis: str | None
    completion_time: float


# --------------------------------------------------------------------------
# Execution context and node handlers


@dataclass
class _Context:
    graph: WorkflowGraph
    subworkflows: dict[str, AbstractSubWorkflow]
    pool_map: dict[str, ResourceDescriptor]
    registry: ConfigRegistry
    quorum: Quorum
    config: RunConfig
    workspace: dict = field(default_factory=dict)  # what this run's nodes computed, by key
    cursor: float = 0.0
    dispatches: list = field(default_factory=list)
    vhs: LoopRecord | None = None
    rates: RateMemo = field(default_factory=dict)  # shared by every dispatch over pool_map


def _input(ctx: _Context, key: str):
    """The value an earlier node of this run computed under ``key``."""
    try:
        return ctx.workspace[key]
    except KeyError:
        raise MissingInput(key) from None


def _fn_extract_features(ctx: _Context) -> dict:
    source = _input(ctx, "patient.ecg")  # a recorded signal is unhashable, and extracted at each run
    features = extract_features(source) if isinstance(source, EcgSignal) else _signal_features(*_fields(source).values())
    ctx.workspace["features"] = features
    return {"features": _fields(features)}


def _fn_longterm_analysis(ctx: _Context) -> dict:
    features = _input(ctx, "features")
    report = {
        "window_hours": 24,
        "rr_mean": features.rr_mean,
        "rr_std": features.rr_std,
        "flag": ctx.workspace.get("diagnosis", "unknown"),
    }
    return {"report": report}


LOCAL_FUNCTIONS = {
    "extract-ecg-features": _fn_extract_features,
    "longterm-ecg-analysis": _fn_longterm_analysis,
}


def _rule_disease_routing(ctx: _Context) -> str:
    diagnosis = estimate_disease(_input(ctx, "features"), ctx.config.thresholds)
    ctx.workspace["diagnosis"] = diagnosis
    return diagnosis


#: Each rule table: the rule, and every outcome it can return (a branch each).
DECISION_RULES = {
    "disease-routing": (_rule_disease_routing, DISEASES),
}

#: Node payload entries that name something the engine registers, and its registry.
_REGISTERED_NAMES = (
    (NodeKind.LOCAL_TASK, "function", LOCAL_FUNCTIONS),
    (NodeKind.GRID_SUB_WORKFLOW, "produces", LOCAL_FUNCTIONS),
    (NodeKind.DECISION, "rule_table", DECISION_RULES),
    (NodeKind.DATA_RETRIEVAL, "key", DATA_SOURCES),
)


def check_workflow(graph: WorkflowGraph, subworkflows: dict[str, AbstractSubWorkflow]) -> None:
    """Check what a graph, which checked itself when it was built, cannot know
    about itself: every function, rule table and data source a node names is
    registered, a decision has a branch for each outcome of its rule, and every
    sub-workflow a node dispatches is in ``subworkflows``. Raises
    ``SchemaError`` at ``workflow.nodes[i].payload.<key>``."""
    for i, node in enumerate(graph.nodes):
        path = f"workflow.nodes[{i}].payload"
        for kind, key, registry in _REGISTERED_NAMES:
            if node.kind is kind and key in node.payload and node.payload[key] not in registry:
                raise doc.SchemaError(f"{path}.{key}", f"expected one of {sorted(registry)}")
        if node.kind is NodeKind.DECISION:
            missing = [o for o in DECISION_RULES[node.payload["rule_table"]][1] if o not in node.payload["branches"]]
            if missing:
                raise doc.SchemaError(f"{path}.branches", f"no branch for outcome {missing[0]!r}")
        if "subworkflow" in node.payload and node.payload["subworkflow"] not in subworkflows:
            raise doc.SchemaError(f"{path}.subworkflow", f"expected one of {sorted(subworkflows)}")


def _dispatch_grid(ctx: _Context, node_id: str, subworkflow_id: str) -> SubWorkflowResult:
    index = len(ctx.dispatches)
    scheduler = ctx.registry.get("scheduler.kind")
    seed = derive_seed(ctx.config.seed, ctx.registry.get("scheduler.seed"), index, "sched")
    plan = map_workflow(
        ctx.subworkflows[subworkflow_id], ctx.quorum, ctx.pool_map, scheduler=scheduler, seed=seed, rates=ctx.rates
    )
    result = execute_plan(plan, ctx.pool_map)
    ctx.dispatches.append(DispatchRecord(index, node_id, ctx.cursor, ctx.cursor + result.makespan, result))
    ctx.cursor += result.makespan
    return result


def _loop_setting(ctx: _Context, key: str, payload_value):
    """Enforced config beats the node payload; the payload beats defaults."""
    entry = ctx.registry.entry(key)
    if entry.provenance != DEFAULT_PROVENANCE:
        return entry.value
    return payload_value


def _run_vhs_loop(ctx: _Context, node: Node) -> dict:
    payload = node.payload
    max_iter = _loop_setting(ctx, "vhs.max_iter", payload["max_iterations"])
    tolerance = _loop_setting(ctx, "vhs.tolerance", payload["tolerance"])
    candidates = ctx.config.candidates
    if not candidates:
        raise EmptyParameterGrid("no candidate parameter sets configured")
    patient_features = _input(ctx, "features")
    duration, rate = _duration_and_rate(_input(ctx, "patient.ecg"))  # every candidate is synthesized at these

    iterations = []
    matched = False
    for i in range(min(max_iter, len(candidates))):
        candidate = candidates[i]
        result = _dispatch_grid(ctx, node.id, payload["subworkflow"])
        c = {**CANDIDATE_DEFAULTS, **candidate}
        features = _signal_features(c["bpm"], c["irregularity"], c["st_offset"], 0.0, duration, rate, c["seed"])
        distance = feature_distance(features, patient_features)
        matched = distance <= tolerance
        iterations.append(VhsIteration(i + 1, dict(candidate), distance, matched, result.makespan))
        if matched:
            break

    best = min(iterations, key=lambda it: (it.distance, it.index))
    ctx.vhs = LoopRecord(
        node_id=node.id,
        iterations=tuple(iterations),
        matched=matched,
        best_index=best.index,
        stop_reason="matched" if matched else "exhausted",
    )
    return {
        "iterations": len(iterations),
        "matched": matched,
        "best_distance": best.distance,
        "stop_reason": ctx.vhs.stop_reason,
    }


def _execute_node(ctx: _Context, node: Node):
    """Run one node. Returns (detail, next node ids) where next ids of None
    means the walk stops here."""
    payload = node.payload
    successors = sorted(ctx.graph.successors(node.id))

    if node.kind in (NodeKind.DATA_RETRIEVAL, NodeKind.USER_INPUT):
        key = payload["key"]
        if node.kind is NodeKind.DATA_RETRIEVAL:
            ctx.workspace[key] = DATA_SOURCES[key](ctx.config)
        elif key not in ctx.config.user_inputs:  # a user input is required and recorded, never read
            raise MissingInput(key)
        return {"key": key}, successors

    if node.kind is NodeKind.LOCAL_TASK:
        return LOCAL_FUNCTIONS[payload["function"]](ctx), successors

    if node.kind is NodeKind.GRID_SUB_WORKFLOW:
        result = _dispatch_grid(ctx, node.id, payload["subworkflow"])
        detail = {"subworkflow": payload["subworkflow"], "makespan": result.makespan}
        if "produces" in payload:
            detail.update(LOCAL_FUNCTIONS[payload["produces"]](ctx))
        return detail, successors

    if node.kind is NodeKind.DECISION:
        outcome = DECISION_RULES[payload["rule_table"]][0](ctx)
        branches = payload["branches"]
        branch = outcome
        if ctx.registry.get("app.workflow") == "EcgVhsAlways":
            loop_branches = [
                label
                for label, target in sorted(branches.items())
                if ctx.graph.node(target).kind is NodeKind.LOOP
            ]
            if loop_branches:
                branch = loop_branches[0]
        detail = {"outcome": outcome, "branch": branch, "target": branches[branch]}
        return detail, [branches[branch]]

    if node.kind is NodeKind.LOOP:
        detail = _run_vhs_loop(ctx, node)
        back = payload.get("back_edge")
        return detail, [s for s in successors if s != back]

    return {}, None  # a Terminal, the one kind left


# --------------------------------------------------------------------------
# Top-level run


def run_workflow(
    graph: WorkflowGraph,
    subworkflows: dict[str, AbstractSubWorkflow],
    pool: list[ResourceDescriptor],
    repo: list,
    sla: Sla,
    config: RunConfig,
    run_id: str | None = None,
) -> RunRecord:
    """Execute one workflow run end to end and return its full record. The
    names the graph uses are checked against the engine before any node runs."""
    run_id = run_id or f"run-{config.seed}"
    try:
        return _run_workflow(graph, subworkflows, pool, repo, sla, config, run_id)
    except RunError:
        raise
    except WmsError as exc:
        raise RunError(run_id, exc) from exc


def enforce_run_policy(
    sla: Sla, repo: list, pool
) -> tuple[Sla, PolicySet, ConfigRegistry, tuple[Override, ...], AllocationCostParams]:
    """What a run takes from its SLA, repository and pool: the SLA with its
    soft label expanded, the policy set decided for it on the pool's observed
    properties, a fresh registry that set was enforced into, the overrides, and
    the registry's allocation-cost weights. ``validate`` calls this too, so a
    repository that no run could use for the SLA and pool fails there."""
    expanded = expand_soft_label(sla) if sla.soft_label is not None else sla
    policy_set = decide_policy(expanded, repo, pool)
    registry = ConfigRegistry()
    overrides = enforce(policy_set, registry)
    try:
        params = AllocationCostParams(registry.get("resource.alpha"), registry.get("resource.beta"))
    except ValueError as exc:
        raise InvalidConfigValue(f"config keys 'resource.alpha' and 'resource.beta': {exc}") from None
    return expanded, policy_set, registry, overrides, params


def _run_workflow(graph, subworkflows, pool, repo, sla, config, run_id) -> RunRecord:
    check_workflow(graph, subworkflows)
    expanded, policy_set, registry, overrides, params = enforce_run_policy(sla, repo, pool)
    level = registry.get("resource.level")
    scheduler_seed = registry.get("scheduler.seed")
    if level == RANDOM_LEVEL:
        quorum = random_quorum(pool, 0.0, params, derive_seed(config.seed, scheduler_seed, 0, "quorum"))
    else:
        quorum = generate_arq(pool, level, 0.0, params)

    ctx = _Context(
        graph=graph,
        subworkflows=dict(subworkflows),
        pool_map={r.id: r for r in pool},
        registry=registry,
        quorum=quorum,
        config=config,
    )

    service = registry.get("app.workflow")
    service = "EcgVhs" if service == "EcgVhsAlways" else service
    included = {n.id: service_rank(n.min_service) <= service_rank(service) for n in graph.nodes}

    outcomes = []
    visited = set()
    queue = [graph.entry] if included[graph.entry] else []
    while queue:
        node_id = queue.pop(0)
        if node_id in visited:
            continue
        visited.add(node_id)
        node = graph.node(node_id)
        node_start = ctx.cursor
        try:
            detail, next_ids = _execute_node(ctx, node)
        except WmsError as exc:
            raise NodeError(node_id, exc) from exc
        outcomes.append(NodeOutcome(node_id, node.kind.value, node_start, ctx.cursor, detail))
        if next_ids is None:
            break
        queue.extend(nid for nid in next_ids if included[nid] and nid not in visited)

    features = ctx.workspace.get("features")
    return RunRecord(
        run_id=run_id,
        seed=config.seed,
        sla=sla,
        expanded_sla=expanded,
        policy_ids=policy_set.ids(),
        config=registry.as_dict(),
        overrides=overrides,
        quorum=quorum,
        nodes=tuple(outcomes),
        dispatches=tuple(ctx.dispatches),
        vhs=ctx.vhs,
        features=features,
        diagnosis=ctx.workspace.get("diagnosis"),
        completion_time=ctx.cursor,
    )


# --------------------------------------------------------------------------
# Record serialization


def record_document(record: RunRecord) -> dict:
    """Plain-data view of a run record, suitable for JSON output."""
    return {
        "run_id": record.run_id,
        "seed": record.seed,
        "sla": _fields(record.sla),
        "expanded_sla": _fields(record.expanded_sla),
        "policies": dict(record.policy_ids),
        "config": record.config,
        "overrides": [_fields(o) for o in record.overrides],
        "quorum": {"level": record.quorum.level, "members": list(record.quorum.members)},
        "nodes": [
            {"id": n.node_id, "kind": n.kind, "start": n.start, "end": n.end, "detail": n.detail}
            for n in record.nodes
        ],
        "dispatches": [
            {
                "index": d.index,
                "node": d.node_id,
                "subworkflow": d.result.plan.subworkflow_id,
                "scheduler": d.result.plan.scheduler,
                "quorum_level": d.result.plan.quorum_level,
                "start": d.start,
                "end": d.end,
                "makespan": d.makespan,
                "result": d.result.as_document(),
            }
            for d in record.dispatches
        ],
        "vhs": None
        if record.vhs is None
        else {
            "node": record.vhs.node_id,
            "matched": record.vhs.matched,
            "best_index": record.vhs.best_index,
            "stop_reason": record.vhs.stop_reason,
            "iterations": [_fields(it) for it in record.vhs.iterations],
        },
        "features": None if record.features is None else _fields(record.features),
        "diagnosis": record.diagnosis,
        "completion_time": record.completion_time,
    }


def node_timings_csv(record: RunRecord) -> str:
    """Per-node simulated start/end times, one row per visited node."""
    lines = ["node,kind,start,end"]
    for n in record.nodes:
        lines.append(f"{n.node_id},{n.kind},{n.start:.6f},{n.end:.6f}")
    return "\n".join(lines) + "\n"


def replace_seed(config: RunConfig, seed: int) -> RunConfig:
    """Same configuration, different run seed (used by experiment replication)."""
    return dataclasses.replace(config, seed=seed)
