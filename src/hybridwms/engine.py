"""High-level engine: interprets a node graph and drives the grid engine.

A run starts from a user requirement (SLA), decides and enforces policies,
forms the resource quorum, then walks the workflow graph node by node. Local
nodes execute in-process and take no simulated time; grid nodes are mapped
and executed by the grid engine's one-pass timing recurrence, advancing the
run's simulated clock by their makespan. Nodes whose minimum service level
exceeds the SLA's are pruned from the walk. Every run is a pure function of its documents and seed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import documents as doc
from .ecg import (
    SIGNAL_DOMAINS,
    EcgFeatures,
    EcgSignal,
    Thresholds,
    estimate_disease,
    extract_features,
    feature_distance,
    synthesize_ecg,
)
from .errors import (
    EmptyParameterGrid,
    MissingInput,
    NodeError,
    RunError,
    UnknownStrategy,
    WmsError,
)
from .gridengine import RateMemo, SubWorkflowResult, execute_plan, map_workflow
from .policy import (
    DEFAULT_PROVENANCE,
    ConfigRegistry,
    InformationBase,
    Override,
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
from .workflow import AbstractSubWorkflow, Node, NodeKind, WorkflowGraph, service_rank


def derive_seed(run_seed: int, scheduler_seed: int, index: int, purpose: str) -> int:
    """Stable per-use seed so independent draws never share a stream."""
    raw = struct.pack("<qqq", run_seed, scheduler_seed, index) + purpose.encode("utf-8")
    digest = hashlib.blake2b(raw, digest_size=8).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFFFFFFFFFF


# --------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class PatientParams:
    bpm: float
    irregularity: float = 0.0
    st_offset: float = 0.0
    noise: float = 0.0
    duration: float = 30.0
    rate: float = 250.0
    seed: int | None = None  # falls back to the run seed


@dataclass(frozen=True)
class PatientSample:
    """Reference to a recorded signal: a JSON file with {rate, values}."""

    file: str


@dataclass(frozen=True)
class RunConfig:
    seed: int
    patient: PatientParams | PatientSample
    candidates: tuple[dict, ...] = ()
    thresholds: Thresholds = Thresholds()
    user_inputs: dict = field(default_factory=dict)


def _signal_number(mapping: dict, key: str, path: str) -> float:
    """A finite number, inside the domain ``synthesize_ecg`` accepts for ``key``."""
    value = doc.get_number(mapping, key, path)
    if not math.isfinite(value):
        raise doc.SchemaError(f"{path}.{key}", "must be finite")
    if key in SIGNAL_DOMAINS and not SIGNAL_DOMAINS[key][0](value):
        raise doc.SchemaError(f"{path}.{key}", SIGNAL_DOMAINS[key][1])
    return value


def parse_run_config(document, base_dir: str | None = None) -> RunConfig:
    """Parse a run configuration document.

    ``base_dir`` anchors relative sample-file references; it defaults to the
    working directory.
    """
    root = doc.require_mapping(document, "run_config")
    doc.reject_unknown(root, {"seed", "patient", "user_inputs", "vhs_grid", "thresholds"}, "run_config")
    seed = doc.get_int(root, "seed", "run_config")

    raw_patient = doc.require_mapping(doc.get_required(root, "patient", "run_config"), "run_config.patient")
    if "file" in raw_patient:
        doc.reject_unknown(raw_patient, {"file"}, "run_config.patient")
        file = doc.get_str(raw_patient, "file", "run_config.patient")
        patient = PatientSample(file=str(Path(base_dir or ".") / file))
    else:
        doc.reject_unknown(
            raw_patient,
            {"bpm", "irregularity", "st_offset", "noise", "duration", "rate", "seed"},
            "run_config.patient",
        )
        patient_kwargs = {"bpm": _signal_number(raw_patient, "bpm", "run_config.patient")}
        for key in ("irregularity", "st_offset", "noise", "duration", "rate"):
            if key in raw_patient:
                patient_kwargs[key] = _signal_number(raw_patient, key, "run_config.patient")
        if "seed" in raw_patient:
            patient_kwargs["seed"] = doc.get_int(raw_patient, "seed", "run_config.patient")
        patient = PatientParams(**patient_kwargs)

    candidates = []
    for i, raw in enumerate(doc.require_list(root.get("vhs_grid", []), "run_config.vhs_grid")):
        path = f"run_config.vhs_grid[{i}]"
        record = doc.require_mapping(raw, path)
        doc.reject_unknown(record, {"bpm", "irregularity", "st_offset", "seed"}, path)
        candidate = {"bpm": _signal_number(record, "bpm", path)}
        for key in ("irregularity", "st_offset"):
            if key in record:
                candidate[key] = _signal_number(record, key, path)
        if "seed" in record:
            candidate["seed"] = doc.get_int(record, "seed", path)
        candidates.append(candidate)

    user_inputs = {}
    if "user_inputs" in root:
        user_inputs = dict(doc.require_mapping(root["user_inputs"], "run_config.user_inputs"))

    thresholds = Thresholds()
    if "thresholds" in root:
        raw_thr = doc.require_mapping(root["thresholds"], "run_config.thresholds")
        doc.reject_unknown(raw_thr, {"fibrillation_freq", "ischemia_st", "arrhythmia_rr"}, "run_config.thresholds")
        kwargs = {key: doc.get_number(raw_thr, key, "run_config.thresholds") for key in raw_thr}
        thresholds = Thresholds(**kwargs)

    return RunConfig(
        seed=seed,
        patient=patient,
        candidates=tuple(candidates),
        thresholds=thresholds,
        user_inputs=user_inputs,
    )


def _load_patient_signal(config: RunConfig) -> EcgSignal:
    patient = config.patient
    if isinstance(patient, PatientSample):
        raw = doc.load_json(patient.file)
        root = doc.require_mapping(raw, "patient_sample")
        doc.reject_unknown(root, {"rate", "values"}, "patient_sample")
        rate = doc.get_number(root, "rate", "patient_sample")
        values = doc.require_list(doc.get_required(root, "values", "patient_sample"), "patient_sample.values")
        if rate <= 0 or not values:
            raise doc.SchemaError("patient_sample", "needs a positive rate and non-empty values")
        return EcgSignal(values=np.asarray(values, dtype=float), rate=float(rate))
    seed = patient.seed if patient.seed is not None else config.seed
    return synthesize_ecg(
        bpm=patient.bpm,
        irregularity=patient.irregularity,
        st_offset=patient.st_offset,
        noise=patient.noise,
        duration=patient.duration,
        rate=patient.rate,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Run records


@dataclass(frozen=True)
class DispatchRecord:
    index: int
    node_id: str
    subworkflow_id: str
    scheduler: str
    quorum_level: str
    start: float
    end: float
    result: SubWorkflowResult

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
    run_seed: int
    patient_duration: float
    patient_rate: float
    candidates: tuple[dict, ...]
    thresholds: Thresholds
    sources: dict
    user_inputs: dict
    workspace: dict = field(default_factory=dict)
    cursor: float = 0.0
    dispatch_index: int = 0
    dispatches: list = field(default_factory=list)
    vhs: LoopRecord | None = None
    rates: RateMemo = field(default_factory=dict)  # shared by every dispatch over pool_map


def _features_detail(features: EcgFeatures) -> dict:
    return {
        "rr_mean": features.rr_mean,
        "rr_std": features.rr_std,
        "dominant_freq": features.dominant_freq,
        "st_deviation": features.st_deviation,
    }


def _fn_extract_features(ctx: _Context) -> dict:
    signal = ctx.workspace.get("patient.ecg")
    if not isinstance(signal, EcgSignal):
        raise MissingInput("patient.ecg")
    features = extract_features(signal)
    ctx.workspace["features"] = features
    return {"features": _features_detail(features)}


def _fn_longterm_analysis(ctx: _Context) -> dict:
    features = ctx.workspace.get("features")
    if features is None:
        raise MissingInput("features")
    report = {
        "window_hours": 24,
        "rr_mean": features.rr_mean,
        "rr_std": features.rr_std,
        "flag": ctx.workspace.get("diagnosis", "unknown"),
    }
    ctx.workspace["longterm_report"] = report
    return {"report": report}


LOCAL_FUNCTIONS = {
    "extract-ecg-features": _fn_extract_features,
    "longterm-ecg-analysis": _fn_longterm_analysis,
}


def _rule_disease_routing(ctx: _Context) -> str:
    features = ctx.workspace.get("features")
    if features is None:
        raise MissingInput("features")
    diagnosis = estimate_disease(features, ctx.thresholds)
    ctx.workspace["diagnosis"] = diagnosis
    return diagnosis


DECISION_RULES = {
    "disease-routing": _rule_disease_routing,
}


def _dispatch_grid(ctx: _Context, node_id: str, subworkflow_id: str) -> SubWorkflowResult:
    if subworkflow_id not in ctx.subworkflows:
        raise UnknownStrategy(f"unknown subworkflow {subworkflow_id!r}")
    subwf = ctx.subworkflows[subworkflow_id]
    scheduler = ctx.registry.get("scheduler.kind")
    seed = derive_seed(ctx.run_seed, ctx.registry.get("scheduler.seed"), ctx.dispatch_index, "sched")
    plan = map_workflow(subwf, ctx.quorum, ctx.pool_map, scheduler=scheduler, seed=seed, rates=ctx.rates)
    result = execute_plan(plan, ctx.pool_map, rates=ctx.rates)
    record = DispatchRecord(
        index=ctx.dispatch_index,
        node_id=node_id,
        subworkflow_id=subworkflow_id,
        scheduler=scheduler,
        quorum_level=ctx.quorum.level,
        start=ctx.cursor,
        end=ctx.cursor + result.makespan,
        result=result,
    )
    ctx.dispatches.append(record)
    ctx.dispatch_index += 1
    ctx.cursor += result.makespan
    return result


def _loop_setting(ctx: _Context, key: str, payload_value):
    """Enforced config beats the node payload; the payload beats defaults."""
    entry = ctx.registry.entry(key)
    if entry.provenance != DEFAULT_PROVENANCE:
        return entry.value
    return payload_value


@functools.lru_cache(maxsize=1024)
def _candidate_features(bpm, irregularity, st_offset, seed, duration, rate) -> EcgFeatures:
    """Features of a noiseless VHS candidate, which depend on these arguments alone (features are kept, never signals)."""
    return extract_features(synthesize_ecg(bpm, irregularity, st_offset, 0.0, duration, rate, seed))


def _run_vhs_loop(ctx: _Context, node: Node) -> dict:
    payload = node.payload
    max_iter = _loop_setting(ctx, "vhs.max_iter", payload["max_iterations"])
    tolerance = _loop_setting(ctx, "vhs.tolerance", payload["tolerance"])
    if not ctx.candidates:
        raise EmptyParameterGrid("no candidate parameter sets configured")
    patient_features = ctx.workspace.get("features")
    if patient_features is None:
        raise MissingInput("features")

    iterations = []
    matched = False
    for i in range(min(max_iter, len(ctx.candidates))):
        candidate = ctx.candidates[i]
        result = _dispatch_grid(ctx, node.id, payload["subworkflow"])
        features = _candidate_features(
            candidate["bpm"],
            candidate.get("irregularity", 0.0),
            candidate.get("st_offset", 0.0),
            candidate.get("seed", 0),
            ctx.patient_duration,
            ctx.patient_rate,
        )
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
    ctx.workspace["vhs_match"] = best.candidate if matched else None
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

    if node.kind is NodeKind.DATA_RETRIEVAL:
        key = payload["key"]
        if key not in ctx.sources:
            raise MissingInput(key)
        ctx.workspace[key] = ctx.sources[key]
        return {"key": key}, successors

    if node.kind is NodeKind.USER_INPUT:
        key = payload["key"]
        if key not in ctx.user_inputs:
            raise MissingInput(key)
        ctx.workspace[key] = ctx.user_inputs[key]
        return {"key": key}, successors

    if node.kind is NodeKind.LOCAL_TASK:
        name = payload["function"]
        if name not in LOCAL_FUNCTIONS:
            raise UnknownStrategy(f"unknown local function {name!r}")
        return LOCAL_FUNCTIONS[name](ctx), successors

    if node.kind is NodeKind.GRID_SUB_WORKFLOW:
        result = _dispatch_grid(ctx, node.id, payload["subworkflow"])
        detail = {"subworkflow": payload["subworkflow"], "makespan": result.makespan}
        if "produces" in payload:
            name = payload["produces"]
            if name not in LOCAL_FUNCTIONS:
                raise UnknownStrategy(f"unknown local function {name!r}")
            detail.update(LOCAL_FUNCTIONS[name](ctx))
        return detail, successors

    if node.kind is NodeKind.DECISION:
        name = payload["rule_table"]
        if name not in DECISION_RULES:
            raise UnknownStrategy(f"unknown rule table {name!r}")
        outcome = DECISION_RULES[name](ctx)
        branches = payload["branches"]
        if outcome not in branches:
            raise UnknownStrategy(f"rule outcome {outcome!r} has no branch")
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

    if node.kind is NodeKind.TERMINAL:
        return {}, None

    raise AssertionError(f"unhandled node kind {node.kind}")


# --------------------------------------------------------------------------
# Top-level run


def run_workflow(
    graph: WorkflowGraph,
    subworkflows: dict[str, AbstractSubWorkflow],
    pool: list[ResourceDescriptor],
    repo: list,
    sla: Sla,
    config: RunConfig,
    info: InformationBase | None = None,
    run_id: str | None = None,
    user_inputs: dict | None = None,
) -> RunRecord:
    """Execute one workflow run end to end and return its full record."""
    run_id = run_id or f"run-{config.seed}"
    try:
        return _run_workflow(graph, subworkflows, pool, repo, sla, config, info, run_id, user_inputs)
    except RunError:
        raise
    except WmsError as exc:
        raise RunError(run_id, exc) from exc


def _run_workflow(graph, subworkflows, pool, repo, sla, config, info, run_id, user_inputs) -> RunRecord:
    expanded = expand_soft_label(sla) if sla.soft_label is not None else sla
    info = info if info is not None else InformationBase()
    policy_set = decide_policy(expanded, repo, info)
    registry = ConfigRegistry()
    report = enforce(policy_set, registry)

    params = AllocationCostParams(registry.get("resource.alpha"), registry.get("resource.beta"))
    level = registry.get("resource.level")
    scheduler_seed = registry.get("scheduler.seed")
    if level == RANDOM_LEVEL:
        quorum = random_quorum(pool, 0.0, params, derive_seed(config.seed, scheduler_seed, 0, "quorum"))
    else:
        quorum = generate_arq(pool, level, 0.0, params)

    patient_signal = _load_patient_signal(config)

    ctx = _Context(
        graph=graph,
        subworkflows=dict(subworkflows),
        pool_map={r.id: r for r in pool},
        registry=registry,
        quorum=quorum,
        run_seed=config.seed,
        patient_duration=patient_signal.duration,
        patient_rate=patient_signal.rate,
        candidates=config.candidates,
        thresholds=config.thresholds,
        sources={"patient.ecg": patient_signal},
        user_inputs={**config.user_inputs, **(user_inputs or {})},
    )

    service = expanded.service_level
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
        overrides=report.overrides,
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


def _sla_document(sla: Sla) -> dict:
    return {
        "user_id": sla.user_id,
        "soft_label": sla.soft_label,
        "resource_level": sla.resource_level,
        "performance": sla.performance,
        "service_level": sla.service_level,
    }


def record_document(record: RunRecord) -> dict:
    """Plain-data view of a run record, suitable for JSON output."""
    return {
        "run_id": record.run_id,
        "seed": record.seed,
        "sla": _sla_document(record.sla),
        "expanded_sla": _sla_document(record.expanded_sla),
        "policies": dict(record.policy_ids),
        "config": record.config,
        "overrides": [
            {
                "key": o.key,
                "overridden": o.overridden,
                "overriding": o.overriding,
                "old_value": o.old_value,
                "new_value": o.new_value,
            }
            for o in record.overrides
        ],
        "quorum": {"level": record.quorum.level, "members": list(record.quorum.members)},
        "nodes": [
            {"id": n.node_id, "kind": n.kind, "start": n.start, "end": n.end, "detail": n.detail}
            for n in record.nodes
        ],
        "dispatches": [
            {
                "index": d.index,
                "node": d.node_id,
                "subworkflow": d.subworkflow_id,
                "scheduler": d.scheduler,
                "quorum_level": d.quorum_level,
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
            "iterations": [
                {
                    "index": it.index,
                    "candidate": it.candidate,
                    "distance": it.distance,
                    "matched": it.matched,
                    "makespan": it.makespan,
                }
                for it in record.vhs.iterations
            ],
        },
        "features": None if record.features is None else _features_detail(record.features),
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
