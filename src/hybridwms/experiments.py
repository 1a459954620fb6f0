"""Experiment harness: allocation-cost study and policy-comparison study.

Both studies are pure functions of their documents. The comparison study
runs the full engine once per (configuration, replicate) pair; rows are
sorted before writing so replicate execution order never shows in output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import documents as doc
from .engine import check_workflow, enforce_run_policy, replace_seed, run_workflow
from .errors import RunError, WmsError
from .policy import Policy, Sla, parse_repository, parse_sla
from .resources import (
    LEVELS,
    AllocationCostParams,
    ResourceDescriptor,
    average_cost_table,
    cost_grid,
    generate_arq,
    quorum_grid_mean,
)
from .runconfig import RunConfig
from .workflow import AbstractSubWorkflow, WorkflowGraph, parse_subworkflow, parse_workflow


class WorkflowBundle(NamedTuple):
    """A workflow graph plus every sub-workflow its nodes reference."""

    graph: WorkflowGraph
    subworkflows: dict[str, AbstractSubWorkflow]


def load_workflow_bundle(path) -> WorkflowBundle:
    """Load a workflow document and its sibling ``<subworkflow-id>.json`` files,
    then check the graph against the engine with ``engine.check_workflow``."""
    path = Path(path)
    graph = parse_workflow(doc.load_json(path))
    subworkflows = {}
    for node in graph.nodes:
        sub_id = node.payload.get("subworkflow")
        if sub_id and sub_id not in subworkflows:
            subworkflows[sub_id] = parse_subworkflow(doc.load_json(path.parent / f"{sub_id}.json"))
    check_workflow(graph, subworkflows)
    return WorkflowBundle(graph, subworkflows)


# --------------------------------------------------------------------------
# Experiment specification


class PolicySetConfig(NamedTuple):
    name: str
    sla: Sla
    extra_policies: tuple[Policy, ...] = ()


@dataclass(frozen=True)
class ExperimentSpec:
    replicates: int = 1
    base_seed: int = 0
    configs: tuple[PolicySetConfig, ...] = ()

    def __post_init__(self):
        if self.replicates < 1:
            raise doc.SchemaError("experiment", "replicates must be >= 1")
        if len(self.configs) < 2:
            raise doc.SchemaError("experiment", "policy comparison needs at least two configurations")


_SPEC_KEYS = frozenset({"kind", "replicates", "base_seed", "configs"})
_CONFIG_KEYS = frozenset(PolicySetConfig._fields)


def parse_experiment_spec(document) -> ExperimentSpec:
    """Parse a policy-comparison spec, the only kind of experiment document;
    the cost study reads nothing but the pool. ``ExperimentSpec`` holds the
    value of each field left out."""
    root = doc.require_mapping(document, "experiment")
    kind = doc.get_str(root, "kind", "experiment")
    if kind != "policy_comparison":
        raise doc.SchemaError("experiment.kind", f"expected 'policy_comparison', got {kind!r}")
    doc.reject_unknown(root, _SPEC_KEYS, "experiment")
    fields = {key: doc.get_int(root, key, "experiment") for key in ("replicates", "base_seed") if key in root}

    configs = []
    seen = set()
    for i, raw in enumerate(doc.require_list(root.get("configs", []), "experiment.configs")):
        path = f"experiment.configs[{i}]"
        record = doc.require_mapping(raw, path)
        doc.reject_unknown(record, _CONFIG_KEYS, path)
        name = doc.get_name(record, "name", path)
        if name in seen:
            raise doc.SchemaError(f"{path}.name", f"duplicate configuration name {name!r}")
        seen.add(name)
        sla = parse_sla(doc.get_required(record, "sla", path))
        extra = tuple(parse_repository(record["extra_policies"])) if "extra_policies" in record else ()
        configs.append(PolicySetConfig(name=name, sla=sla, extra_policies=extra))

    return ExperimentSpec(configs=tuple(configs), **fields)


# --------------------------------------------------------------------------
# Allocation-cost study


class CostStudy(NamedTuple):
    table_csv: str  # hour x resource table, six top-ranked columns
    quorum_csv: str  # per-level quorum mean over the same grid
    level_means: tuple[tuple[str, float], ...]

    @property
    def best_level(self) -> str:
        return min(self.level_means, key=lambda pair: (pair[1], pair[0]))[0]


def run_cost_study(
    pool: list[ResourceDescriptor],
    params: AllocationCostParams = AllocationCostParams(),
    horizon: int = 24,
    samples_per_hour: int = 60,
) -> CostStudy:
    """Hourly mean allocation cost of the six resources ranked best at t=0
    (all of a smaller pool), plus per-level quorum means. Each cost is
    evaluated once per grid instant; table and means reduce that one grid."""
    grid = cost_grid(pool, horizon, samples_per_hour, params)
    quorums = [generate_arq(pool, level, 0.0, params) for level in LEVELS]
    ids = quorums[-1].members[:6]
    rows = average_cost_table(grid, ids, samples_per_hour)
    means = [(quorum.level, quorum_grid_mean(grid, quorum)) for quorum in quorums]
    table_csv = doc.csv_text(("hour", *ids), ((hour, *row) for hour, row in enumerate(rows)))
    return CostStudy(table_csv, doc.csv_text(("level", "mean_ac"), means), tuple(means))


# --------------------------------------------------------------------------
# Policy-comparison study


class ComparisonRow(NamedTuple):
    config: str
    replicate: int
    seed: int
    completion: float  # seconds, already rounded to the CSV precision


class ComparisonSummary(NamedTuple):
    config: str
    mean: float
    stddev: float
    min: float
    max: float


class ComparisonResult(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    summaries: tuple[ComparisonSummary, ...]


def _pstdev(values: list[float]) -> float:
    """The population standard deviation, correctly rounded from the exact
    variance, as ``statistics.pstdev`` defines it from Python 3.11 (3.10
    rounds the variance to a float first, so its last bit differs).

    Every float is a whole multiple of ``1/scale``, the largest denominator,
    which is a power of two, so the variance is ``(n·Σm² − (Σm)²) / (n·scale)²``
    in integers ``m``. Scaled by a power of four to ``2·53 + 3`` bits or more,
    its integer square root is rounded to odd, then once to a float.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    total = squares = 0
    for num, den in ratios:
        m = num * (scale // den)
        total += m
        squares += m * m
    n = len(values)
    num, den = n * squares - total * total, (n * scale) ** 2
    shift = (num.bit_length() - den.bit_length() - 109) // 2  # num/den >= 2**108 once scaled
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd: a sticky bit if inexact
    return root * 2.0**shift if shift >= 0 else root / (1 << -shift)


def _summarize(rows: list[ComparisonRow]) -> tuple[ComparisonSummary, ...]:
    summaries = []
    for name in sorted({row.config for row in rows}):
        values = [row.completion for row in rows if row.config == name]
        summaries.append(
            ComparisonSummary(
                config=name,
                mean=math.fsum(values) / len(values),
                stddev=_pstdev(values),
                min=min(values),
                max=max(values),
            )
        )
    return tuple(summaries)


def run_policy_comparison(
    spec: ExperimentSpec,
    bundle: WorkflowBundle,
    pool: list[ResourceDescriptor],
    repo: list[Policy],
    run_config: RunConfig,
) -> ComparisonResult:
    """Run every configuration x replicate and collect completion times.

    Replicate r of every configuration uses seed base_seed + r, so paired
    replicates see the same patient. Every configuration's policy set is
    decided before the first run, as ``validate`` decides it: a set that
    cannot be decided raises the ``RunError`` of its configuration's first
    replicate. A failing run raises its ``RunError`` and the study returns
    nothing.
    """
    repositories = [list(repo) + list(config.extra_policies) for config in spec.configs]
    for config, repository in zip(spec.configs, repositories):
        try:
            enforce_run_policy(config.sla, repository, pool)
        except WmsError as exc:
            raise RunError(f"{config.name}-r1", exc) from exc
    rows: list[ComparisonRow] = []
    for config, repository in zip(spec.configs, repositories):
        for replicate in range(1, spec.replicates + 1):
            seed = spec.base_seed + replicate
            record = run_workflow(
                bundle.graph,
                bundle.subworkflows,
                pool,
                repository,
                config.sla,
                replace_seed(run_config, seed),
                run_id=f"{config.name}-r{replicate}",
            )
            rows.append(ComparisonRow(config.name, replicate, seed, round(record.completion_time, 6)))
    rows.sort(key=lambda row: (row.config, row.replicate))
    return ComparisonResult(tuple(rows), _summarize(rows))


def comparison_csv(result: ComparisonResult) -> str:
    return doc.csv_text(("config", "replicate", "seed", "completion_s"), result.rows)


def summary_csv(result: ComparisonResult) -> str:
    return doc.csv_text(("config", "mean", "stddev", "min", "max"), result.summaries)
