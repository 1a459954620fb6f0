"""Low-level grid engine: catalog generation, workflow mapping, execution.

An abstract sub-workflow (tasks, data edges, input files) is mapped onto the
members of a resource quorum by a pluggable scheduler, producing a concrete
plan with per-task time estimates and the transfers needed to stage data.
Mapping and execution run one recurrence in one pass over the tasks in plan
order. Plans are topologically ordered and every resource serves its tasks
in plan order, so a task's estimate is its execution: estimates are exact
for every scheduler. ``MinEFT`` is HEFT's earliest-finish-time placement
without the upward-rank ordering (Topcuoglu, Hariri & Wu, IEEE TPDS 2002).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InfeasibleMapping, StuckSimulation, UnknownStrategy
from .resources import Quorum, ResourceDescriptor
from .simkernel import (
    PlannedTask,
    PlannedTransfer,
    TaskRecord,
    TransferRecord,
    effective_rate,
    exec_time,  # noqa: F401 -- kept at this name; bench/tracing.py counts calls through it
    transfer_time,
)
from .workflow import AbstractSubWorkflow, topological_order

SCHEDULER_KINDS = ("MinEFT", "RoundRobin", "Random")

RateMemo = dict[tuple[str, float], float]  # effective rate by (resource id, start), for one pool


@dataclass(frozen=True)
class Catalogs:
    """The transformation catalog of a mapping round: which member provides what."""

    transformations: tuple[tuple[str, str], ...]  # (transformation, resource id)

    def resources_with(self, transformation: str) -> tuple[str, ...]:
        return tuple(rid for name, rid in self.transformations if name == transformation)


def generate_catalogs(subwf: AbstractSubWorkflow, quorum: Quorum) -> Catalogs:
    """Build the transformation catalog for a mapping round: every distinct
    transformation is installed on every quorum member, in rank order.

    Input files need no catalog: the mapper stages them from the first (best
    ranked) member, which acts as the submit host.
    """
    names = sorted({t.transformation for t in subwf.tasks})
    return Catalogs(tuple((name, rid) for name in names for rid in quorum.members))


@dataclass(frozen=True)
class ConcretePlan:
    subworkflow_id: str
    scheduler: str
    quorum_level: str
    assignments: tuple[PlannedTask, ...]  # topological order
    dependencies: tuple[tuple[str, str, float], ...]
    transfers: tuple[PlannedTransfer, ...]  # stage-ins only; runtime edges derive from deps
    estimates: tuple[TaskRecord, ...]  # same order as assignments
    makespan_estimate: float

    def as_document(self) -> dict:
        return {
            "subworkflow": self.subworkflow_id,
            "scheduler": self.scheduler,
            "quorum_level": self.quorum_level,
            "assignments": [
                {"task": p.task_id, "resource": p.resource_id, "work": p.work} for p in self.assignments
            ],
            "transfers": [
                {
                    "file": t.file,
                    "from": t.src_resource,
                    "to": t.dst_resource,
                    "bytes": t.size_bytes,
                    "consumer": t.consumer,
                }
                for t in self.transfers
            ],
            "estimates": [
                {"task": e.task_id, "resource": e.resource_id, "start": e.start, "end": e.end}
                for e in self.estimates
            ],
            "makespan_estimate": self.makespan_estimate,
        }


class _Estimator:
    """The timing recurrence of mapping and of execution.

    Tasks are committed in plan order to single-slot resources. A task is
    ready when its last input arrives: a stage-in starts at time zero, and a
    producer's output leaves at the producer's end, crossing resources by a
    transfer. It starts once it is ready and its resource has finished every
    task committed to it before, and runs for ``exec_time`` at its start:
    its work divided by its resource's ``effective_rate`` then. Stage-ins are
    ``(source resource, bytes, consumer)`` and dependencies ``(producer,
    consumer, bytes)``. ``rates`` memoizes each rate by ``(resource id,
    start)``, so it is evaluated once per pair; estimators over the same pool
    may share it, and ``None`` gives this estimator its own.
    """

    def __init__(self, pool: dict[str, ResourceDescriptor], stage_ins, dependencies, rates: RateMemo | None):
        self._pool = pool
        self._rates = {} if rates is None else rates
        self._avail: dict[str, float] = {}
        self.end_of: dict[str, float] = {}
        self.placed: dict[str, str] = {}
        self.records: list[TaskRecord] = []  # commit order
        self._stage_ins = {}
        for src, size, consumer in stage_ins:
            self._stage_ins.setdefault(consumer, []).append((src, size))
        self._deps_into = {}
        for producer, consumer, size in dependencies:
            self._deps_into.setdefault(consumer, []).append((producer, size))

    def ready_time(self, task_id: str, resource_id: str) -> float:
        resource = self._pool[resource_id]
        ready = 0.0
        for src, size in self._stage_ins.get(task_id, ()):
            if src != resource_id:
                ready = max(ready, transfer_time(size, self._pool[src], resource))
        for producer, size in self._deps_into.get(task_id, ()):
            arrival = self.end_of[producer]
            src = self.placed[producer]
            if src != resource_id:
                arrival += transfer_time(size, self._pool[src], resource)
            ready = max(ready, arrival)
        return ready

    def finish_time(self, task_id: str, work: float, resource_id: str) -> tuple[float, float, float]:
        ready = self.ready_time(task_id, resource_id)
        start = max(ready, self._avail.get(resource_id, 0.0))
        rate = self._rates.get((resource_id, start))
        if rate is None:
            rate = self._rates[resource_id, start] = effective_rate(self._pool[resource_id], start)
        return ready, start, start + work / rate

    def commit(self, task_id: str, resource_id: str, ready: float, start: float, end: float) -> None:
        self.placed[task_id] = resource_id
        self.end_of[task_id] = end
        self._avail[resource_id] = end
        self.records.append(TaskRecord(task_id, resource_id, ready, start, end))


def map_workflow(
    subwf: AbstractSubWorkflow,
    quorum: Quorum,
    pool: dict[str, ResourceDescriptor],
    scheduler: str = "MinEFT",
    seed: int = 0,
    catalogs: Catalogs | None = None,
    rates: RateMemo | None = None,
) -> ConcretePlan:
    """Assign every task of the sub-workflow to a quorum member.

    ``MinEFT`` greedily minimizes each task's estimated finish time (ties go
    to the lowest resource id), ``RoundRobin`` cycles through the quorum in
    rank order, and ``Random`` draws uniformly from the eligible members
    using the given seed. ``rates`` is the estimator's rate memo; calls over
    the same pool may share one (the engine shares one per run).
    """
    if scheduler not in SCHEDULER_KINDS:
        raise UnknownStrategy(f"unknown scheduler {scheduler!r}")
    member_ids = list(quorum.members)
    missing = [m for m in member_ids if m not in pool]
    if missing:
        raise InfeasibleMapping(f"quorum members absent from pool: {missing}")
    if catalogs is None:
        catalogs = generate_catalogs(subwf, quorum)
    replica_host = member_ids[0]

    order = topological_order(subwf)
    tasks = {t.id: t for t in subwf.tasks}
    stage_ins = ((replica_host, size, consumer) for _, size, consumer in subwf.inputs)
    estimator = _Estimator(pool, stage_ins, subwf.data_deps, rates)
    rng = random.Random(seed)

    assignments = []
    for index, task_id in enumerate(order):
        task = tasks[task_id]
        provided = set(catalogs.resources_with(task.transformation))
        eligible = [rid for rid in member_ids if rid in provided]
        if not eligible:
            raise InfeasibleMapping(f"no resource provides transformation {task.transformation!r}")
        if scheduler == "MinEFT":
            best = None
            for rid in sorted(eligible):
                ready, start, end = estimator.finish_time(task_id, task.work, rid)
                if best is None or end < best[3]:
                    best = (rid, ready, start, end)
            rid, ready, start, end = best
        else:
            if scheduler == "RoundRobin":
                rid = member_ids[index % len(member_ids)]
                if rid not in eligible:
                    raise InfeasibleMapping(f"resource {rid!r} lacks transformation {task.transformation!r}")
            else:
                rid = eligible[rng.randrange(len(eligible))]
            ready, start, end = estimator.finish_time(task_id, task.work, rid)
        estimator.commit(task_id, rid, ready, start, end)
        assignments.append(PlannedTask(task_id, task.work, rid))

    placed = estimator.placed
    transfers = tuple(
        PlannedTransfer(file, replica_host, placed[consumer], size, consumer)
        for file, size, consumer in subwf.inputs
        if placed[consumer] != replica_host
    )
    estimates = tuple(estimator.records)
    makespan = max((e.end for e in estimates), default=0.0)
    return ConcretePlan(
        subworkflow_id=subwf.id,
        scheduler=scheduler,
        quorum_level=quorum.level,
        assignments=tuple(assignments),
        dependencies=tuple(subwf.data_deps),
        transfers=transfers,
        estimates=estimates,
        makespan_estimate=makespan,
    )


@dataclass(frozen=True)
class SubWorkflowResult:
    plan: ConcretePlan
    tasks: tuple[TaskRecord, ...]  # plan order
    transfers: tuple[TransferRecord, ...]  # by (end, start, producer plan position, dependency order)
    makespan: float

    def as_document(self) -> dict:
        return {
            "plan": self.plan.as_document(),
            "tasks": [
                {
                    "task": r.task_id,
                    "resource": r.resource_id,
                    "ready": r.ready,
                    "start": r.start,
                    "end": r.end,
                }
                for r in self.tasks
            ],
            "transfers": [
                {
                    "file": r.file,
                    "from": r.src_resource,
                    "to": r.dst_resource,
                    "bytes": r.size_bytes,
                    "start": r.start,
                    "end": r.end,
                }
                for r in self.transfers
            ],
            "makespan": self.makespan,
        }


def execute_plan(
    plan: ConcretePlan, pool: dict[str, ResourceDescriptor], rates: RateMemo | None = None
) -> SubWorkflowResult:
    """Execute a concrete plan: one pass of the mapping recurrence in plan order.

    Transfer records list the plan's stage-ins, which start at time zero, and
    one transfer per dependency that crosses resources, which starts at its
    producer's end. They are sorted by (end, start, producer's plan position,
    dependency order), a stage-in counting as position -1 and its order
    being its place in ``plan.transfers``.

    A duplicate task, an unknown resource, or a dependency or stage-in naming
    an unknown task raises ``ValueError``. A task placed before one of its
    producers raises ``StuckSimulation`` naming it and every later task.
    ``rates`` is the estimator's rate memo, as for ``map_workflow``.
    """
    position: dict[str, int] = {}
    for index, planned in enumerate(plan.assignments):
        if planned.task_id in position:
            raise ValueError(f"duplicate task {planned.task_id!r} in plan")
        if planned.resource_id not in pool:
            raise ValueError(f"task {planned.task_id!r} assigned to unknown resource {planned.resource_id!r}")
        position[planned.task_id] = index
    for producer, consumer, _ in plan.dependencies:
        if producer not in position or consumer not in position:
            raise ValueError(f"dependency {producer!r} -> {consumer!r} references unknown task")
    for transfer in plan.transfers:
        if transfer.consumer not in position:
            raise ValueError(f"transfer targets unknown task {transfer.consumer!r}")
    stuck = [position[consumer] for producer, consumer, _ in plan.dependencies if position[producer] >= position[consumer]]
    if stuck:
        raise StuckSimulation(p.task_id for p in plan.assignments[min(stuck) :])

    stage_ins = ((t.src_resource, t.size_bytes, t.consumer) for t in plan.transfers)
    estimator = _Estimator(pool, stage_ins, plan.dependencies, rates)
    for planned in plan.assignments:
        times = estimator.finish_time(planned.task_id, planned.work, planned.resource_id)
        estimator.commit(planned.task_id, planned.resource_id, *times)

    tasks, placed, end_of = estimator.records, estimator.placed, estimator.end_of
    moves = [((-1, i), t.file, t.src_resource, t.dst_resource, t.size_bytes, 0.0) for i, t in enumerate(plan.transfers)]
    moves += [
        ((position[producer], i), f"{producer}->{consumer}", placed[producer], placed[consumer], size, end_of[producer])
        for i, (producer, consumer, size) in enumerate(plan.dependencies)
        if placed[producer] != placed[consumer]
    ]
    transfers = []
    for order, file, src, dst, size, start in moves:
        end = start + transfer_time(size, pool[src], pool[dst])
        transfers.append(((end, start) + order, TransferRecord(file, src, dst, size, start, end)))
    transfers.sort(key=lambda item: item[0])

    makespan = max((r.end for r in tasks), default=0.0)
    return SubWorkflowResult(plan, tuple(tasks), tuple(record for _, record in transfers), makespan)
