"""Low-level grid engine: workflow mapping, and the execution it records.

An abstract sub-workflow (tasks, data edges, input files) is mapped onto the
members of a resource quorum by a pluggable scheduler, producing a concrete
plan of one ``TaskRecord`` per task and the transfers needed to stage data.
Every quorum member provides every transformation. ``map_workflow`` runs the
whole timing recurrence in one pass over the tasks in plan order, gathering
each task's inputs once. Plans are topologically ordered and every resource
serves its tasks in plan order, so a task's estimate is its execution:
estimates are exact for every scheduler, and executing a plan reads its
records instead of running the recurrence again. ``MinEFT`` is HEFT's
earliest-finish-time placement without the upward-rank ordering (Topcuoglu,
Hariri & Wu, IEEE TPDS 2002); an exact end floor lets it skip members that
cannot win, so every plan is that of the exhaustive scan.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import WmsError
from .resources import Quorum, ResourceDescriptor
from .simkernel import (
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


class Catalogs(NamedTuple):
    """The transformation catalog of a mapping round: every member provides
    every transformation. Input files are staged from the first member."""

    members: tuple[str, ...]  # rank order

    def resources_with(self, transformation: str) -> tuple[str, ...]:
        return self.members


class ConcretePlan(NamedTuple):
    subworkflow_id: str
    scheduler: str
    quorum_level: str
    assignments: tuple[TaskRecord, ...]  # commit (topological) order
    dependencies: tuple[tuple[str, str, float], ...]
    transfers: tuple[PlannedTransfer, ...]  # stage-ins only; runtime edges derive from deps
    makespan_estimate: float

    def as_document(self) -> dict:
        return {
            "subworkflow": self.subworkflow_id,
            "scheduler": self.scheduler,
            "quorum_level": self.quorum_level,
            "assignments": [
                {"task": r.task_id, "resource": r.resource_id, "work": r.work} for r in self.assignments
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
                {"task": r.task_id, "resource": r.resource_id, "start": r.start, "end": r.end}
                for r in self.assignments
            ],
            "makespan_estimate": self.makespan_estimate,
        }


def _finish_time(inputs, resource: ResourceDescriptor, avail_end: float, work: float, rates: RateMemo) -> tuple[float, float, float]:
    """``(ready, start, end)`` of a task placed on ``resource``, whose last
    task ends at ``avail_end``.

    ``inputs`` are ``(leaves, site, bandwidth, latency, bytes)``: when each
    input leaves its source, and the source's link. One from another site
    arrives after ``transfer_time``, computed inline with its ``min`` and
    ``max`` as comparisons. The task is ready when its last input arrives,
    starts once it is ready and the resource is free, and runs for
    ``exec_time`` at its start. ``rates`` memoizes the rate by ``(resource id,
    start)``, so each pair reads its load once.
    """
    site, bandwidth, latency = resource.site, resource.bandwidth, resource.latency
    ready = 0.0
    for leaves, src_site, src_bandwidth, src_latency, size in inputs:
        if src_site != site:
            slowest = src_bandwidth if src_bandwidth <= bandwidth else bandwidth
            leaves += size / slowest + (src_latency if src_latency >= latency else latency)
        if leaves > ready:
            ready = leaves
    start = avail_end if avail_end > ready else ready
    rate = rates.get((resource.id, start))
    if rate is None:
        rate = rates[resource.id, start] = effective_rate(resource, start)
    return ready, start, start + work / rate


def map_workflow(
    subwf: AbstractSubWorkflow,
    quorum: Quorum,
    pool: dict[str, ResourceDescriptor],
    scheduler: str = "MinEFT",
    seed: int = 0,
    rates: RateMemo | None = None,
) -> ConcretePlan:
    """Assign every task of the sub-workflow to a quorum member.

    Tasks are committed in topological order to single-slot resources, and
    each is timed by ``_finish_time``. A stage-in leaves the replica host at
    0.0, and a producer's output leaves at the producer's end. The records,
    in commit order, are the plan's assignments and its estimates. ``rates``
    is the rate memo; calls over the same pool may share one (the engine
    shares one per run).

    ``MinEFT`` greedily minimizes each task's end (ties go to the lowest
    resource id). It walks the members in id order and skips one whose end
    floor, ``max(avail, producers_end) + work / cpu_rate``, is at or above the
    best end so far, so a skipped member reads no load. The floor is exact:
    transfers take no negative time, so the task starts no earlier than the
    later of the member's last end and its latest producer's end; the rate
    never exceeds ``cpu_rate`` (see ``effective_rate``); and IEEE ``+`` and
    ``/`` round monotonically. So no skipped member ends strictly earlier,
    and the plan is the exhaustive scan's. ``RoundRobin`` cycles through the
    quorum in rank order, and ``Random`` draws uniformly from the quorum using
    the given seed. A quorum without members, or with a member absent from
    ``pool``, raises ``WmsError``.
    """
    if scheduler not in SCHEDULER_KINDS:
        raise WmsError(f"unknown scheduler {scheduler!r}")
    members = quorum.members
    if not members:
        raise WmsError(f"quorum {quorum.level} has no members")
    missing = [m for m in members if m not in pool]
    if missing:
        raise WmsError(f"quorum members absent from pool: {missing}")
    catalogs = Catalogs(members)
    replica_host = members[0]

    order = topological_order(subwf)
    tasks = {t.id: t for t in subwf.tasks}
    host = pool[replica_host]
    stage_ins = {}  # by consumer: the inputs it reads from the replica host
    for _, size, consumer in subwf.inputs:
        stage_ins.setdefault(consumer, []).append((0.0, host.site, host.bandwidth, host.latency, size))
    deps_into = {}
    for producer, consumer, size in subwf.data_deps:
        deps_into.setdefault(consumer, []).append((producer, size))
    rates = {} if rates is None else rates
    rng = random.Random(seed) if scheduler == "Random" else None

    avail = {}  # end of the last task on each resource
    done = {}  # (resource id, end) of each committed task
    by_id = sorted((rid, pool[rid].cpu_rate, pool[rid]) for rid in members)  # MinEFT's walk
    assignments = []
    for index, task_id in enumerate(order):
        task = tasks[task_id]
        # every member, in rank order; kept as a call, since bench/tracing.py counts calls through it
        eligible = catalogs.resources_with(task.transformation)
        work = task.work
        inputs = stage_ins.pop(task_id, [])  # then each producer's output, as it leaves
        producers_end = 0.0
        for producer, size in deps_into.get(task_id, ()):
            src, leaves = done[producer]  # committed: the order is topological
            r = pool[src]
            inputs.append((leaves, r.site, r.bandwidth, r.latency, size))
            if leaves > producers_end:
                producers_end = leaves
        if scheduler == "MinEFT":
            best = None
            for rid, cpu_rate, resource in by_id:
                avail_end = avail.get(rid, 0.0)
                if best is not None:
                    floor = avail_end
                    if floor < producers_end:
                        floor = producers_end
                    if floor + work / cpu_rate >= best[3]:
                        continue  # the end floor: this member cannot end strictly earlier
                ready, start, end = _finish_time(inputs, resource, avail_end, work, rates)
                if best is None or end < best[3]:
                    best = (rid, ready, start, end)
            rid, ready, start, end = best
        else:
            if scheduler == "RoundRobin":
                rid = eligible[index % len(eligible)]
            else:
                rid = eligible[rng.randrange(len(eligible))]
            ready, start, end = _finish_time(inputs, pool[rid], avail.get(rid, 0.0), work, rates)
        avail[rid] = end
        done[task_id] = (rid, end)
        assignments.append(TaskRecord(task_id, rid, work, ready, start, end))

    transfers = tuple(
        PlannedTransfer(file, replica_host, done[consumer][0], size, consumer)
        for file, size, consumer in subwf.inputs
        if done[consumer][0] != replica_host
    )
    makespan = max((r.end for r in assignments), default=0.0)
    return ConcretePlan(
        subworkflow_id=subwf.id,
        scheduler=scheduler,
        quorum_level=quorum.level,
        assignments=tuple(assignments),
        dependencies=tuple(subwf.data_deps),
        transfers=transfers,
        makespan_estimate=makespan,
    )


class SubWorkflowResult(NamedTuple):
    plan: ConcretePlan  # its assignments are the task records
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
                for r in self.plan.assignments
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


def execute_plan(plan: ConcretePlan, pool: dict[str, ResourceDescriptor]) -> SubWorkflowResult:
    """Execute a plan that ``map_workflow`` made by reading its records: the
    task records are the plan's assignments and the makespan is its makespan
    estimate, so execution reads no load and times no task again. The engine
    runs it after each mapping, the bench tracer spans it as
    ``gridengine.execute``, and acceptance criterion 4 checks its makespan
    against a scan simulation. A hand-built plan is not checked: its
    assignments must be the mapping recurrence's records, in plan order.
    ``pool`` gives the links that transfers cross.

    Transfer records list the plan's stage-ins, which start at time zero, and
    one transfer per dependency that crosses resources, which starts at its
    producer's end. They are sorted by (end, start, producer's plan position,
    dependency order), a stage-in counting as position -1 and its order
    being its place in ``plan.transfers``. That pair is unique, so the
    transfers sort as plain ``(end, start, position, order, file, src, dst,
    bytes)`` tuples, with no key function, and become records after sorting.
    """
    record = {r.task_id: (index, r.resource_id, r.end) for index, r in enumerate(plan.assignments)}
    transfers = []
    for i, t in enumerate(plan.transfers):
        src, dst, size = t.src_resource, t.dst_resource, t.size_bytes
        end = 0.0 + transfer_time(size, pool[src], pool[dst])  # as start + time, so a -0.0 time ends at 0.0
        transfers.append((end, 0.0, -1, i, t.file, src, dst, size))
    for i, (producer, consumer, size) in enumerate(plan.dependencies):
        position, src, leaves = record[producer]
        dst = record[consumer][1]
        if src != dst:
            end = leaves + transfer_time(size, pool[src], pool[dst])
            transfers.append((end, leaves, position, i, f"{producer}->{consumer}", src, dst, size))
    transfers.sort()
    records = tuple(TransferRecord(file, src, dst, size, start, end) for end, start, _, _, file, src, dst, size in transfers)
    return SubWorkflowResult(plan, records, plan.makespan_estimate)
