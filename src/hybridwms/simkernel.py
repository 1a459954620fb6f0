"""Timing primitives, and the plan entries and execution records they time.

``effective_rate``, ``exec_time`` and ``transfer_time`` are the whole timing
model; ``effective_rate`` alone turns load into speed. The mapping recurrence
in ``gridengine`` times each task once, as it places it: resources run one
task at a time in plan order, and data moves as non-blocking transfers that
begin the moment the producer finishes (stage-ins at time zero). Its one
``TaskRecord`` per task is the plan's assignment, estimate and execution
record at once; executing the plan derives the ``TransferRecord`` entries
from them. Plan entries and records are named tuples: immutable, hashable,
and cheap to build by the thousand.
"""

from __future__ import annotations

from typing import NamedTuple

from .resources import ResourceDescriptor, metric_at


def effective_rate(resource: ResourceDescriptor, t: float) -> float:
    """Speed of a resource at time ``t``: nominal speed degraded by system load.

    A fully loaded system keeps 10% of nominal speed, so task durations stay
    finite for any load value. The load is clamped to [0, 1], so the rate never
    exceeds ``cpu_rate``, rounding included: a task of work ``w`` started at
    ``s >= f`` ends no earlier than ``f + w / cpu_rate``, which is the end
    floor that lets ``MinEFT`` skip members.
    """
    return resource.cpu_rate * (1.0 - 0.9 * metric_at(resource.sys_trace, t))


def exec_time(work: float, resource: ResourceDescriptor, t_start: float) -> float:
    """Task duration on a resource, at its effective speed when the task starts."""
    return work / effective_rate(resource, t_start)


def transfer_time(size_bytes: float, src: ResourceDescriptor, dst: ResourceDescriptor) -> float:
    """Wire time for moving a file; free inside a site."""
    if src.site == dst.site:
        return 0.0
    rate = min(src.bandwidth, dst.bandwidth)
    return size_bytes / rate + max(src.latency, dst.latency)


class PlannedTransfer(NamedTuple):
    """Stage-in of an existing replica to the resource of the task that reads
    it; such transfers start at time zero."""

    file: str
    src_resource: str
    dst_resource: str
    size_bytes: float
    consumer: str


class TaskRecord(NamedTuple):
    task_id: str
    resource_id: str
    work: float
    ready: float
    start: float
    end: float


class TransferRecord(NamedTuple):
    file: str
    src_resource: str
    dst_resource: str
    size_bytes: float
    start: float
    end: float

