"""Timing primitives and the records of plan execution.

``exec_time`` and ``transfer_time`` are the whole timing model. Plans are
executed by the one-pass recurrence in ``gridengine``, which also produces
the mapping estimates: resources run one task at a time in plan order, and
data moves as non-blocking transfers that begin the moment the producer
finishes (stage-ins at time zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from .resources import ResourceDescriptor, metric_at


def exec_time(work: float, resource: ResourceDescriptor, t_start: float) -> float:
    """Task duration on a resource whose effective speed degrades with load.

    A fully loaded system keeps 10% of nominal speed, so the duration stays
    finite for any load value.
    """
    load = metric_at(resource.sys_trace, t_start)
    return work / (resource.cpu_rate * (1.0 - 0.9 * load))


def transfer_time(size_bytes: float, src: ResourceDescriptor, dst: ResourceDescriptor) -> float:
    """Wire time for moving a file; free inside a site."""
    if src.site == dst.site:
        return 0.0
    rate = min(src.bandwidth, dst.bandwidth)
    return size_bytes / rate + max(src.latency, dst.latency)


@dataclass(frozen=True)
class PlannedTask:
    """One plan entry: a task pinned to a resource."""

    task_id: str
    work: float
    resource_id: str


@dataclass(frozen=True)
class PlannedTransfer:
    """Stage-in of an existing replica to the resource of the task that reads
    it; such transfers start at time zero."""

    file: str
    src_resource: str
    dst_resource: str
    size_bytes: float
    consumer: str


@dataclass(frozen=True)
class TaskRecord:
    task_id: str
    resource_id: str
    ready: float
    start: float
    end: float


@dataclass(frozen=True)
class TransferRecord:
    file: str
    src_resource: str
    dst_resource: str
    size_bytes: float
    start: float
    end: float


@dataclass(frozen=True)
class SimResult:
    tasks: tuple[TaskRecord, ...]  # plan order
    transfers: tuple[TransferRecord, ...]  # by (end, start, producer plan position, dependency order)
    makespan: float

    def task(self, task_id: str) -> TaskRecord:
        for record in self.tasks:
            if record.task_id == task_id:
                return record
        raise KeyError(task_id)
