"""Simulated grid resource pool: time-varying load metrics, allocation cost,
ranking, and resource quorum generation.

Every metric evaluation is a pure function of (trace fields, t); noise is
counter-based (hash of seed and quantized t), so evaluation order can never
change a result. The cost study evaluates each resource's cost once per
instant of its hour grid (``cost_grid``, a float64 array per resource); the
hourly table and the quorum means are reductions over that grid, each one
``np.add.accumulate`` that adds the costs one after another in a fixed order.
That is builtin ``sum`` up to Python 3.11, bit for bit; from 3.12 ``sum``
compensates, and its bits would depend on the Python.
``cost_grid`` evaluates each trace over all instants in one batch that is bit
for bit ``metric_at`` at every instant: the instants' angles and packed noise
ticks are computed once per grid, one ``blake2b`` primed with the trace's seed
is copied per tick, ``log`` stays on libm through ``math``, ``sin`` and ``cos``
are the parts of numpy's complex ``exp`` of ``0 + i·angle``, which has no SIMD
loop and calls libm through the C library's ``cexp``, and otherwise numpy does
only the steps IEEE 754 rounds exactly (``+ - * /``, ``sqrt``, uint64 to float,
and the clamp), so no step depends on the CPU. ``metric_at`` stays the scalar
definition that ranking and the grid engine call; numpy is imported only by the grid.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from itertools import starmap
from typing import NamedTuple

from . import documents as doc
from .errors import EmptyPool

LEVELS = ("L1", "L2", "L3")
_LEVEL_FRACTION = {"L1": 0.25, "L2": 0.5, "L3": 1.0}

#: Sentinel level for policy-driven random selection: a quorum of the same
#: size as L1 whose members are drawn uniformly instead of by cost rank.
RANDOM_LEVEL = "RANDOM"

_NOISE_TICKS_PER_SECOND = 1000  # noise value is constant within 1 ms
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWOPI = 2.0 * math.pi


def _unit_normal(seed: int, t: float) -> float:
    """Deterministic standard normal derived from (seed, quantized t); both
    enter as 64-bit two's complement, so any int seed and finite t work."""
    tick = round(t * _NOISE_TICKS_PER_SECOND)
    raw = struct.pack("<QQ", seed & 0xFFFFFFFFFFFFFFFF, tick & 0xFFFFFFFFFFFFFFFF)
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    a, b = struct.unpack("<QQ", digest)
    u1 = (a + 1) / 2.0**64  # (0, 1], keeps log finite
    u2 = b / 2.0**64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class MetricTrace:
    base: float
    amplitude: float = 0.0
    period: float = 3600.0
    phase: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.base <= 1.0:
            raise ValueError("base must be in [0, 1]")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if not self.period >= 1e-3:
            raise ValueError("period must be >= 0.001")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        isfinite = math.isfinite  # after the range checks: a value that fails one keeps its message
        if not (isfinite(self.amplitude) and isfinite(self.period) and isfinite(self.phase) and isfinite(self.noise_sigma)):
            name = next(name for name in ("amplitude", "period", "phase", "noise_sigma") if not isfinite(getattr(self, name)))
            raise ValueError(f"{name} must be finite")


def metric_at(trace: MetricTrace, t: float) -> float:
    """Evaluate a load trace at time t, clamped to [0, 1]."""
    value = trace.base + trace.amplitude * math.sin(2.0 * math.pi * t / trace.period + trace.phase)
    if trace.noise_sigma > 0:
        value += _unit_normal(trace.seed, t) * trace.noise_sigma
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class AllocationCostParams:
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights must be >= 0")
        if self.alpha + self.beta <= 0:
            raise ValueError("alpha + beta must be > 0")


@dataclass(frozen=True)
class ResourceDescriptor:
    id: str
    site: str
    cpu_rate: float  # work units per second
    net_trace: MetricTrace
    sys_trace: MetricTrace
    bandwidth: float  # bytes per second
    latency: float  # seconds

    def __post_init__(self):
        # With the sub-workflow bounds on work (1e12) and bytes (1e15), these keep
        # every simulated duration below about 1e18 s: clocks and trace phases stay finite.
        if not self.cpu_rate >= 1e-3:
            raise ValueError("cpu_rate must be >= 0.001")
        if not self.bandwidth >= 1e-3:
            raise ValueError("bandwidth must be >= 0.001")
        if not 0 <= self.latency <= 1e6:
            raise ValueError("latency must be in [0, 1e6]")


def allocation_cost(res: ResourceDescriptor, t: float, params: AllocationCostParams) -> float:
    """Weighted sum of the network and system load indicators at time t."""
    return params.alpha * metric_at(res.net_trace, t) + params.beta * metric_at(res.sys_trace, t)


def grid_load(pool, t: float) -> float:
    """Mean system load of the pool at time t, summed in pool order."""
    if not pool:
        raise EmptyPool("an empty pool has no load")
    total = 0.0
    for res in pool:
        total += metric_at(res.sys_trace, t)
    return total / len(pool)


def rank_resources(pool, t: float, params: AllocationCostParams) -> list[tuple[str, float]]:
    """Rank the pool ascending by allocation cost (lower cost performs better);
    ties break by ascending resource id."""
    if not pool:
        raise EmptyPool("cannot rank an empty pool")
    costs = [(res.id, allocation_cost(res, t, params)) for res in pool]
    return sorted(costs, key=lambda pair: (pair[1], pair[0]))


class Quorum(NamedTuple):
    level: str
    members: tuple[str, ...]  # ascending allocation cost at the instant it was formed


def quorum_size(n: int, fraction: float) -> int:
    if fraction >= 1.0:
        return n
    return min(n, max(math.ceil(fraction * n), 2))


def generate_arq(pool, level: str, t: float, params: AllocationCostParams) -> Quorum:
    """Generate the available resource quorum for a resource level.

    L1 holds the top ceil(25%) of the ranking, L2 the top ceil(50%), L3 the
    whole pool; L1 and L2 never shrink below two members when the pool has at
    least two. Higher levels therefore contain every lower level.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown resource level {level!r}")
    ranking = rank_resources(pool, t, params)
    size = quorum_size(len(ranking), _LEVEL_FRACTION[level])
    return Quorum(level, tuple(rid for rid, _ in ranking[:size]))


def random_quorum(pool, t: float, params: AllocationCostParams, seed: int) -> Quorum:
    """Quorum of L1 size whose members are drawn uniformly, not by rank.

    Models resource selection without a resource policy. Members are still
    listed ascending by cost so downstream consumers see the usual ordering.
    """
    size = quorum_size(len(pool), _LEVEL_FRACTION["L1"])
    rng = random.Random(seed)
    chosen = set(rng.sample([res.id for res in pool], size))
    ranked = [rid for rid, _ in rank_resources(pool, t, params) if rid in chosen]
    return Quorum(RANDOM_LEVEL, tuple(ranked))


class CostTable(NamedTuple):
    resource_ids: tuple[str, ...]  # rank order at t=0
    rows: tuple[tuple[float, ...], ...]  # one row per hour


def hour_instants(hour: int, samples_per_hour: int) -> list[float]:
    step = 3600.0 / samples_per_hour
    return [hour * 3600.0 + k * step for k in range(samples_per_hour)]


def cost_grid(pool, horizon: int, samples_per_hour: int, params: AllocationCostParams) -> dict[str, np.ndarray]:
    """Each resource's allocation cost at every instant of hours 0..horizon-1,
    hour-major, as a float64 array."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1 hour")
    if samples_per_hour < 1:
        raise ValueError("samples_per_hour must be >= 1")
    import numpy as np  # here, not at module top: ranking and validate use this module without numpy

    instants = [t for hour in range(horizon) for t in hour_instants(hour, samples_per_hour)]
    angles = _TWOPI * np.array(instants)  # 2.0 * math.pi * t, as metric_at computes it
    ticks = [struct.pack("<Q", round(t * _NOISE_TICKS_PER_SECOND) & _MASK64) for t in instants]
    alpha, beta = float(params.alpha), float(params.beta)
    return {
        res.id: alpha * _metric_batch(res.net_trace, angles, ticks) + beta * _metric_batch(res.sys_trace, angles, ticks)
        for res in pool
    }


def _metric_batch(trace: MetricTrace, angles, ticks: list[bytes]):
    """``[metric_at(trace, t) for t in instants]`` bit for bit, as a float64
    array, from the instants' angles ``2.0 * math.pi * t`` and packed noise ticks.
    Each ``math.sin(x)`` is ``.imag`` of numpy's complex ``exp`` of ``0 + i·x``."""
    import numpy as np

    x = np.zeros(len(angles), complex)
    x.imag = angles / float(trace.period) + float(trace.phase)
    value = float(trace.base) + float(trace.amplitude) * np.exp(x).imag
    if trace.noise_sigma > 0:
        value = value + _unit_normals(trace.seed, ticks) * float(trace.noise_sigma)
    value = np.where(value > 0.0, value, 0.0)  # max(0.0, value): 0.0 unless value > 0.0
    return np.where(value < 1.0, value, 1.0)  # min(1.0, value): 1.0 unless value < 1.0


def _unit_normals(seed: int, ticks: list[bytes]):
    """``_unit_normal(seed, t)`` at every packed tick: ``blake2b(seed || tick)``
    is the seed-primed hash, copied and fed the tick. Each ``math.cos(x)`` is
    ``.real`` of numpy's complex ``exp`` of ``0 + i·x``; ``starmap`` over ``zip``'s
    reused 1-tuples calls ``math.log`` without building an argument tuple per call."""
    import numpy as np

    primed = hashlib.blake2b(struct.pack("<Q", seed & _MASK64), digest_size=16)
    digests = []
    for tick in ticks:
        h = primed.copy()
        h.update(tick)
        digests.append(h.digest())
    words = np.frombuffer(b"".join(digests), dtype="<u8")
    n = len(ticks)
    log_u1 = np.fromiter(starmap(math.log, zip(_u1(words[0::2]).tolist())), float, n)
    angle = np.zeros(n, complex)
    angle.imag = _TWOPI * (words[1::2].astype(np.float64) / 2.0**64)
    return np.sqrt(-2.0 * log_u1) * np.exp(angle).real


def _u1(a):
    """``(a + 1) / 2.0**64`` for a uint64 array, as Python computes it on ints.

    The ``+ 1`` is done in uint64, so each value is rounded to float once
    (``float(a) + 1`` rounds twice above 2**53). It wraps only at
    ``a = 2**64 - 1``, where Python's ``a + 1`` is ``2**64``.
    """
    import numpy as np

    succ = a + np.uint64(1)
    return np.where(succ == np.uint64(0), 2.0**64, succ.astype(np.float64)) / 2.0**64


def average_cost_table(grid: dict[str, np.ndarray], resource_ids, samples_per_hour: int) -> CostTable:
    """Mean allocation cost per hour of each listed resource, from its grid costs.

    An hour's costs are added one after another in time order, by one
    ``np.add.accumulate`` over a copy of the listed rows, in place.
    """
    import numpy as np

    sums = np.array([grid[rid] for rid in resource_ids]).reshape(len(resource_ids), -1, samples_per_hour)
    np.add.accumulate(sums, axis=2, out=sums)
    rows = (sums[:, :, -1].T / samples_per_hour).tolist()  # hour-major
    return CostTable(tuple(resource_ids), tuple(map(tuple, rows)))


def cost_table_csv(table: CostTable) -> str:
    return doc.csv_text(("hour", *table.resource_ids), ((hour, *row) for hour, row in enumerate(table.rows)))


def quorum_grid_mean(grid: dict[str, np.ndarray], quorum: Quorum) -> float:
    """Mean allocation cost of a quorum's members over the full cost grid.

    The costs are added one after another, instant-major with members in
    quorum order, by one ``np.add.accumulate`` over a copy, in place.
    """
    import numpy as np

    costs = np.column_stack([grid[rid] for rid in quorum.members]).ravel()  # instant-major
    np.add.accumulate(costs, out=costs)
    return float(costs[-1]) / len(costs)


_TRACE_KEYS = frozenset(MetricTrace.__dataclass_fields__)
_RESOURCE_KEYS = frozenset(ResourceDescriptor.__dataclass_fields__)


def parse_trace(record: dict, key: str, resource_path: str) -> MetricTrace:
    """The load trace a resource record holds at ``key``: ``base`` is required
    and checked first, then the other keys in the order listed, ``seed`` an
    integer and the rest numbers; ``MetricTrace`` holds the value of each key left out."""
    path = f"{resource_path}.{key}"
    raw = doc.require_mapping(doc.get_required(record, key, resource_path), path)
    doc.reject_unknown(raw, _TRACE_KEYS, path)
    fields = {"base": doc.get_number(raw, "base", path)}
    for name in raw:
        if name == "seed":
            fields[name] = doc.get_int(raw, name, path)
        elif name != "base":
            fields[name] = doc.get_number(raw, name, path)
    try:
        return MetricTrace(**fields)
    except ValueError as exc:
        raise doc.SchemaError(path, str(exc)) from exc


def parse_pool(document) -> list[ResourceDescriptor]:
    """Parse a resource pool document (JSON array of resource records)."""
    raw_pool = doc.require_list(document, "pool")
    if not raw_pool:
        raise doc.SchemaError("pool", "must list at least one resource")
    pool = []
    seen = set()
    for i, raw in enumerate(raw_pool):
        path = f"pool[{i}]"
        record = doc.require_mapping(raw, path)
        doc.reject_unknown(record, _RESOURCE_KEYS, path)
        rid = doc.get_name(record, "id", path)
        if rid in seen:
            raise doc.SchemaError(f"{path}.id", f"duplicate resource id {rid!r}")
        seen.add(rid)
        try:
            pool.append(
                ResourceDescriptor(
                    id=rid,
                    site=doc.get_str(record, "site", path),
                    cpu_rate=doc.get_number(record, "cpu_rate", path),
                    net_trace=parse_trace(record, "net_trace", path),
                    sys_trace=parse_trace(record, "sys_trace", path),
                    bandwidth=doc.get_number(record, "bandwidth", path),
                    latency=doc.get_number(record, "latency", path),
                )
            )
        except ValueError as exc:
            raise doc.SchemaError(path, str(exc)) from exc
    return pool
