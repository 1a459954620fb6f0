"""Output checks for benchmark ops.

Each check reads a run's serialised output and the benchmark's own copy of
the documents it generated, and re-derives what must hold from the model's
published rules (single-slot resources, transfers between sites cost
``bytes / min(bandwidth) + max(latency)``, the run clock is the sum of its
dispatches, a load trace is a clamped sinusoid plus hashed Gaussian noise).
None of them calls the code it checks.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct


def _before(a: float, b: float) -> bool:
    """``a < b`` beyond floating-point noise."""
    return a < b - 1e-9 * max(1.0, abs(b))


def wire_time(size: float, src: dict, dst: dict) -> float:
    if src["site"] == dst["site"]:
        return 0.0
    return size / min(src["bandwidth"], dst["bandwidth"]) + max(src["latency"], dst["latency"])


def check_record(doc: dict, pool: dict, subworkflows: dict) -> list[str]:
    """Problems in one run record document.

    ``pool`` maps resource id to its site, bandwidth and latency;
    ``subworkflows`` maps sub-workflow id to its generated document.
    """
    problems = []
    host = doc["quorum"]["members"][0]
    clock = 0.0
    for d in doc["dispatches"]:
        where = f"dispatch {d['index']}"
        clock += d["makespan"]
        sub = subworkflows[d["subworkflow"]]
        tasks = {t["task"]: t for t in d["result"]["tasks"]}
        if sorted(tasks) != sorted(t["id"] for t in sub["tasks"]):
            problems.append(f"{where}: executed tasks differ from the sub-workflow's")
            continue
        for producer, consumer, size in sub["data_deps"]:
            p, c = tasks[producer], tasks[consumer]
            earliest = p["end"] + wire_time(size, pool[p["resource"]], pool[c["resource"]])
            if _before(c["start"], earliest):
                problems.append(f"{where}: {consumer} starts at {c['start']} before {producer}'s data at {earliest}")
        for item in sub["inputs"]:
            c = tasks[item["consumer"]]
            earliest = wire_time(item["bytes"], pool[host], pool[c["resource"]]) if c["resource"] != host else 0.0
            if _before(c["start"], earliest):
                problems.append(f"{where}: {item['consumer']} starts at {c['start']} before its input at {earliest}")
        by_resource: dict[str, list] = {}
        for t in tasks.values():
            if _before(t["end"], t["start"]) or _before(t["start"], 0.0):
                problems.append(f"{where}: {t['task']} has interval [{t['start']}, {t['end']}]")
            by_resource.setdefault(t["resource"], []).append((t["start"], t["end"], t["task"]))
        for rid, intervals in by_resource.items():
            intervals.sort()
            for (_, prev_end, prev), (start, _, task) in zip(intervals, intervals[1:]):
                if _before(start, prev_end):
                    problems.append(f"{where}: {task} overlaps {prev} on {rid}")
    if abs(doc["completion_time"] - clock) > 1e-9 * max(1.0, clock):
        problems.append(f"completion_time {doc['completion_time']} != sum of dispatch makespans {clock}")
    return problems


def summary_csv(rows: list[tuple[str, float]]) -> str:
    """Per-configuration mean / pstdev / min / max of (config, completion) rows,
    in the study's summary format."""
    lines = ["config,mean,stddev,min,max"]
    for name in sorted({config for config, _ in rows}):
        values = [value for config, value in rows if config == name]
        mean, spread = statistics.fmean(values), statistics.pstdev(values)
        lines.append(f"{name},{mean:.6f},{spread:.6f},{min(values):.6f},{max(values):.6f}")
    return "\n".join(lines) + "\n"


def load(trace: dict, t: float) -> float:
    """A load trace at time t: base + amplitude * sin(2 pi t / period + phase)
    plus noise_sigma times a standard normal hashed from (seed, t in ms),
    clamped to [0, 1]."""
    value = trace["base"] + trace["amplitude"] * math.sin(2.0 * math.pi * t / trace["period"] + trace["phase"])
    if trace["noise_sigma"] > 0:
        raw = struct.pack("<Qq", trace["seed"] & 0xFFFFFFFFFFFFFFFF, round(t * 1000))
        a, b = struct.unpack("<QQ", hashlib.blake2b(raw, digest_size=16).digest())
        normal = math.sqrt(-2.0 * math.log((a + 1) / 2.0**64)) * math.cos(2.0 * math.pi * b / 2.0**64)
        value += normal * trace["noise_sigma"]
    return min(1.0, max(0.0, value))


def check_cost_study(
    table_csv: str,
    quorum_csv: str,
    level_means,
    pool: list[dict],
    quorums: dict[str, tuple[str, ...]],
    weights: tuple[float, float],
    horizon: int = 24,
    samples_per_hour: int = 60,
) -> list[str]:
    """Problems in one allocation-cost study of the generated ``pool``.

    ``quorums`` holds the L1, L2 and L3 quorum members; ``weights`` is
    (alpha, beta). Hour 0 of the table is recomputed from the traces.
    """
    alpha, beta = weights
    cost_max = alpha + beta
    pool_ids = [r["id"] for r in pool]
    problems = []
    l1, l2, l3 = (quorums[level] for level in ("L1", "L2", "L3"))
    if not (set(l1) <= set(l2) <= set(l3)) or sorted(l3) != sorted(pool_ids):
        problems.append("quorums are not nested L1 within L2 within L3 = pool")

    def in_range(value: float) -> bool:
        return 0.0 <= value <= cost_max

    header, *rows = table_csv.splitlines()
    columns = header.split(",")
    expected = list(l3[: min(6, len(pool_ids))])
    if columns != ["hour"] + expected:
        problems.append(f"cost table columns {columns[1:]} are not the six best-ranked resources {expected}")
    if len(rows) != horizon:
        problems.append(f"cost table has {len(rows)} rows, expected {horizon}")
    for hour, row in enumerate(rows):
        cells = row.split(",")
        if cells[0] != str(hour) or len(cells) != len(columns):
            problems.append(f"cost table row {hour} is malformed")
        elif not all(in_range(float(v)) for v in cells[1:]):
            problems.append(f"cost table row {hour} has a cell outside [0, {cost_max}]")
    by_id = {r["id"]: r for r in pool}
    instants = [k * 3600.0 / samples_per_hour for k in range(samples_per_hour)]
    for rid, cell in zip(columns[1:], rows[0].split(",")[1:] if rows else []):
        r = by_id.get(rid)
        if r is None:
            continue
        costs = [alpha * load(r["net_trace"], t) + beta * load(r["sys_trace"], t) for t in instants]
        if abs(float(cell) - sum(costs) / len(costs)) > 1e-6:
            problems.append(f"hour 0 cost of {rid} is {cell}, traces give {sum(costs) / len(costs):.6f}")

    lines = quorum_csv.splitlines()
    if lines[0] != "level,mean_ac" or [line.split(",")[0] for line in lines[1:]] != ["L1", "L2", "L3"]:
        problems.append("quorum table is malformed")
    for (level, mean), line in zip(level_means, lines[1:]):
        if not in_range(mean) or line != f"{level},{mean:.6f}":
            problems.append(f"quorum mean for {level} is {mean}, table says {line!r}")
    return problems
