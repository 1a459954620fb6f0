"""Spans and counters for the traced benchmark run.

The tracer wraps the package's functions at the module attributes their
callers look them up by (``engine.extract_features`` is what the engine
calls), so the program runs unchanged. A span records name, start, end and
its parent; hot leaves (``metric_at``, ``exec_time``, ``resources_with``,
``topological_order``) only count calls. Spans stay in memory and are written
once, as Chrome trace-event JSON, when the run ends. Nothing is recorded
outside an op, so the benchmark's own checks never show up.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from hybridwms import documents, ecg, engine, experiments, gridengine, resources, simkernel

#: Span layers whose self time counts as grid-level work.
GRID_LAYERS = ("gridengine", "simkernel", "resources")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._signals: set[bytes] = set()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def op(self):
        """Root span of one op; recording is on only inside it."""
        self.active = True
        try:
            with self._span("op"):
                yield
        finally:
            self.active = False

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _spanned(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self._span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers: exact work counts taken from arguments and results -----

    def _saw_signal(self, args, result) -> None:
        signal = args[0]
        self._signals.add(hashlib.blake2b(signal.values.tobytes() + repr(signal.rate).encode()).digest())

    def _saw_synthesis(self, args, result) -> None:
        self.counts["ecg.samples_synthesized"] += len(result.values)

    def _saw_plan(self, args, result) -> None:
        self.counts["gridengine.tasks_mapped"] += len(result.assignments)

    def _saw_execution(self, args, result) -> None:
        self.counts["gridengine.estimate_match"] += result.plan.makespan_estimate == result.makespan

    def _saw_run(self, args, result) -> None:
        self.counts["engine.vhs_iterations"] += len(result.vhs.iterations) if result.vhs is not None else 0

    def _saw_text(self, args, result) -> None:
        self.counts["documents.record_bytes"] += len(result.encode("utf-8"))

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        spans = [
            (engine, "run_workflow", "engine.run", self._saw_run),
            (engine, "record_document", "engine.record_document", None),
            (documents, "dump_json", "documents.dump_json", self._saw_text),
            (engine, "decide_policy", "policy.decide", None),
            (engine, "enforce", "policy.enforce", None),
            (engine, "generate_arq", "resources.quorum", None),
            (engine, "random_quorum", "resources.quorum", None),
            (engine, "synthesize_ecg", "ecg.synthesize", self._saw_synthesis),
            (engine, "extract_features", "ecg.extract", self._saw_signal),
            (ecg, "detect_beats", "ecg.detect_beats", None),
            (ecg, "dominant_frequency", "ecg.dominant_frequency", None),
            (engine, "map_workflow", "gridengine.map", self._saw_plan),
            (engine, "execute_plan", "gridengine.execute", self._saw_execution),
            (experiments, "run_cost_study", "experiments.cost_study", None),
            (experiments, "average_cost_table", "resources.cost_table", None),
            (experiments, "generate_arq", "resources.quorum", None),
            (experiments, "quorum_grid_mean", "resources.quorum_mean", None),
        ]
        counters = [
            (gridengine.Catalogs, "resources_with", "gridengine.resources_with.calls"),
            (gridengine, "exec_time", "gridengine.exec_time.calls"),
            (gridengine, "topological_order", "workflow.topological_order.calls"),
            (simkernel, "exec_time", "simkernel.exec_time.calls"),
            (simkernel, "metric_at", "resources.metric_at.calls"),
            (resources, "metric_at", "resources.metric_at.calls"),
        ]
        for owner, attr, name, observe in spans:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr), observe))
        for owner, attr, name in counters:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times_ms(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time per span name (duration minus direct children's
        durations; children never overlap in one thread) and span counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_ns):
            totals[name] += (end - start - children) / 1e6
            calls[name] += 1
        return dict(totals), dict(calls)

    def layer_metrics(self, n_ops: int, time_scale: float = 1.0) -> dict[str, float]:
        """Per-op layer metrics: self times (multiplied by ``time_scale``),
        exact counts and waste ratios."""
        self_ms, calls = self.self_times_ms()
        self_ms = {name: value * time_scale for name, value in self_ms.items()}
        op_ms = time_scale * sum(end - start for name, start, end, parent in self.spans if parent < 0) / 1e6

        def per_op(value: float) -> float:
            return value / n_ops

        def share(prefixes) -> float:
            return sum(v for k, v in self_ms.items() if k.split(".")[0] in prefixes) / op_ms if op_ms else 0.0

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        metrics = {
            f"{name}_ms": per_op(self_ms.get(name, 0.0))
            for name in (
                "ecg.dominant_frequency",
                "ecg.extract",
                "ecg.detect_beats",
                "ecg.synthesize",
                "gridengine.map",
                "gridengine.execute",
                "resources.quorum",
                "resources.cost_table",
                "resources.quorum_mean",
                "engine.record_document",
                "documents.dump_json",
                "policy.decide",
                "policy.enforce",
            )
        }
        metrics["engine.self_ms"] = per_op(self_ms.get("engine.run", 0.0))
        metrics["ecg.extract.calls"] = per_op(calls.get("ecg.extract", 0))
        metrics["ecg.extract.distinct_frac"] = ratio(len(self._signals), calls.get("ecg.extract", 0))
        metrics["engine.dispatches"] = per_op(calls.get("gridengine.map", 0))
        metrics["gridengine.estimate_match_frac"] = ratio(
            self.counts["gridengine.estimate_match"], calls.get("gridengine.execute", 0)
        )
        for name in (
            "ecg.samples_synthesized",
            "gridengine.tasks_mapped",
            "gridengine.resources_with.calls",
            "gridengine.exec_time.calls",
            "simkernel.exec_time.calls",
            "resources.metric_at.calls",
            "workflow.topological_order.calls",
            "engine.vhs_iterations",
            "documents.record_bytes",
        ):
            metrics[name] = per_op(self.counts[name])
        metrics["op.traced_ms"] = per_op(op_ms)
        metrics["ecg.self_share"] = share(("ecg",))
        metrics["grid_layers.self_share"] = share(GRID_LAYERS)
        metrics["resources.self_share"] = share(("resources",))
        return metrics

    def write(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "counts": dict(self.counts)}), encoding="utf-8")
