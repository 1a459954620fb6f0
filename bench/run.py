"""hybridwms benchmark: one workload, one seed, a closed loop in one process.

Usage, from the repository root:

    python3 bench/run.py --workload {study,patients,grid,cost_table} \
        --seed N --seconds S --trace {0,1}

The benchmark writes the workload's documents for the seed, then runs ops
back to back (the next starts only after the previous one completed) for S
seconds of op time, checks every output, and times set-up in fresh
interpreters started between ops. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs every op twice, untraced and with per-layer
spans, in alternating order, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object; the
exit code is 0 only if every check passed, 2 if set-up failed.

Metric names and units come from BENCHMARK.json at the repository root.
"""

import os

# Pin BLAS before numpy loads, here and in the set-up probes this process starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("study", "patients", "grid", "cost_table")
SETUP_PROBES = 7
#: Stop measuring after this much wall time whatever the op count, so a
#: run ends within three minutes even on a much slower program.
WALL_CAP_S = 120.0


@dataclass
class Phase:
    """Outcome of running a list of ops."""

    latencies: list = field(default_factory=list)  # seconds, passed ops only
    refs: list = field(default_factory=list)  # reference kernel ms (before, after) each passed op
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    exhausted: bool = False
    results: list = field(default_factory=list)  # (op, fact) per passed op
    digest: object = field(default_factory=hashlib.sha256)


def execute(phase: Phase, workload, op, tracer=None) -> None:
    """Run one op, timing only the op itself, then check its output."""
    phase.attempted += 1
    ref = speed.reference_ms(workload.speed_reference)
    scope = tracer.op() if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            output = op.run()
    except Exception:
        phase.failed += 1
        print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return
    elapsed = time.perf_counter() - t0
    ref_after = speed.reference_ms(workload.speed_reference)
    phase.busy_s += elapsed
    text, problems, fact = workload.check(op, output)
    phase.digest.update(text.encode("utf-8"))
    if problems:
        phase.failed += 1
        print(f"op {op.label} failed its check: {problems[:3]}", file=sys.stderr)
        return
    phase.latencies.append(elapsed)
    phase.refs.append((ref, ref_after))
    phase.results.append((op, fact))


def run_ops(workload, ops, budget_s=None, tracer=None, after_op=None) -> tuple[Phase, Phase]:
    """Run ops in order until ``budget_s`` seconds of op time have passed, at
    least ``workload.min_ops`` ran and the last block is whole; or run every op
    when budget is None.

    With a tracer, every op runs twice, untraced and traced, in alternating
    order, so both runs see the same inputs and the same machine speed.
    ``after_op(busy_s)`` runs between ops, outside the timed part.
    Returns the untraced and the traced phase (empty without a tracer).
    """
    plain, traced = Phase(), Phase()
    started = time.perf_counter()
    for k, op in enumerate(ops):
        busy = plain.busy_s + traced.busy_s
        whole = plain.attempted >= workload.min_ops and plain.attempted % workload.block == 0
        if budget_s is not None and busy >= budget_s and whole:
            break
        if time.perf_counter() - started > WALL_CAP_S:
            break
        if tracer is None:
            execute(plain, workload, op)
        else:
            runs = [(plain, None), (traced, tracer)]
            for phase, scope in runs if k % 2 == 0 else reversed(runs):
                execute(phase, workload, op, scope)
        if after_op is not None:
            after_op(plain.busy_s + traced.busy_s)
    else:
        plain.exhausted = budget_s is not None
    return plain, traced


def tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class SetupProbes:
    """Set-up time in fresh interpreters: import hybridwms, parse the
    workload's documents (``setup_probe.py``).

    The probes are spread over the measured phase, between ops and outside
    their timing, so their median sees the same machine as the run's ops and
    can be rescaled by the run's mean reference time. A probe is too short
    and too far from its process's caches for the per-op rescaling: the
    reference samples around one tracked its speed worse than the run's mean.
    """

    def __init__(self, workload: str, work: Path, budget_s: float):
        self.workload, self.work, self.budget_s = workload, work, budget_s
        self.samples: list[dict] = []

    def run(self) -> None:
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), self.workload, str(self.work)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        self.samples.append(json.loads(done.stdout.splitlines()[-1]))

    def due(self, busy_s: float) -> None:
        """Run the next probe once its share of the op-time budget has passed."""
        if len(self.samples) < SETUP_PROBES and busy_s >= len(self.samples) * self.budget_s / SETUP_PROBES:
            self.run()

    def summary(self, scale: float) -> dict:
        """Medians over the probes, multiplied by ``scale``."""
        while len(self.samples) < SETUP_PROBES:
            self.run()
        samples = self.samples
        return {
            "setup_s": scale * statistics.median(s["import_s"] + s["parse_s"] for s in samples),
            "setup.import_s": scale * statistics.median(s["import_s"] for s in samples),
            "setup.parse_ms": 1e3 * scale * statistics.median(s["parse_s"] for s in samples),
            "raw_setup_s": statistics.median(s["import_s"] + s["parse_s"] for s in samples),
        }


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def repo_info() -> dict:
    """Informational, ungated: src/ line count and tier-1 test count (test
    functions, counted statically)."""
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    tests = sum(
        line.lstrip().startswith("def test_")
        for p in (ROOT / "tests").glob("test_*.py")
        for line in p.read_text(encoding="utf-8").splitlines()
    )
    return {"src_lines": src_lines, "tier1_tests": tests}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hybridwms
    except ImportError as exc:
        print(f"error: cannot import hybridwms from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(hybridwms.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: hybridwms resolved to {hybridwms.__file__}, not this checkout's src/", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "hybridwms" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, work)
    except (OSError, ValueError, hybridwms.WmsError, subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    """Set up, measure and check one workload; print the result."""
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads.generate(args.workload, args.seed, work)
    workload = workloads.build(args.workload, args.seed, work, workloads.parse(args.workload, work))
    probes = SetupProbes(args.workload, work, args.seconds)

    # Set-up objects live for the whole run; keep them out of the collector's
    # way so collections cost what they would in a single run.
    gc.collect()
    gc.freeze()
    warm, _ = run_ops(workload, workload.warmup)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        measured, traced = run_ops(workload, workload.ops, args.seconds, tracer, probes.due)
    finally:
        if tracer is not None:
            tracer.uninstall()
    refs = [r for phase in (measured, traced) for pair in phase.refs for r in pair]
    setup = probes.summary(speed.run_scale(refs, workload.speed_reference) if refs else 1.0)
    problems = workload.final_check(measured.results)
    attempted = warm.attempted + measured.attempted + traced.attempted
    failed = warm.failed + measured.failed + traced.failed
    n = len(measured.latencies)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_info()}
    info.update(repo_info())
    info.update(
        ops=n,
        measured_op_s=measured.busy_s,
        speed_reference=workload.speed_reference,
        reference_ms_mean=statistics.fmean(refs) if refs else 0.0,
        raw_setup_s=setup["raw_setup_s"],
        inputs_exhausted=measured.exhausted,
        record_digest=measured.digest.hexdigest(),
        failed_frac=failed / attempted if attempted else 0.0,
    )

    if tracer is None:
        latencies = speed.normalise(measured.latencies, measured.refs, workload.speed_reference)
        values = {
            "ops_per_s": n / sum(latencies) if n else 0.0,
            "op_ms_p50": 1e3 * statistics.median(latencies) if n else 0.0,
            "op_ms_tail": 1e3 * tail(latencies)[0] if n else 0.0,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update(
            op_ms_tail_percentile=tail(measured.latencies)[1] if n else 0.0,
            op_ms_tail_samples=n,
            raw_ops_per_s=n / sum(measured.latencies) if n else 0.0,
            raw_op_ms_p50=1e3 * statistics.median(measured.latencies) if n else 0.0,
            raw_op_ms_tail=1e3 * tail(measured.latencies)[0] if n else 0.0,
        )
        wanted = spec["end_to_end"]
    else:
        tracer.write(ROOT / ".bench_build" / "hybridwms" / f"trace-{args.workload}-{args.seed}.json")
        if traced.digest.hexdigest() != measured.digest.hexdigest():
            problems.append("traced run produced a different record digest than the untraced run")
        normalised = sum(speed.normalise(traced.latencies, traced.refs, workload.speed_reference))
        untraced = sum(speed.normalise(measured.latencies, measured.refs, workload.speed_reference))
        scale = normalised / sum(traced.latencies) if traced.latencies else 1.0
        values = tracer.layer_metrics(max(1, traced.attempted), scale)
        values.update(setup)
        values["trace.overhead_frac"] = normalised / untraced - 1.0 if untraced else 0.0
        info.update(traced_op_s=traced.busy_s, spans=len(tracer.spans), time_scale=scale)
        wanted = spec["per_layer"]

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this benchmark does not compute: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    correct = failed == 0 and not problems and n > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
