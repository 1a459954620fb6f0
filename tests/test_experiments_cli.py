"""Experiment harness and command-line tests."""

import errno
import hashlib
import importlib.resources
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridwms import cli, engine, experiments
from hybridwms.cli import main
from hybridwms.documents import load_json
from hybridwms.errors import NoMatchingPolicy, RunError, SchemaError, WmsError
from hybridwms.experiments import (
    ComparisonRow,
    ExperimentSpec,
    comparison_csv,
    load_workflow_bundle,
    parse_experiment_spec,
    run_cost_study,
    run_policy_comparison,
    summary_csv,
)
from hybridwms.policy import parse_repository
from hybridwms.resources import AllocationCostParams, MetricTrace, ResourceDescriptor, parse_pool
from hybridwms.runconfig import parse_run_config

GOLDEN = Path(__file__).resolve().parent / "golden"


def data_path(rel):
    return importlib.resources.files("hybridwms") / "data" / rel


def load_defaults():
    bundle = load_workflow_bundle(data_path("workflows/heart-disease.json"))
    pool = parse_pool(load_json(data_path("pool.json")))
    repo = parse_repository(load_json(data_path("policies.json")))
    config = parse_run_config(load_json(data_path("run_config.json")))
    return bundle, pool, repo, config


def comparison_spec(replicates=2):
    document = load_json(data_path("comparison.json"))
    document["replicates"] = replicates
    return parse_experiment_spec(document)


# -- bundles -----------------------------------------------------------------


def test_bundle_loads_sibling_subworkflows():
    bundle = load_workflow_bundle(data_path("workflows/heart-disease.json"))
    assert set(bundle.subworkflows) == {"ecg-analysis", "vhs-simulation"}
    assert bundle.graph.id == "heart-disease"


def test_bundle_missing_subworkflow_file(tmp_path):
    doc = load_json(data_path("workflows/heart-disease.json"))
    (tmp_path / "wf.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load_workflow_bundle(tmp_path / "wf.json")
    assert "ecg-analysis.json" in str(err.value)


# -- experiment specs ----------------------------------------------------------


def two_config_spec(**fields) -> dict:
    """The smallest valid policy-comparison document, plus ``fields``."""
    configs = [
        {"name": "a", "sla": {"user_id": "u", "soft_label": "Balanced"}},
        {"name": "b", "sla": {"user_id": "u", "soft_label": "Low Cost"}},
    ]
    return {"kind": "policy_comparison", "configs": configs, **fields}


def test_parse_experiment_spec_defaults():
    spec = parse_experiment_spec(two_config_spec())
    assert (spec.replicates, spec.base_seed) == (1, 0)


def test_parse_experiment_spec_comparison():
    spec = comparison_spec(replicates=20)
    assert spec.replicates == 20
    assert [c.name for c in spec.configs] == ["SET-A", "SET-B", "SET-C"]
    assert spec.configs[1].extra_policies[0].id == "RP-RND"


@pytest.mark.parametrize(
    "replicates, n_configs, message",
    [(0, 2, "replicates must be >= 1"), (1, 1, "policy comparison needs at least two configurations")],
)
def test_a_spec_raises_a_schema_error_at_experiment_in_code_as_in_its_document(replicates, n_configs, message):
    document = two_config_spec(replicates=replicates)
    document["configs"] = document["configs"][:n_configs]
    configs = parse_experiment_spec(two_config_spec()).configs[:n_configs]
    for build in (lambda: parse_experiment_spec(document), lambda: ExperimentSpec(replicates, 0, configs)):
        with pytest.raises(SchemaError) as err:
            build()
        assert (err.value.path, err.value.message) == ("experiment", message)


def test_parse_experiment_spec_rejections():
    with pytest.raises(SchemaError):
        parse_experiment_spec({"kind": "mystery"})
    with pytest.raises(SchemaError):
        parse_experiment_spec(two_config_spec(extra=1))
    with pytest.raises(SchemaError):
        parse_experiment_spec(two_config_spec(replicates=0))
    with pytest.raises(SchemaError):
        parse_experiment_spec(
            {
                "kind": "policy_comparison",
                "configs": [{"name": "only", "sla": {"user_id": "u", "soft_label": "Balanced"}}],
            }
        )
    with pytest.raises(SchemaError):
        parse_experiment_spec(
            {
                "kind": "policy_comparison",
                "configs": [
                    {"name": "dup", "sla": {"user_id": "u", "soft_label": "Balanced"}},
                    {"name": "dup", "sla": {"user_id": "u", "soft_label": "Low Cost"}},
                ],
            }
        )


def test_parse_experiment_spec_accepts_only_policy_comparisons():
    # The cost study reads only the pool, so no spec can describe one.
    with pytest.raises(SchemaError) as err:
        parse_experiment_spec(two_config_spec(kind="cost_table"))
    assert err.value.path == "experiment.kind"
    with pytest.raises(SchemaError) as err:
        parse_experiment_spec(two_config_spec(horizon=6))
    assert err.value.path == "experiment.horizon"


def test_cli_rejects_a_cost_table_spec_without_a_traceback(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "cost_table", "horizon": 6}))
    code = main(["experiment", "policy-comparison", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "experiment.kind" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


# -- cost study ------------------------------------------------------------------


def test_cost_study_levels_order_by_quorum_quality():
    _, pool, _, _ = load_defaults()
    study = run_cost_study(pool)
    means = dict(study.level_means)
    assert means["L1"] < means["L2"] < means["L3"]
    assert study.best_level == "L1"


def test_cost_study_table_keeps_six_columns():
    _, pool, _, _ = load_defaults()
    study = run_cost_study(pool, horizon=3, samples_per_hour=10)
    header = study.table_csv.splitlines()[0].split(",")
    assert header[0] == "hour"
    assert len(header) == 7
    assert len(study.table_csv.splitlines()) == 4
    quorum_lines = study.quorum_csv.splitlines()
    assert quorum_lines[0] == "level,mean_ac"
    assert [ln.split(",")[0] for ln in quorum_lines[1:]] == ["L1", "L2", "L3"]


#: (pool seed, resources, horizon, samples per hour) of the seeded cost-study
#: cases; pools of six or fewer keep every resource as a table column.
COST_CASES = (
    (11, 1, 3, 7),
    (12, 2, 24, 4),
    (13, 3, 2, 60),
    (14, 5, 6, 10),
    (15, 6, 4, 5),
    (16, 7, 24, 12),
    (17, 12, 5, 6),
    (18, 20, 3, 20),
    (19, 33, 2, 15),
    (20, 48, 4, 3),
    (21, 64, 24, 2),
    (22, 64, 1, 60),
)


def noisy_cost_case(seed, n):
    """A pool of periodic, phased, noisy traces and random weights.

    Every fifth resource copies its predecessor's traces, so costs tie and
    the ranking falls back to resource ids.
    """
    rng = random.Random(seed)

    def trace():
        return MetricTrace(
            base=rng.uniform(0.0, 1.0),
            amplitude=rng.choice([0.0, rng.uniform(0.0, 0.3)]),
            period=rng.choice([900.0, 3600.0, 5400.0, 7200.0]),
            phase=rng.uniform(0.0, 2 * math.pi),
            noise_sigma=rng.uniform(0.0, 0.1),
            seed=rng.randrange(1 << 32),
        )

    pool = []
    for i in range(n):
        net, sys_ = (pool[-1].net_trace, pool[-1].sys_trace) if i % 5 == 4 else (trace(), trace())
        pool.append(ResourceDescriptor(f"r{i:02d}", f"site{i % 3}", 100.0, net, sys_, 1e8, 0.01))
    return pool, AllocationCostParams(rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0))


def cost_study_digest(study) -> str:
    return hashlib.sha256((study.table_csv + study.quorum_csv).encode("utf-8")).hexdigest()


def cost_study_digests() -> dict:
    """Digests of the packaged pool's study and of each seeded case's."""
    _, pool, _, _ = load_defaults()
    seeded = []
    for seed, n, horizon, samples in COST_CASES:
        case_pool, params = noisy_cost_case(seed, n)
        seeded.append(cost_study_digest(run_cost_study(case_pool, params, horizon, samples)))
    return {"packaged": cost_study_digest(run_cost_study(pool)), "seeded": seeded}


def test_cost_study_matches_golden():
    golden = json.loads((GOLDEN / "cost_study_digests.json").read_text(encoding="utf-8"))
    assert cost_study_digests() == golden


# -- policy comparison --------------------------------------------------------------


def test_comparison_pairs_replicates_and_sorts_rows():
    bundle, pool, repo, config = load_defaults()
    spec = comparison_spec(replicates=2)
    result = run_policy_comparison(spec, bundle, pool, repo, config)
    assert [(r.config, r.replicate) for r in result.rows] == [
        ("SET-A", 1),
        ("SET-A", 2),
        ("SET-B", 1),
        ("SET-B", 2),
        ("SET-C", 1),
        ("SET-C", 2),
    ]
    by_replicate = {}
    for row in result.rows:
        by_replicate.setdefault(row.replicate, set()).add(row.seed)
    for replicate, seeds in by_replicate.items():
        assert seeds == {spec.base_seed + replicate}
    for row in result.rows:
        assert row.completion == round(row.completion, 6)


def test_comparison_is_deterministic():
    bundle, pool, repo, config = load_defaults()
    spec = comparison_spec(replicates=2)
    first = run_policy_comparison(spec, bundle, pool, repo, config)
    second = run_policy_comparison(spec, bundle, pool, repo, config)
    assert first == second


def test_a_study_synthesizes_each_distinct_patient_once(monkeypatch):
    bundle, pool, repo, config = load_defaults()
    spec = comparison_spec(replicates=20)
    synthesize, patients = engine.synthesize_ecg, []

    def counted(bpm, irregularity, st_offset, noise, duration, rate, seed):
        if noise > 0:  # a patient; every VHS candidate is noiseless
            patients.append(seed)
        return synthesize(bpm, irregularity, st_offset, noise, duration, rate, seed)

    monkeypatch.setattr(engine, "synthesize_ecg", counted)
    engine._signal_features.cache_clear()
    cold = run_policy_comparison(spec, bundle, pool, repo, config)
    assert sorted(patients) == [spec.base_seed + r for r in range(1, 21)]  # 60 runs, 20 distinct patients
    warm = run_policy_comparison(spec, bundle, pool, repo, config)
    assert len(patients) == 20
    assert (comparison_csv(warm), summary_csv(warm)) == (comparison_csv(cold), summary_csv(cold))
    assert summary_csv(cold).encode("utf-8") == (GOLDEN / "comparison_summary.csv").read_bytes()


def test_summary_reconstructs_from_rows():
    bundle, pool, repo, config = load_defaults()
    result = run_policy_comparison(comparison_spec(replicates=3), bundle, pool, repo, config)
    for summary in result.summaries:
        values = [r.completion for r in result.rows if r.config == summary.config]
        assert summary.mean == statistics.fmean(values)
        assert summary.stddev == exact_pstdev(values)  # 3.10's pstdev rounds the variance first
        assert summary.min == min(values)
        assert summary.max == max(values)


def exact_pstdev(values):
    """The population standard deviation: the float nearest the square root of
    the exact variance, ties to even.

    An 80-digit square root lands within an ulp of it, and comparisons in
    fractions settle the rest: the root is below the midpoint of two
    neighbouring floats exactly when the variance is below that midpoint
    squared. Two values can put the root on such a midpoint (the variance of
    ``[1024.682972, 7349.398438]`` is one squared), where the 80-digit root
    alone may round the wrong way."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact, Fraction(0)) / len(exact)
    variance = sum(((v - mean) ** 2 for v in exact), Fraction(0)) / len(exact)
    with localcontext() as context:
        context.prec = 80
        root = float((Decimal(variance.numerator) / variance.denominator).sqrt())

    def midpoint_squared(a, b):
        return ((Fraction(a) + Fraction(b)) / 2) ** 2

    below = math.nextafter(root, 0.0)
    while root > 0.0 and variance < midpoint_squared(below, root):
        root, below = below, math.nextafter(below, 0.0)
    above = math.nextafter(root, math.inf)
    while variance > midpoint_squared(root, above):
        root, above = above, math.nextafter(above, math.inf)
    odd = Fraction(root) / Fraction(math.ulp(root)) % 2 == 1  # the last bit of its significand
    if odd and variance == midpoint_squared(math.nextafter(root, 0.0), root):
        return math.nextafter(root, 0.0)
    if odd and variance == midpoint_squared(root, math.nextafter(root, math.inf)):
        return math.nextafter(root, math.inf)
    return root


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(0.0, 1e4).map(lambda v: round(v, 6)) | st.floats(-1e12, 1e12, allow_subnormal=False),
        min_size=1,
        max_size=40,
    )
)
@example(values=[35.66, 351.1])  # Python 3.10's pstdev gives 0x1.3b70a3d70a3d7p+7, one ulp low
@example(values=[180.533, 41.86])  # and 0x1.15589374bc6a7p+6 here
@example(values=[745.101231] * 3)
@example(values=[1024.682972, 7349.398438])  # the root lies on a midpoint; ties go to the even float
def test_the_study_stddev_is_the_correctly_rounded_root_of_the_exact_variance(values):
    rows = [ComparisonRow("c", i, i, v) for i, v in enumerate(values, 1)]
    (summary,) = experiments._summarize(rows)
    assert summary.stddev == exact_pstdev(values)
    assert summary.mean == statistics.fmean(values)  # math.fsum / n, on every supported Python
    if sys.version_info >= (3, 11):
        assert summary.stddev == statistics.pstdev(values)


def test_a_failing_comparison_run_raises_its_run_error():
    bundle, pool, repo, config = load_defaults()
    document = load_json(data_path("comparison.json"))
    document["replicates"] = 1
    # second configuration matches no resource policy: L2 with an L1/L3-only repo
    document["configs"] = [
        document["configs"][0],
        {
            "name": "Z-BROKEN",
            "sla": {"user_id": "u", "resource_level": "L2", "performance": "Fast", "service_level": "EcgOnly"},
        },
    ]
    spec = parse_experiment_spec(document)
    repo = [p for p in repo if p.id != "RP-B"]
    with pytest.raises(RunError) as err:
        run_policy_comparison(spec, bundle, pool, repo, config)
    assert err.value.run_id == "Z-BROKEN-r1"
    assert isinstance(err.value.cause, NoMatchingPolicy)


def test_comparison_decides_every_policy_set_before_its_first_run(monkeypatch):
    # SET-B's extra policy takes the id of the repository's RP-C, so SET-B's set
    # cannot be decided: the study refuses it before any of SET-A's runs
    bundle, pool, repo, config = load_defaults()
    document = load_json(data_path("comparison.json"))
    document["configs"][1]["extra_policies"][0]["id"] = "RP-C"
    spec = parse_experiment_spec(document)
    runs = []
    run_workflow = experiments.run_workflow

    def counting(*args, **kwargs):
        runs.append(kwargs["run_id"])
        return run_workflow(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_workflow", counting)
    with pytest.raises(RunError) as err:
        run_policy_comparison(spec, bundle, pool, repo, config)
    assert str(err.value) == "run SET-B-r1: duplicate policy id 'RP-C'"
    assert type(err.value.cause) is WmsError
    assert runs == []


def test_csv_layouts():
    bundle, pool, repo, config = load_defaults()
    result = run_policy_comparison(comparison_spec(replicates=1), bundle, pool, repo, config)
    rows = comparison_csv(result).splitlines()
    assert rows[0] == "config,replicate,seed,completion_s"
    assert len(rows) == 1 + 3
    for line in rows[1:]:
        assert len(line.split(",")[3].split(".")[1]) == 6
    summary = summary_csv(result).splitlines()
    assert summary[0] == "config,mean,stddev,min,max"
    assert len(summary) == 1 + 3


# -- command line ----------------------------------------------------------------------


def test_cli_run_writes_outputs(tmp_path, capsys):
    code = main(["run", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "diagnosis=fibrillation" in out
    record = json.loads((tmp_path / "run_record.json").read_text())
    assert record["run_id"] == "run-42"
    timings = (tmp_path / "node_timings.csv").read_bytes()
    assert timings.startswith(b"node,kind,start,end\n")
    assert b"\r" not in timings


def test_cli_run_seed_override(tmp_path, capsys):
    assert main(["run", "--out-dir", str(tmp_path), "--seed", "7"]) == 0
    record = json.loads((tmp_path / "run_record.json").read_text())
    assert record["run_id"] == "run-7"
    assert record["seed"] == 7


def test_cli_run_output_is_byte_stable(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", "--out-dir", str(first)]) == 0
    assert main(["run", "--out-dir", str(second)]) == 0
    assert (first / "run_record.json").read_bytes() == (second / "run_record.json").read_bytes()
    assert (first / "node_timings.csv").read_bytes() == (second / "node_timings.csv").read_bytes()


def test_cli_cost_table(tmp_path, capsys):
    assert main(["experiment", "cost-table", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lowest-mean level: L1" in out
    table = (tmp_path / "cost_table.csv").read_text()
    assert table.splitlines()[0].count(",") == 6
    assert (tmp_path / "quorum_means.csv").read_text().splitlines()[0] == "level,mean_ac"


def test_cli_cost_table_files_match_golden(tmp_path, capsys):
    assert main(["experiment", "cost-table", "--out-dir", str(tmp_path)]) == 0
    written = (tmp_path / "cost_table.csv").read_bytes() + (tmp_path / "quorum_means.csv").read_bytes()
    golden = json.loads((GOLDEN / "cost_study_digests.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(written).hexdigest() == golden["packaged"]


def test_cli_policy_comparison(tmp_path, capsys):
    code = main(
        ["experiment", "policy-comparison", "--out-dir", str(tmp_path), "--replicates", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "SET-A: mean=" in out
    rows = (tmp_path / "comparison.csv").read_text().splitlines()
    assert len(rows) == 1 + 6
    summary = (tmp_path / "comparison_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 3


def test_cli_validate_reports_every_document(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    for label in ("workflow", "sla", "pool", "repo", "run-config", "spec"):
        assert f"{label}: ok" in out


def test_python_dash_m_hybridwms_runs_the_cli():
    package_root = Path(importlib.resources.files("hybridwms")).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package_root), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "hybridwms", "validate"], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "run-config: ok" in done.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", [["validate"], ["run", "--out-dir", "{tmp}"]])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, command, unbuffered):
    # the read end is closed before the process starts, so its first write to stdout fails
    package_root = Path(importlib.resources.files("hybridwms")).parent
    env = {**os.environ, "PYTHONPATH": str(package_root), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        args = [arg.format(tmp=tmp_path / "out") for arg in command]
        done = subprocess.run([sys.executable, "-m", "hybridwms", *args], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and done.stderr.startswith("error: "), done.stderr
    if command[0] == "run":  # its files were written before its first print
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["node_timings.csv", "run_record.json"]


class FullStdout(io.TextIOBase):
    """A stdout on a full device: every write fails, as on ``/dev/full``."""

    def writable(self):
        return True

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "command, written",
    [
        (["--help"], []),
        (["run", "--help"], []),
        (["validate"], []),
        (["run", "--out-dir", "{tmp}"], ["node_timings.csv", "run_record.json"]),
        (["experiment", "cost-table", "--out-dir", "{tmp}"], ["cost_table.csv", "quorum_means.csv"]),
        (["experiment", "policy-comparison", "--replicates", "1", "--out-dir", "{tmp}"], ["comparison.csv", "comparison_summary.csv"]),
    ],
    ids=["help", "run-help", "validate", "run", "cost-table", "policy-comparison"],
)
def test_a_stdout_that_cannot_be_written_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, command, written):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main([arg.format(tmp=tmp_path / "out") for arg in command]) == 2
    assert capsys.readouterr().err == f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"
    if written:  # the command's files were written before its output
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written


@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_help_into_a_stdout_that_cannot_be_written_exits_2_without_a_traceback(target):
    # block-buffered, so argparse's text reaches the descriptor only when it is flushed
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this system")
    package_root = Path(importlib.resources.files("hybridwms")).parent
    env = {**os.environ, "PYTHONPATH": str(package_root), "PYTHONUNBUFFERED": ""}
    if target == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open(target, os.O_WRONLY)
    try:
        done = subprocess.run([sys.executable, "-m", "hybridwms", "--help"], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(stdout)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_cli_validate_flags_broken_documents(tmp_path, capsys):
    bad = tmp_path / "pool.json"
    bad.write_text("[{}]")
    assert main(["validate", "--pool", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "pool: error:" in out
    assert out.count(": ok") == 5


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(replicates="twenty"), "spec: error: experiment.replicates: expected integer"),
        (lambda d: d.update(replicates=0), "spec: error: experiment: replicates must be >= 1"),
        (lambda d: d.update(colour="red"), "spec: error: experiment.colour: unknown key"),
        (lambda d: d["configs"][0].update(name="a,b"), "spec: error: experiment.configs[0].name: must not contain"),
    ],
    ids=["replicates-type", "replicates-zero", "unknown-key", "name-with-comma"],
)
def test_cli_validate_reads_the_comparison_spec(tmp_path, capsys, edit, message):
    document = load_json(data_path("comparison.json"))
    edit(document)
    spec_path = tmp_path / "comparison.json"
    spec_path.write_text(json.dumps(document))
    assert main(["validate", "--spec", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.out
    assert captured.out.count(": ok") == 5
    assert "Traceback" not in captured.err


def test_a_grid_load_condition_decides_on_the_pool_and_validate_agrees_with_run(tmp_path, capsys):
    repo = load_json(data_path("policies.json"))
    repo[0]["condition"].append({"key": "grid.load", "op": "<=", "value": 0.3})  # RP-A, the default SLA's L1
    busy = [{"key": "resource_level", "op": "==", "value": "L1"}, {"key": "grid.load", "op": ">=", "value": 0.5}]
    repo.append({"id": "RP-BUSY", "kind": "Resource", "priority": 10, "condition": busy, "actions": [{"key": "resource.level", "value": "L2"}]})
    (tmp_path / "repo.json").write_text(json.dumps(repo))
    decided = {}
    for load in (0.2, 0.4, 0.6):
        pool = load_json(data_path("pool.json"))
        for resource in pool:
            resource["sys_trace"] = {"base": load}  # so grid.load is exactly load
        (tmp_path / f"pool-{load}.json").write_text(json.dumps(pool))
        flags = ["--repo", str(tmp_path / "repo.json"), "--pool", str(tmp_path / f"pool-{load}.json")]
        validated = main(["validate", *flags])
        out = tmp_path / f"out-{load}"
        ran = main(["run", *flags, "--out-dir", str(out)])
        assert validated == ran
        decided[load] = json.loads((out / "run_record.json").read_text())["policies"]["resource"] if ran == 0 else None
    assert decided == {0.2: "RP-A", 0.4: None, 0.6: "RP-BUSY"}
    assert capsys.readouterr().err.count("no matching policy of kind Resource") == 1


def test_cli_rejects_out_of_domain_candidate_before_running(tmp_path, capsys):
    document = load_json(data_path("run_config.json"))
    document["vhs_grid"][2]["irregularity"] = 1.5
    config_path = tmp_path / "run_config.json"
    config_path.write_text(json.dumps(document))
    assert main(["validate", "--run-config", str(config_path)]) == 2
    assert "run-config: error: run_config.vhs_grid[2].irregularity" in capsys.readouterr().out
    assert main(["run", "--run-config", str(config_path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "error: run_config.vhs_grid[2].irregularity" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_candidate_beyond_the_work_bound(tmp_path, capsys):
    document = load_json(data_path("run_config.json"))
    document["vhs_grid"][0]["bpm"] = 1e9
    config_path = tmp_path / "run_config.json"
    config_path.write_text(json.dumps(document))
    assert main(["validate", "--run-config", str(config_path)]) == 2
    assert "run-config: error: run_config.vhs_grid[0].bpm" in capsys.readouterr().out


def test_cli_rejects_an_empty_pool_at_parse_time(tmp_path, capsys):
    empty = tmp_path / "pool.json"
    empty.write_text("[]")
    assert main(["validate", "--pool", str(empty)]) == 2
    assert "pool: error: pool: must list at least one resource" in capsys.readouterr().out
    assert main(["experiment", "cost-table", "--pool", str(empty), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "error: pool: must list at least one resource" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_cli_missing_document_is_a_clean_error(tmp_path, capsys):
    code = main(["run", "--pool", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "nope.json" in captured.err


@pytest.mark.parametrize(
    "command, content",
    [
        (["validate", "--pool"], None),
        (["validate", "--pool"], b"\xff\xfe{"),
        (["validate", "--pool"], b"[" * 100_000),
        (["validate", "--pool"], b"1" * 5_000),
        (["run", "--out-dir"], b""),
        (["validate", "--run-config"], None),
    ],
    ids=["directory", "not-utf8", "nested-too-deep", "integer-too-long", "out-dir-is-a-file", "sample-is-a-directory"],
)
def test_cli_unreadable_input_is_a_clean_error(tmp_path, capsys, command, content):
    """``target`` is a directory where content is None, else a file holding it;
    the last case names it as the run config's ``patient.file``."""
    target = tmp_path / "target"
    if content is None:
        target.mkdir()
    else:
        target.write_bytes(content)
    argument = target
    if command[-1] == "--run-config":
        argument = tmp_path / "run_config.json"
        argument.write_text(json.dumps({"seed": 1, "patient": {"file": "target"}}))
    assert main(command + [str(argument)]) == 2
    captured = capsys.readouterr()
    assert f"{target}: " in captured.out + captured.err
    assert "Traceback" not in captured.err


LONG_NAME = "a" * 300  # past the 255-byte limit of a file name, so stat() fails with ENAMETOOLONG


@pytest.mark.parametrize("case", ["pool", "subworkflow-id", "out-dir"])
def test_cli_an_overlong_file_name_is_a_clean_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    reason = os.strerror(errno.ENAMETOOLONG)
    if case == "pool":
        command = ["validate", "--pool", LONG_NAME]
        expected = f"pool: error: {LONG_NAME}: cannot read: {reason}"
    elif case == "subworkflow-id":
        workflow = load_json(data_path("workflows/heart-disease.json"))
        workflow["nodes"][1]["payload"]["subworkflow"] = LONG_NAME  # the ecg-analysis node
        (tmp_path / "workflow.json").write_text(json.dumps(workflow))
        command = ["validate", "--workflow", str(tmp_path / "workflow.json")]
        expected = f"workflow: error: {tmp_path / LONG_NAME}.json: cannot read: {reason}"
    else:
        command = ["experiment", "cost-table", "--out-dir", LONG_NAME]
        expected = f"error: cannot write to {LONG_NAME}: {reason}"
    assert main(command) == 2
    captured = capsys.readouterr()
    assert [line for line in (captured.out + captured.err).splitlines() if "error:" in line] == [expected]
    assert "Traceback" not in captured.err
    assert [path.name for path in tmp_path.iterdir()] == (["workflow.json"] if case == "subworkflow-id" else [])


@pytest.mark.parametrize(
    "command",
    [["run"], ["experiment", "cost-table"], ["experiment", "policy-comparison", "--replicates", "20"]],
    ids=["run", "cost-table", "policy-comparison"],
)
def test_out_dir_is_checked_before_any_work(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out-dir was checked")

    for name in ("run_workflow", "run_cost_study", "run_policy_comparison"):
        monkeypatch.setattr(cli, name, refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    for out_dir in (blocker, blocker / "sub"):
        assert main(command + ["--out-dir", str(out_dir)]) == 2
        assert f"error: cannot write to {out_dir}: {blocker} is not a directory" in capsys.readouterr().err
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(command + ["--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: cannot write to {tmp_path / 'out'}: {tmp_path} is not writable" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "kept"


def test_cli_comparison_failure_exits_2_and_writes_nothing(tmp_path, capsys):
    spec_doc = load_json(data_path("comparison.json"))
    spec_doc["replicates"] = 1
    spec_doc["configs"] = [
        spec_doc["configs"][0],
        {
            "name": "Z-BROKEN",
            "sla": {"user_id": "u", "resource_level": "L2", "performance": "Fast", "service_level": "EcgOnly"},
        },
    ]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    repo_doc = [p for p in load_json(data_path("policies.json")) if p["id"] != "RP-B"]
    repo_path = tmp_path / "repo.json"
    repo_path.write_text(json.dumps(repo_doc))

    code = main(
        [
            "experiment",
            "policy-comparison",
            "--spec",
            str(spec_path),
            "--repo",
            str(repo_path),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: run Z-BROKEN-r1: " in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()
