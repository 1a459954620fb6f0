"""Every run input is checked once, at the boundary, by the loader that both
``validate`` and ``run`` call: a document set that validates runs."""

import contextlib
import copy
import importlib.resources
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybridwms import documents
from hybridwms.cli import build_parser, cmd_policy_comparison, cmd_run, main
from hybridwms.ecg import synthesize_ecg
from hybridwms.engine import run_workflow
from hybridwms.errors import (
    EmptyParameterGrid,
    InvalidConfigValue,
    MissingInput,
    NoMatchingPolicy,
    NodeError,
    RunError,
    WmsError,
)
from hybridwms.experiments import load_workflow_bundle
from hybridwms.policy import parse_repository, parse_sla
from hybridwms.resources import parse_pool
from hybridwms.runconfig import parse_run_config


def data_path(rel):
    return importlib.resources.files("hybridwms") / "data" / rel


#: The document flags of ``run`` and ``validate`` and their packaged files.
FLAGS = {
    "--workflow": "workflows/heart-disease.json",
    "--sla": "slas/high_performance.json",
    "--pool": "pool.json",
    "--repo": "policies.json",
    "--run-config": "run_config.json",
}
FILES = tuple(FLAGS.values()) + ("workflows/ecg-analysis.json", "workflows/vhs-simulation.json")
PACKAGED = {rel: documents.load_json(data_path(rel)) for rel in FILES}

#: Run outcomes a document set that validates may still reach. Each depends on
#: how documents fit together, which no single loader sees: a loop that runs
#: while the run config lists no candidates; a node that reads what no earlier
#: node wrote. ``validate`` decides the policy set for the SLA as ``run`` does
#: and for each spec configuration as the policy study does, and a synthesized
#: signal that validates shows two beats.
RUN_OUTCOMES = (EmptyParameterGrid, MissingInput)


def write_documents(root: Path, docs: dict) -> list[str]:
    for rel, document in docs.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(json.dumps(document))
    return [arg for flag, rel in FLAGS.items() for arg in (flag, str(root / rel))]


def quiet_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_failure(argv, command=cmd_run) -> Exception:
    """The innermost cause of a failing ``run``, or of the failing run of
    another ``command``."""
    with pytest.raises(WmsError) as err:
        command(build_parser().parse_args(argv))
    cause = err.value
    while isinstance(cause, (RunError, NodeError)):
        cause = cause.cause
    return cause


def paths(value, prefix=()):
    """The key or index path of every value inside a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


def strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from strings(item)


NAMES = st.sampled_from(sorted({s for document in PACKAGED.values() for s in strings(document)}))
NUMBERS = st.one_of(st.floats(), st.integers(), st.sampled_from([10**400, -(10**400)]))
#: Any JSON scalar (NaN, infinities, huge and tiny numbers and integers past
#: float range included), empty
#: containers, and every name the packaged documents use, so a name can land
#: in a field where it is not valid.
VALUES = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=4), NAMES, st.sampled_from([[], {}]))


@st.composite
def replacement(draw, current):
    """Mostly a value of the current one's kind, so that many mutated
    documents still validate; otherwise any value."""
    if draw(st.integers(0, 3)) == 0 or isinstance(current, (bool, dict, list)) or current is None:
        return draw(VALUES)
    return draw(NAMES if isinstance(current, str) else NUMBERS)


@st.composite
def mutated_documents(draw):
    """The packaged documents with one or two values replaced or deleted."""
    docs = copy.deepcopy(PACKAGED)
    for _ in range(draw(st.integers(1, 2))):
        rel = draw(st.sampled_from(FILES))
        path = draw(st.sampled_from(list(paths(docs[rel])) or [None]))
        if path is None:
            continue
        parent = docs[rel]
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.integers(0, 4)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(replacement(parent[path[-1]]))
    return docs


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=mutated_documents())
def test_validate_ok_means_run_does_not_fail_on_a_document(docs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        flags = write_documents(root, docs)
        validated, checked, _ = quiet_main(["validate"] + flags)
        run_argv = ["run"] + flags + ["--out-dir", str(root / "out")]
        ran, _, err = quiet_main(run_argv)
        assert "Traceback" not in err
        assert validated in (0, 2)
        assert ran in (0, 2)
        if validated == 2:
            # run loads the same documents with the same loaders, and stops before any
            # output; validate also decides each spec configuration's policy set, which
            # run does not read
            errors = [line for line in checked.splitlines() if "error:" in line]
            assert ran == 2 or all(line.startswith("spec ") for line in errors)
            assert ran == 0 or not (root / "out").exists()
        elif ran == 2:
            assert isinstance(run_failure(run_argv), RUN_OUTCOMES)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=mutated_documents())
def test_validate_ok_means_the_policy_study_does_not_fail_on_a_document(docs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        flags = write_documents(root, docs)
        flags = flags[: flags.index("--sla")] + flags[flags.index("--sla") + 2 :]  # the study reads only its spec's SLAs
        validated, _, _ = quiet_main(["validate"] + flags)
        study_argv = ["experiment", "policy-comparison", "--replicates", "1"] + flags + ["--out-dir", str(root / "out")]
        studied, _, err = quiet_main(study_argv)
        assert "Traceback" not in err
        assert studied in (0, 2)
        if studied == 2:
            assert not (root / "out").exists()
            if validated == 0:
                assert isinstance(run_failure(study_argv, cmd_policy_comparison), RUN_OUTCOMES)


def write_json(path: Path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


def mutated(rel, edit):
    document = copy.deepcopy(PACKAGED[rel])
    edit(document)
    return document


def set_threshold(key, value):
    def edit(document):
        document["thresholds"] = {key: value}

    return edit


def set_payload(index, key, value):
    def edit(document):
        document["nodes"][index]["payload"][key] = value

    return edit


#: (packaged file, edit, the field path ``validate`` and ``run`` must name[, a
#: test id where the path alone would repeat another fault's]).
DOCUMENT_FAULTS = [
    ("run_config.json", set_threshold("fibrillation_freq", float("nan")), "run_config.thresholds.fibrillation_freq"),
    ("run_config.json", set_threshold("arrhythmia_rr", -0.1), "run_config.thresholds.arrhythmia_rr"),
    ("run_config.json", set_threshold("ischemia_st", -1), "run_config.thresholds.ischemia_st"),
    ("run_config.json", set_threshold("fibrillation_freq", 0), "run_config.thresholds.fibrillation_freq"),
    ("run_config.json", lambda d: d["patient"].update(noise=1e308), "run_config.patient.noise"),
    ("run_config.json", lambda d: d["patient"].update(duration=0.001), "run_config.patient.duration"),
    ("run_config.json", lambda d: d["patient"].update(rate=0.01), "run_config.patient.rate"),
    ("run_config.json", lambda d: d["patient"].update(st_offset=-2), "run_config.patient.st_offset"),
    ("run_config.json", lambda d: d["vhs_grid"][1].update(st_offset=-2), "run_config.vhs_grid[1].st_offset"),
    ("run_config.json", lambda d: d["patient"].update(bpm=1000), "run_config.patient.bpm"),
    ("workflows/heart-disease.json", set_payload(0, "key", "nope"), "workflow.nodes[0].payload.key"),
    ("workflows/heart-disease.json", set_payload(1, "produces", "nope"), "workflow.nodes[1].payload.produces"),
    ("workflows/heart-disease.json", set_payload(2, "rule_table", "nope"), "workflow.nodes[2].payload.rule_table"),
    ("workflows/heart-disease.json", set_payload(3, "function", "nope"), "workflow.nodes[3].payload.function"),
    ("workflows/heart-disease.json", set_payload(4, "tolerance", float("nan")), "workflow.nodes[4].payload.tolerance"),
    ("workflows/heart-disease.json", lambda d: d["nodes"][2]["payload"]["branches"].pop("normal"), "workflow.nodes[2].payload.branches"),
    ("workflows/heart-disease.json", set_payload(4, "tolerance", 0), "workflow.nodes[4].payload.tolerance", "tolerance-zero"),
    ("workflows/heart-disease.json", set_payload(3, "function", ""), "workflow.nodes[3].payload.function", "function-empty"),
    ("workflows/heart-disease.json", lambda d: d["nodes"][2]["payload"]["branches"].update(normal=7), "workflow.nodes[2].payload.branches.normal"),
    ("workflows/heart-disease.json", set_payload(4, "back_edge", "ecg-analysis"), "workflow(vhs-loop)"),
    ("workflows/heart-disease.json", lambda d: d["nodes"][0].update(id='ecg "raw"'), "workflow.nodes[0].id"),
    ("slas/high_performance.json", lambda d: d.update(soft_label="Best Effort"), "sla.soft_label"),
    ("policies.json", lambda d: d[0]["actions"][0].update(value="L9"), "policies[0].actions[0]"),
    ("policies.json", lambda d: d[6]["actions"][1].update(value="six"), "policies[6].actions[1]"),
    ("policies.json", lambda d: d[6]["actions"][2].update(value=float("nan")), "policies[6].actions[2]"),
    ("policies.json", lambda d: d[3]["actions"][0].update(key="scheduler.colour"), "policies[3].actions[0]"),
    ("policies.json", lambda d: d[0]["condition"][0].update(op="<=", value=3), "policies[0].condition[0].value"),
    ("pool.json", lambda d: d[0]["sys_trace"].update(period=5e-324), "pool[0].sys_trace"),
    ("pool.json", lambda d: d[1].update(cpu_rate=1e-300), "pool[1]"),
    ("pool.json", lambda d: d[2].update(latency=1e300), "pool[2]"),
    ("pool.json", lambda d: d[3].update(bandwidth=float("inf")), "pool[3].bandwidth"),
    ("pool.json", lambda d: d[0].update(id="r,1\nx"), "pool[0].id"),
    ("workflows/vhs-simulation.json", lambda d: d["tasks"][1].update(work=1e20), "subworkflow.tasks[1].work"),
    ("workflows/vhs-simulation.json", lambda d: d["tasks"][2].update(id="mesh-partition"), "subworkflow.tasks[2].id"),
    ("workflows/vhs-simulation.json", lambda d: d["data_deps"][1].pop(), "subworkflow.data_deps[1]"),
    ("workflows/vhs-simulation.json", lambda d: d["data_deps"][0].__setitem__(0, {}), "subworkflow.data_deps[0]"),
    ("workflows/vhs-simulation.json", lambda d: d["data_deps"][1].__setitem__(2, 1e300), "subworkflow.data_deps[1][2]"),
    ("workflows/ecg-analysis.json", lambda d: d["inputs"][0].update(bytes=float("nan")), "subworkflow.inputs[0].bytes"),
    ("workflows/ecg-analysis.json", lambda d: d["inputs"][0].update(bytes=2e15), "subworkflow.inputs[0].bytes", "input-bytes-huge"),
    ("workflows/ecg-analysis.json", lambda d: d["inputs"][0].update(consumer="ghost"), "subworkflow.inputs[0].consumer"),
]


@pytest.mark.parametrize("rel, edit, field", [fault[:3] for fault in DOCUMENT_FAULTS], ids=[fault[-1] for fault in DOCUMENT_FAULTS])
def test_validate_and_run_reject_a_document_fault_with_its_path(tmp_path, rel, edit, field):
    flags = write_documents(tmp_path, {**PACKAGED, rel: mutated(rel, edit)})
    code, out, err = quiet_main(["validate"] + flags)
    assert code == 2
    assert f"error: {field}" in out
    code, out, err = quiet_main(["run"] + flags + ["--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


#: An integer of 401 digits: ``json`` reads it as an int past float range.
HUGE = 10**400

#: (packaged file, edit, the field path ``validate`` must name) for an integer
#: past float range in each kind of number field a document holds.
HUGE_NUMBER_FAULTS = [
    ("pool.json", lambda d: d[0].update(cpu_rate=HUGE), "pool[0].cpu_rate"),
    ("run_config.json", lambda d: d["patient"].update(bpm=HUGE), "run_config.patient.bpm"),
    ("run_config.json", lambda d: d.update(patient={"file": "sample.json"}), "patient_sample.values[1]"),
    ("policies.json", lambda d: d[6]["actions"][2].update(value=HUGE), "policies[6].actions[2]"),
    ("workflows/vhs-simulation.json", lambda d: d["tasks"][1].update(work=HUGE), "subworkflow.tasks[1].work"),
    ("workflows/heart-disease.json", set_payload(4, "tolerance", HUGE), "workflow.nodes[4].payload.tolerance"),
]


@pytest.mark.parametrize("rel, edit, field", HUGE_NUMBER_FAULTS, ids=[fault[2] for fault in HUGE_NUMBER_FAULTS])
def test_validate_refuses_an_integer_past_float_range_with_its_path(tmp_path, rel, edit, field):
    write_json(tmp_path / "sample.json", {"rate": 250, "values": [0.0, HUGE]})
    flags = write_documents(tmp_path, {**PACKAGED, rel: mutated(rel, edit)})
    code, out, err = quiet_main(["validate"] + flags)
    assert code == 2
    assert [line.split("error: ")[1].split(":")[0] for line in out.splitlines() if "error:" in line] == [field]
    assert "Traceback" not in err


#: More ids than Python's default recursion limit of 1,000 frames.
LONG_IDS = [f"n{i:04d}" for i in range(1500)]


def test_validate_accepts_a_workflow_chain_longer_than_the_recursion_limit(tmp_path):
    chain = {
        "id": "chain",
        "entry": LONG_IDS[0],
        "nodes": [{"id": i, "kind": "LocalTask", "payload": {"function": "extract-ecg-features"}} for i in LONG_IDS],
        "edges": [[a, b] for a, b in zip(LONG_IDS, LONG_IDS[1:])],
    }
    (tmp_path / "chain.json").write_text(json.dumps(chain))
    code, out, _ = quiet_main(["validate", "--workflow", str(tmp_path / "chain.json")])
    assert code == 0, out


def test_validate_refuses_a_subworkflow_cycle_longer_than_the_recursion_limit(tmp_path):
    ring = {
        "id": "ring",
        "tasks": [{"id": i, "work": 1, "transformation": "tf"} for i in LONG_IDS],
        "data_deps": [[a, b, 1] for a, b in zip(LONG_IDS, LONG_IDS[1:] + LONG_IDS[:1])],
    }
    workflow = {
        "id": "cycle",
        "entry": "grid",
        "nodes": [{"id": "grid", "kind": "GridSubWorkflow", "payload": {"subworkflow": "ring"}}, {"id": "end", "kind": "Terminal"}],
        "edges": [["grid", "end"]],
    }
    (tmp_path / "ring.json").write_text(json.dumps(ring))
    (tmp_path / "cycle.json").write_text(json.dumps(workflow))
    code, out, err = quiet_main(["validate", "--workflow", str(tmp_path / "cycle.json")])
    assert code == 2
    assert "workflow: error: cycle through tasks: " + ", ".join(LONG_IDS) + "\n" in out
    assert "Traceback" not in out + err


def zero_cost_weights(document):
    for action in document[0]["actions"][1:]:  # RP-A's resource.alpha and resource.beta
        action.update(value=0)


@pytest.mark.parametrize(
    "edit, message, error",
    [
        # the SLA asks for L1, and no Resource policy matches L1 any more
        (
            lambda d: d[0]["condition"][0].update(value="L2"),
            "no matching policy of kind Resource",
            NoMatchingPolicy,
        ),
        # each weight alone is in its domain; together they weigh nothing
        (
            zero_cost_weights,
            "config keys 'resource.alpha' and 'resource.beta': alpha + beta must be > 0",
            InvalidConfigValue,
        ),
    ],
    ids=["no-resource-policy", "zero-cost-weights"],
)
def test_validate_decides_the_policy_set_as_run_does(tmp_path, edit, message, error):
    flags = write_documents(tmp_path, {**PACKAGED, "policies.json": mutated("policies.json", edit)})
    code, out, _ = quiet_main(["validate"] + flags)
    assert code == 2
    assert out.count(": ok") == 6
    # the packaged spec's SET-A asks for L1 too, so its policy set fails the same way
    assert [line for line in out.splitlines() if "error:" in line] == [
        f"sla + repo: error: {message}",
        f"spec SET-A + repo: error: {message}",
    ]
    run_argv = ["run"] + flags + ["--out-dir", str(tmp_path / "out")]
    code, _, err = quiet_main(run_argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert isinstance(run_failure(run_argv), error)


@pytest.mark.parametrize(
    "level, extra, repo, message",
    [
        # Z asks for L2, and the repository lost RP-B, its only Resource policy
        ("L2", [], [p for p in PACKAGED["policies.json"] if p["id"] != "RP-B"], "no matching policy of kind Resource"),
        # Z's extra policy outranks RP-A and sets both cost weights to 0
        (
            "L1",
            [
                {
                    "id": "RP-ZERO",
                    "kind": "Resource",
                    "priority": 100,
                    "condition": [{"key": "resource_level", "op": "==", "value": "L1"}],
                    "actions": [{"key": "resource.alpha", "value": 0}, {"key": "resource.beta", "value": 0}],
                }
            ],
            PACKAGED["policies.json"],
            "config keys 'resource.alpha' and 'resource.beta': alpha + beta must be > 0",
        ),
    ],
    ids=["no-resource-policy", "zero-cost-weights"],
)
def test_validate_decides_each_spec_configuration_as_the_study_does(tmp_path, level, extra, repo, message):
    sla = {"user_id": "u", "resource_level": level, "performance": "Fast", "service_level": "EcgOnly"}
    spec = json.loads(data_path("comparison.json").read_text())
    spec.update(replicates=1, configs=[spec["configs"][0], {"name": "Z", "sla": sla, "extra_policies": extra}])
    flags = ["--spec", write_json(tmp_path / "spec.json", spec), "--repo", write_json(tmp_path / "repo.json", repo)]
    code, out, _ = quiet_main(["validate"] + flags)
    assert code == 2
    assert out.count(": ok") == 6
    assert [line for line in out.splitlines() if "error:" in line] == [f"spec Z + repo: error: {message}"]
    code, _, err = quiet_main(["experiment", "policy-comparison"] + flags + ["--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"error: run Z-r1: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_validate_opens_the_sample_file(tmp_path):
    signal = synthesize_ecg(bpm=330, noise=0.02, duration=30, seed=17)
    values = [float(v) for v in signal.values]
    values[17] = float("nan")
    write_json(tmp_path / "sample.json", {"rate": signal.rate, "values": values})
    config = write_json(tmp_path / "run_config.json", {"seed": 5, "patient": {"file": "sample.json"}})
    code, out, _ = quiet_main(["validate", "--run-config", config])
    assert code == 2
    assert "run-config: error: patient_sample.values[17]: expected a finite number" in out
    code, _, err = quiet_main(["run", "--run-config", config, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "error: patient_sample.values[17]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sample, field",
    [
        ({"rate": 0, "values": [1.0]}, "patient_sample.rate"),
        ({"rate": 5000, "values": [1.0]}, "patient_sample.rate"),
        ({"rate": 250, "values": []}, "patient_sample.values"),
        ({"rate": 250, "values": [1.0, True]}, "patient_sample.values[1]"),
        ({"rate": 250, "values": [1.0, "2"]}, "patient_sample.values[1]"),
        ({"rate": 250}, "patient_sample.values"),
        ({"rate": 250, "values": [1.0], "unit": "mV"}, "patient_sample.unit"),
        ([1.0, 2.0], "patient_sample"),
    ],
)
def test_sample_file_is_checked_at_parse_time(tmp_path, sample, field):
    write_json(tmp_path / "sample.json", sample)
    with pytest.raises(WmsError) as err:
        parse_run_config({"seed": 1, "patient": {"file": "sample.json"}}, base_dir=str(tmp_path))
    assert err.value.path == field


def test_a_run_reads_no_document(tmp_path, monkeypatch):
    signal = synthesize_ecg(bpm=330, noise=0.02, duration=30, seed=17)
    write_json(tmp_path / "sample.json", {"rate": signal.rate, "values": [float(v) for v in signal.values]})
    config = parse_run_config({**PACKAGED["run_config.json"], "patient": {"file": "sample.json"}}, base_dir=str(tmp_path))
    bundle = load_workflow_bundle(data_path("workflows/heart-disease.json"))
    pool = parse_pool(PACKAGED["pool.json"])
    repo = parse_repository(PACKAGED["policies.json"])
    sla = parse_sla(PACKAGED["slas/high_performance.json"])

    def refuse(path):
        raise AssertionError(f"run read {path}")

    monkeypatch.setattr(documents, "load_json", refuse)
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
    assert record.diagnosis == "fibrillation"


#: Recorded samples, as (rate, sample count, message), too short or too long for
#: a candidate of bpm 60, which is synthesized at the sample's duration and rate.
SAMPLES_NO_CANDIDATE_FITS = [
    (250, 250, "with the patient signal's duration: 1 s holds fewer than two beats at bpm 60: needs at least 2.08 s"),
    (100, 360_001, "with the patient signal's duration: must be in (0, 3600]"),
]


@pytest.mark.parametrize("rate, samples, message", SAMPLES_NO_CANDIDATE_FITS, ids=["1 s", "3600.01 s"])
def test_validate_refuses_a_candidate_the_sample_signal_cannot_hold(tmp_path, rate, samples, message):
    write_json(tmp_path / "sample.json", {"rate": rate, "values": [0.0] * samples})
    config = write_json(tmp_path / "run_config.json", {"seed": 1, "patient": {"file": "sample.json"}, "vhs_grid": [{"bpm": 60}]})
    code, out, err = quiet_main(["validate", "--run-config", config])
    assert code == 2
    assert [line for line in out.splitlines() if "error:" in line] == [f"run-config: error: run_config.vhs_grid[0]: {message}"]
    assert "Traceback" not in err


WORKFLOW, RUN_CONFIG = "workflows/heart-disease.json", "run_config.json"


def with_user_inputs(user_inputs: dict) -> dict:
    return {**PACKAGED[RUN_CONFIG], "user_inputs": user_inputs}


def features_from_the_user() -> dict:
    """The packaged workflow with a ``UserInput`` node of key ``features`` in
    place of the nodes that retrieve the signal and compute its features."""
    workflow = copy.deepcopy(PACKAGED[WORKFLOW])
    workflow["nodes"][:2] = [{"id": "ask", "kind": "UserInput", "payload": {"key": "features"}}]
    workflow["edges"][:2] = [["ask", "disease-estimation"]]
    workflow["entry"] = "ask"
    return workflow


def test_a_user_input_cannot_stand_in_for_computed_features(tmp_path):
    flags = write_documents(tmp_path, {**PACKAGED, WORKFLOW: features_from_the_user(), RUN_CONFIG: with_user_inputs({"features": 1})})
    code, out, _ = quiet_main(["validate"] + flags)
    assert code == 0, out
    code, _, err = quiet_main(["run"] + flags + ["--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert err == "error: run run-42: node disease-estimation: missing input: features\n"
    assert not (tmp_path / "out").exists()


def test_a_user_input_named_features_is_recorded_but_not_read(tmp_path):
    # Low Cost enforces EcgOnly, which prunes the decision: only the user input runs.
    flags = write_documents(
        tmp_path, {**PACKAGED, WORKFLOW: features_from_the_user(), RUN_CONFIG: with_user_inputs({"features": {"rr_mean": 1}})}
    )
    flags[flags.index("--sla") + 1] = str(data_path("slas/low_cost.json"))
    code, _, err = quiet_main(["run"] + flags + ["--out-dir", str(tmp_path / "out")])
    assert code == 0, err
    record = json.loads((tmp_path / "out" / "run_record.json").read_text())
    assert [(n["id"], n["detail"]) for n in record["nodes"]] == [("ask", {"key": "features"})]
    assert record["features"] is None


def test_a_user_input_cannot_replace_the_retrieved_signal(tmp_path):
    workflow = copy.deepcopy(PACKAGED[WORKFLOW])
    workflow["nodes"].insert(1, {"id": "ask", "kind": "UserInput", "payload": {"key": "patient.ecg"}})
    workflow["edges"][:1] = [["get-patient-data", "ask"], ["ask", "ecg-analysis"]]
    flags = write_documents(tmp_path, {**PACKAGED, WORKFLOW: workflow, RUN_CONFIG: with_user_inputs({"patient.ecg": [1, 2, 3]})})
    code, _, err = quiet_main(["run"] + flags + ["--out-dir", str(tmp_path / "asked")])
    assert code == 0, err
    code, _, _ = quiet_main(["run", "--out-dir", str(tmp_path / "packaged")])
    assert code == 0
    asked, packaged = (json.loads((tmp_path / name / "run_record.json").read_text()) for name in ("asked", "packaged"))
    assert (asked["diagnosis"], asked["completion_time"]) == (packaged["diagnosis"], packaged["completion_time"])
    assert asked["features"] == packaged["features"]


def test_replicates_flag_is_checked_by_the_spec_parser(tmp_path):
    code, _, err = quiet_main(["experiment", "policy-comparison", "--replicates", "0", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "error: experiment: replicates must be >= 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_seed_flag_is_written_into_the_run_config(tmp_path):
    # Seeds enter the run's seed derivation as 64-bit two's complement, so any integer runs.
    for seed in (7, -3, 2**64 + 7):
        code, out, _ = quiet_main(["run", "--seed", str(seed), "--out-dir", str(tmp_path / str(seed))])
        assert code == 0
        assert f"run run-{seed}:" in out
        assert json.loads((tmp_path / str(seed) / "run_record.json").read_text())["seed"] == seed
