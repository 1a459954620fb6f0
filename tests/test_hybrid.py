"""End-to-end engine tests over the packaged documents and inline fixtures."""

import copy
import importlib.resources
import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from hybridwms import engine
from hybridwms.documents import dump_json, load_json
from hybridwms.ecg import EcgSignal, extract_features, synthesize_ecg
from hybridwms.engine import (
    derive_seed,
    node_timings_csv,
    _signal_features,
    record_document,
    replace_seed,
    run_workflow,
)
from hybridwms.errors import (
    EmptyParameterGrid,
    MissingInput,
    NoBeatsDetected,
    NodeError,
    RunError,
    SchemaError,
)
from hybridwms.experiments import load_workflow_bundle
from hybridwms.policy import Policy, PolicyKind, Predicate, parse_repository, parse_sla
from hybridwms.resources import parse_pool, quorum_size
from hybridwms.runconfig import PatientParams, RunConfig, Thresholds, candidate_signal, parse_run_config, patient_signal
from hybridwms.workflow import AbstractSubWorkflow, Node, NodeKind, TaskSpec, WorkflowGraph


def data_path(rel):
    return importlib.resources.files("hybridwms") / "data" / rel


def load_defaults():
    bundle = load_workflow_bundle(data_path("workflows/heart-disease.json"))
    pool = parse_pool(load_json(data_path("pool.json")))
    repo = parse_repository(load_json(data_path("policies.json")))
    config = parse_run_config(load_json(data_path("run_config.json")))
    return bundle, pool, repo, config


def sla_label(label):
    return parse_sla({"user_id": "clinician-1", "soft_label": label})


def catch_all_repo(app_actions=None, resource_actions=None, workflow_actions=None):
    return [
        Policy("app-any", PolicyKind.APP, 0, (), tuple(app_actions or [("app.workflow", "EcgVhs")])),
        Policy("res-any", PolicyKind.RESOURCE, 0, (), tuple(resource_actions or [("resource.level", "L1")])),
        Policy("wf-any", PolicyKind.WORKFLOW, 0, (), tuple(workflow_actions or [("scheduler.kind", "MinEFT")])),
    ]


# -- seed derivation ------------------------------------------------------------


def test_derive_seed_is_stable_and_bounded():
    a = derive_seed(42, 0, 3, "sched")
    assert a == derive_seed(42, 0, 3, "sched")
    assert 0 <= a < 1 << 63


def test_derive_seed_separates_streams():
    seeds = {
        derive_seed(42, 0, 0, "sched"),
        derive_seed(42, 0, 1, "sched"),
        derive_seed(42, 1, 0, "sched"),
        derive_seed(43, 0, 0, "sched"),
        derive_seed(42, 0, 0, "quorum"),
    }
    assert len(seeds) == 5


# -- run configuration ------------------------------------------------------------


def test_parse_run_config_synthetic_patient():
    config = parse_run_config(
        {
            "seed": 7,
            "patient": {"bpm": 80, "noise": 0.05},
            "vhs_grid": [{"bpm": 60}, {"bpm": 90, "st_offset": 0.2, "seed": 3}],
        }
    )
    assert config.seed == 7
    assert config.patient == PatientParams(bpm=80, noise=0.05)
    assert config.candidates == ({"bpm": 60.0}, {"bpm": 90.0, "st_offset": 0.2, "seed": 3})
    assert config.thresholds.fibrillation_freq == 4.0


def test_parse_run_config_sample_file_resolves_against_base_dir(tmp_path):
    (tmp_path / "sample.json").write_text(json.dumps({"rate": 100, "values": [0.25, -1, 1, 0, 1]}))
    config = parse_run_config({"seed": 1, "patient": {"file": "sample.json"}}, base_dir=str(tmp_path))
    assert isinstance(config.patient, EcgSignal)
    assert config.patient.rate == 100.0
    assert config.patient.values.tolist() == [0.25, -1.0, 1.0, 0.0, 1.0]


def test_parse_run_config_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        parse_run_config({"seed": 1, "patient": {"bpm": 60}, "mystery": 1})
    with pytest.raises(SchemaError):
        parse_run_config({"seed": 1, "patient": {"bpm": 60, "color": "red"}})
    with pytest.raises(SchemaError):
        parse_run_config({"seed": 1, "patient": {"bpm": 60}, "vhs_grid": [{"bpm": 60, "noise": 1}]})
    with pytest.raises(SchemaError):
        parse_run_config({"seed": 1, "patient": {"bpm": 60}, "thresholds": {"zap": 1}})
    with pytest.raises(SchemaError):
        parse_run_config({"seed": 1})


#: The signal-parameter domains ``synthesize_ecg`` enforces, restated.
SIGNAL_DOMAINS = {
    "bpm": lambda v: 0 < v <= 1000,
    "irregularity": lambda v: 0 <= v < 1,
    "st_offset": lambda v: True,
    "noise": lambda v: 0 <= v <= 10,
    "duration": lambda v: 0 < v <= 3600,
    "rate": lambda v: 0 < v <= 2000,
}
PACKAGED_RUN_CONFIG = load_json(data_path("run_config.json"))
#: ``(candidate index or None for the patient, key)`` of every signal field.
SIGNAL_FIELDS = [(None, key) for key in PACKAGED_RUN_CONFIG["patient"] if key in SIGNAL_DOMAINS] + [
    (index, key) for index in range(len(PACKAGED_RUN_CONFIG["vhs_grid"])) for key in ("bpm", "irregularity", "st_offset")
]


def shows_two_beats(bpm, irregularity=0.0, st_offset=0.0, duration=30.0, rate=250.0):
    """The run config's bound on a synthesized signal, restated: a baseline
    within 0.35, two samples per 20 ms beat sigma, neighbouring beats at least
    80 ms apart, and room for the second beat's full bump."""
    rr = 60.0 / bpm
    return abs(st_offset) <= 0.35 and rate >= 100 and rr * (1 - irregularity) >= 0.08 and duration >= rr * (2 + irregularity) + 0.08


def is_finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def signal_records(document):
    """The patient record, then each candidate's at the patient signal's duration
    and rate. That duration is the sample-exact ``round(D·r)/r`` whenever ``D``,
    ``r`` and ``D·r`` are finite numbers (and ``r`` is not 0), else ``D``."""
    patient = document["patient"]
    duration, rate = patient["duration"], patient["rate"]
    if is_finite_number(duration) and is_finite_number(rate) and rate and is_finite_number(duration * rate):
        duration = round(duration * rate) / rate
    shape = {"duration": duration, "rate": rate}
    yield patient
    for candidate in document["vhs_grid"]:
        yield {**{k: v for k, v in candidate.items() if k != "seed"}, **shape}


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(SIGNAL_FIELDS),
    value=st.one_of(st.floats(), st.integers(-10**6, 10**6), st.booleans(), st.none(), st.text(max_size=3)),
)
# 520 samples at 250 Hz, 2.08 s: just what the candidate of bpm 60 needs, though the requested 2.0799 s is not
@example(field=(None, "duration"), value=2.0799)
def test_run_config_signal_fields_parse_cleanly_or_raise_schema_error(field, value):
    index, key = field
    document = copy.deepcopy(PACKAGED_RUN_CONFIG)
    if index is None:
        target, path = document["patient"], "run_config.patient"
    else:
        target, path = document["vhs_grid"][index], f"run_config.vhs_grid[{index}]"
    target[key] = value
    records = [{k: v for k, v in record.items() if k != "noise"} for record in signal_records(document)]
    try:
        config = parse_run_config(document)
    except SchemaError as err:
        if err.path != f"{path}.{key}":
            # a value in its own domain, refused by the bound on a record it enters
            assert isinstance(value, (int, float)) and not isinstance(value, bool) and SIGNAL_DOMAINS[key](value)
            assert not all(shows_two_beats(**record) for record in records)
            assert err.path.startswith(("run_config.patient.", "run_config.vhs_grid["))
        with pytest.raises(SchemaError) as built:
            built_in_code(document, index)
        assert built.value.path == err.path
        return
    number = getattr(config.patient, key) if index is None else config.candidates[index][key]
    assert math.isfinite(number) and SIGNAL_DOMAINS[key](number)
    assert all(shows_two_beats(**record) for record in records)
    built = built_in_code(document, index)
    assert (built.patient, built.candidates) == (config.patient, config.candidates)


def built_in_code(document, index):
    """The packaged run config with ``document``'s patient (``index`` None) or
    candidates put in by code, not by the parser."""
    packaged = parse_run_config(PACKAGED_RUN_CONFIG)
    if index is None:
        return replace(packaged, patient=PatientParams(**document["patient"]))
    return replace(packaged, candidates=tuple(document["vhs_grid"]))


@st.composite
def noiseless_run_configs(draw):
    """Noiseless run-config documents across the signal domains and up to the
    edges of the two-beat bound: a patient and one or two VHS candidates, with
    the patient's duration just long enough for every record plus some slack."""

    def shape():
        irregularity = draw(st.floats(0.0, 0.99))
        bpm = draw(st.floats(1.0, 750.0 * (1.0 - irregularity)))
        return {"bpm": bpm, "irregularity": irregularity, "st_offset": draw(st.floats(-0.35, 0.35))}

    patient, candidates = shape(), [{**shape(), "seed": draw(st.integers(0, 99))} for _ in range(draw(st.integers(1, 2)))]
    need = max(60.0 / r["bpm"] * (2.0 + r["irregularity"]) + 0.08 for r in [patient] + candidates)
    duration = min(3600.0, need + draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 5.0)))
    rate = draw(st.sampled_from([100.0, 2000.0]) | st.floats(100.0, 500.0))
    assume(duration * rate <= 200_000)
    patient.update(noise=0.0, duration=duration, rate=rate, seed=draw(st.integers(0, 99)))
    return {"seed": 1, "patient": patient, "vhs_grid": candidates}


@settings(max_examples=60, deadline=None)
@given(document=noiseless_run_configs())
def test_a_noiseless_signal_inside_the_domain_always_shows_two_beats(document):
    try:
        config = parse_run_config(document)
    except SchemaError:
        reject()  # float rounding at the edge of the restated bound
    bundle, pool, _, _ = load_defaults()
    repo = catch_all_repo(app_actions=[("app.workflow", "EcgVhsAlways")])
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("Balanced"), config)
    assert record.vhs is not None and record.vhs.iterations


#: Run-config records built in code that break a rule, and the path and
#: message each reports when it is built.
CODE_BUILT_RUN_CONFIG_FAULTS = [
    (lambda c: replace(c, candidates=({"bpm": 5000},)), "run_config.vhs_grid[0].bpm", "must be in (0, 1000]"),
    (lambda c: replace(c, patient=replace(c.patient, bpm=2000)), "run_config.patient.bpm", "must be in (0, 1000]"),
    (lambda c: Thresholds(fibrillation_freq=-1), "run_config.thresholds.fibrillation_freq", "must be positive"),
    (
        lambda c: RunConfig(seed=1, patient=PatientParams(bpm=70), candidates=({"bpm": "fast"},)),
        "run_config.vhs_grid[0].bpm",
        "expected finite number",
    ),
    (lambda c: replace(c, seed=1.5), "run_config.seed", "expected integer"),
    (lambda c: replace(c, user_inputs=["note"]), "run_config.user_inputs", "expected object, got list"),
    (
        lambda c: replace(c, patient=EcgSignal(values=[0.0] * 3, rate=5000.0)),
        "run_config.patient.rate",
        "must be in (0, 2000]",
    ),
    (
        lambda c: replace(c, patient=EcgSignal([0.0, 1.0, 0.0, 1.0] * 100, 250.0), candidates=()),
        "run_config.patient.values",
        "expected a non-empty 1-D float array",
    ),
    (
        lambda c: replace(c, patient=EcgSignal(np.array([[0.0, 1.0]] * 100), 250.0), candidates=()),
        "run_config.patient.values",
        "expected a non-empty 1-D float array",
    ),
    (
        lambda c: replace(c, patient=EcgSignal(np.array([0.0, 1.0, math.nan, 1.0]), 250.0), candidates=()),
        "run_config.patient.values",
        "expected finite numbers",
    ),
    (
        lambda c: replace(c, patient=EcgSignal(np.array([0.0, 1.0, 0.0, 1.0]), 19.99), candidates=()),
        "run_config.patient.rate",
        "must be >= 20: the spectral scan's Nyquist rate",
    ),
    (
        lambda c: replace(c, patient=EcgSignal(np.array([0.0, 1.0, -1e101, 1.0]), 250.0), candidates=()),
        "run_config.patient.values",
        "expected magnitudes <= 1e+100",
    ),
    (
        lambda c: replace(c, patient=EcgSignal(np.array([0.0, 1.0]), "250"), candidates=()),
        "run_config.patient.rate",
        "expected finite number",
    ),
    (
        lambda c: replace(c, patient={"bpm": 70}),
        "run_config.patient",
        "expected PatientParams or EcgSignal, got dict",
    ),
    (
        lambda c: RunConfig(1, PatientParams(70), thresholds=None),
        "run_config.thresholds",
        "expected Thresholds, got NoneType",
    ),
    (  # 360,001 samples: the candidate would be synthesized at 3600.0046 s
        lambda c: RunConfig(1, PatientParams(bpm=70, duration=3600, rate=100.00015), ({"bpm": 60},)),
        "run_config.vhs_grid[0]",
        "with the patient signal's duration: must be in (0, 3600]",
    ),
    (  # unknown keys of two types: the least by its text is named
        lambda c: RunConfig(1, PatientParams(70), candidates=[{1: 2, "x": 3, "bpm": 60}]),
        "run_config.vhs_grid[0].1",
        "unknown key",
    ),
]


@pytest.mark.parametrize(
    "build, path, message",
    CODE_BUILT_RUN_CONFIG_FAULTS,
    ids=[
        "candidate-bpm",
        "patient-bpm",
        "thresholds",
        "candidate-text",
        "seed",
        "user-inputs",
        "sample-rate",
        "sample-list",
        "sample-2d",
        "sample-nan",
        "sample-below-nyquist",
        "sample-huge-value",
        "sample-rate-text",
        "patient-type",
        "thresholds-type",
        "candidate-past-3600-s",
        "candidate-mixed-type-unknown-keys",
    ],
)
def test_a_code_built_run_config_that_breaks_a_rule_cannot_be_built(build, path, message):
    config = load_defaults()[3]
    with pytest.raises(SchemaError) as err:
        build(config)
    assert (err.value.path, err.value.message) == (path, message)


@st.composite
def patients_near_the_synthesis_bound(draw):
    """A patient: synthesis parameters (a dict), or the sample count and rate of
    a recorded signal (a tuple). Durations reach 3600 s, and past it once
    rounded to whole samples; rates need not be multiples of 0.1 Hz."""
    rate = draw(st.sampled_from([100.0, 100.00015, 2000.0]) | st.floats(100.0, 2000.0))
    if draw(st.booleans()):
        duration = draw(st.sampled_from([3600, 3600.0]) | st.floats(3599.0, 3600.0) | st.floats(0.5, 3600.0))
        return {"bpm": draw(st.floats(30.0, 300.0)), "duration": duration, "rate": rate}
    rate = 100.0 + rate / 200.0  # at most 110 Hz, so 3600 s stays under 400,000 samples
    n = draw(st.integers(3, 5_000) | st.integers(-2, 2).map(lambda k: round(3600 * rate) + k))
    return n, rate


def candidate_records():
    """VHS candidate records, some outside their own domains."""
    fields = {"irregularity": st.floats(0.0, 1.0), "st_offset": st.floats(-0.5, 0.5), "seed": st.integers(0, 99)}
    return st.fixed_dictionaries({"bpm": st.floats(1.0, 1100.0)}, optional=fields)


def first_refused_candidate(patient, candidates):
    """The index of the first candidate whose noiseless signal, at the patient
    signal's sample-exact duration ``round(D * r) / r`` and rate, leaves a
    restated signal domain or cannot show two beats; None when none does."""
    n, rate = (round(patient["duration"] * patient["rate"]), patient["rate"]) if isinstance(patient, dict) else patient
    duration = n / rate
    for i, candidate in enumerate(candidates):
        record = {"irregularity": 0.0, "st_offset": 0.0, **candidate, "duration": duration, "rate": rate}
        record.pop("seed", None)
        if not (all(SIGNAL_DOMAINS[k](v) for k, v in record.items()) and shows_two_beats(**record)):
            return i
    return None


@settings(max_examples=200, deadline=None)
@given(patient=patients_near_the_synthesis_bound(), candidates=st.lists(candidate_records(), min_size=1, max_size=3))
@example(patient={"bpm": 70, "duration": 3600, "rate": 100.00015}, candidates=[{"bpm": 60}])
def test_a_run_config_builds_exactly_when_every_candidate_signal_is_in_domain_and_shows_two_beats(patient, candidates):
    # nothing is synthesized: a recorded patient is two unit spikes and zeros
    if isinstance(patient, dict):
        try:
            built = PatientParams(**patient)
        except SchemaError:
            reject()  # the patient's own signal cannot show two beats
    else:
        values = np.zeros(patient[0])
        values[[0, 2]] = 1.0
        built = EcgSignal(values, patient[1])
    refused = first_refused_candidate(patient, candidates)
    try:
        RunConfig(1, built, tuple(candidates))
    except SchemaError as err:
        assert refused is not None and err.path.split(".")[1] == f"vhs_grid[{refused}]"
    else:
        assert refused is None


def test_a_checked_run_config_cannot_be_edited_past_its_check():
    bundle, pool, repo, config = load_defaults()
    config = replace(config, user_inputs={"operator.note": "ok"})
    with pytest.raises(TypeError):
        config.candidates[0]["bpm"] = 5000
    with pytest.raises(TypeError):
        config.user_inputs["operator.note"] = "edited"
    assert config.candidates[0]["bpm"] == 60.0
    assert config.user_inputs["operator.note"] == "ok"

    def record(config):
        run = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
        return dump_json(record_document(run))

    assert record(config) == record(load_defaults()[3])


def test_a_checked_run_configs_recorded_signal_cannot_be_edited():
    signal = synthesize_ecg(330, noise=0.02, seed=3)
    recorded = signal.values.copy()
    config = replace(load_defaults()[3], patient=signal)
    with pytest.raises(FrozenInstanceError):
        config.patient.rate = 1e6
    with pytest.raises(ValueError):
        config.patient.values[0] = 1.0
    signal.values[:] = 0.0  # the caller's array, not the config's copy
    assert np.array_equal(config.patient.values, recorded)
    assert config.patient.rate == 250.0
    assert replace_seed(config, 2).patient is config.patient  # copied once, then shared


def test_replace_seed_keeps_everything_else():
    _, _, _, config = load_defaults()
    changed = replace_seed(config, 999)
    assert changed.seed == 999
    assert changed.patient == config.patient
    assert changed.candidates is config.candidates  # checked again, but shared: a study holds a config per replicate


# -- full runs over the packaged documents ------------------------------------------


def test_high_performance_run_matches_simulation_to_a_planted_candidate():
    bundle, pool, repo, config = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)

    assert record.run_id == "run-42"
    assert record.expanded_sla.resource_level == "L1"
    assert record.policy_ids == {"app": "HWP-A", "resource": "RP-A", "workflow": "WP-A"}
    assert record.quorum.level == "L1"
    assert record.quorum.members == ("daegu-01", "daegu-02")
    assert record.config["scheduler.kind"]["value"] == "MinEFT"
    assert record.config["resource.alpha"]["value"] == 0.7

    assert record.diagnosis == "fibrillation"
    assert record.vhs is not None
    assert record.vhs.matched
    assert record.vhs.stop_reason == "matched"
    distances = [it.distance for it in record.vhs.iterations]
    assert distances[-1] <= 0.1
    assert all(d > 0.1 for d in distances[:-1])
    assert record.vhs.best_index == len(record.vhs.iterations)

    # one analysis dispatch plus one per loop iteration
    assert len(record.dispatches) == 1 + len(record.vhs.iterations)
    assert record.completion_time == pytest.approx(sum(d.result.makespan for d in record.dispatches))
    assert [d.index for d in record.dispatches] == list(range(len(record.dispatches)))


def test_node_outcomes_carry_contiguous_simulated_time():
    bundle, pool, repo, config = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert record.nodes[0].node_id == "get-patient-data"
    assert record.nodes[0].start == 0.0
    for outcome in record.nodes:
        assert outcome.start <= outcome.end
    assert record.nodes[-1].end == pytest.approx(record.completion_time)
    # local work is free on the simulated clock
    retrieval = record.nodes[0]
    assert retrieval.end == retrieval.start


def test_low_cost_run_prunes_past_the_analysis():
    bundle, pool, repo, config = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("Low Cost"), config)
    assert [n.node_id for n in record.nodes] == ["get-patient-data", "ecg-analysis"]
    assert record.features is not None
    assert record.diagnosis is None
    assert record.vhs is None
    assert len(record.dispatches) == 1
    assert record.config["app.workflow"]["value"] == "EcgOnly"
    assert record.quorum.level == "L3"


def test_pruning_follows_the_enforced_app_workflow_not_the_sla():
    # The SLA asks for EcgVhs; a higher-priority policy enforces EcgOnly, and the engine acts on that.
    bundle, pool, repo, config = load_defaults()
    override = Policy("HWP-ONLY", PolicyKind.APP, 100, (Predicate("service_level", "==", "EcgVhs"),), (("app.workflow", "EcgOnly"),))
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo + [override], sla_label("High Performance"), config)
    assert record.expanded_sla.service_level == "EcgVhs"
    assert record.config["app.workflow"] == {"value": "EcgOnly", "provenance": "HWP-ONLY"}
    assert [n.node_id for n in record.nodes] == ["get-patient-data", "ecg-analysis"]
    assert len(record.dispatches) == 1
    assert record.diagnosis is None


def test_balanced_run_stops_at_diagnosis_when_loop_is_beyond_service():
    bundle, pool, repo, config = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("Balanced"), config)
    assert record.diagnosis == "fibrillation"
    assert record.vhs is None
    assert [n.node_id for n in record.nodes] == ["get-patient-data", "ecg-analysis", "disease-estimation"]


def test_normal_patient_reaches_the_terminal_report():
    bundle, pool, repo, config = load_defaults()
    config = RunConfig(seed=42, patient=PatientParams(bpm=70, noise=0.02), candidates=config.candidates)
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("Balanced"), config)
    assert record.diagnosis == "normal"
    assert [n.node_id for n in record.nodes][-1] == "normal-report"
    assert record.nodes[-1].detail == {}


def test_arrhythmia_routes_through_longterm_analysis():
    bundle, pool, repo, config = load_defaults()
    config = RunConfig(
        seed=42,
        patient=PatientParams(bpm=60, irregularity=0.3, noise=0.02, duration=60),
        candidates=config.candidates,
    )
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert record.diagnosis == "arrhythmia"
    names = [n.node_id for n in record.nodes]
    assert "arrhythmia-longterm" in names
    assert names[-1] == "normal-report"
    assert record.vhs is None
    longterm = next(n for n in record.nodes if n.node_id == "arrhythmia-longterm")
    assert longterm.detail["report"]["flag"] == "arrhythmia"


def test_vhs_always_reroutes_decision_to_the_loop():
    bundle, pool, repo, config = load_defaults()
    config = RunConfig(seed=42, patient=PatientParams(bpm=70, noise=0.02), candidates=config.candidates)
    override = Policy(
        "force-vhs",
        PolicyKind.APP,
        99,
        (Predicate("service_level", "==", "EcgVhs"),),
        (("app.workflow", "EcgVhsAlways"),),
    )
    record = run_workflow(
        bundle.graph, bundle.subworkflows, pool, repo + [override], sla_label("High Performance"), config
    )
    assert record.diagnosis == "normal"
    decision = next(n for n in record.nodes if n.node_id == "disease-estimation")
    assert decision.detail["outcome"] == "normal"
    assert decision.detail["target"] == "vhs-loop"
    assert record.vhs is not None


def test_run_is_reproducible_byte_for_byte():
    bundle, pool, repo, config = load_defaults()
    records = [
        json.dumps(
            record_document(
                run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
            ),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    assert records[0] == records[1]


def test_random_level_quorum_is_seeded_and_of_l1_size():
    bundle, pool, repo, config = load_defaults()
    repo = catch_all_repo(resource_actions=[("resource.level", "RANDOM")])
    sla = sla_label("Low Cost")
    seen = set()
    for seed in range(12):
        record = run_workflow(
            bundle.graph, bundle.subworkflows, pool, repo, sla, replace_seed(config, seed)
        )
        assert record.quorum.level == "RANDOM"
        assert len(record.quorum.members) == quorum_size(len(pool), 0.25)
        assert set(record.quorum.members) <= {r.id for r in pool}
        seen.add(record.quorum.members)
    assert len(seen) > 1
    again = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, replace_seed(config, 3))
    assert again.quorum.members in seen


# -- loop iteration budget ------------------------------------------------------------


def five_candidate_grid():
    return ({"bpm": 60.0}, {"bpm": 80.0}, {"bpm": 100.0}, {"bpm": 120.0}, {"bpm": 330.0})


def test_loop_budget_from_payload_when_no_policy_writes_it():
    bundle, pool, _, config = load_defaults()
    config = RunConfig(seed=42, patient=config.patient, candidates=five_candidate_grid())
    record = run_workflow(
        bundle.graph, bundle.subworkflows, pool, catch_all_repo(), sla_label("High Performance"), config
    )
    # payload allows 6: the match at candidate five is reached
    assert record.vhs.matched
    assert len(record.vhs.iterations) == 5


def test_loop_budget_from_policy_overrides_payload():
    bundle, pool, _, config = load_defaults()
    config = RunConfig(seed=42, patient=config.patient, candidates=five_candidate_grid())
    repo = catch_all_repo(app_actions=[("app.workflow", "EcgVhs"), ("vhs.max_iter", 2)])
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert not record.vhs.matched
    assert record.vhs.stop_reason == "exhausted"
    assert len(record.vhs.iterations) == 2


def test_loop_tolerance_from_policy_overrides_payload():
    bundle, pool, _, config = load_defaults()
    config = RunConfig(seed=42, patient=config.patient, candidates=five_candidate_grid())
    repo = catch_all_repo(app_actions=[("app.workflow", "EcgVhs"), ("vhs.tolerance", 1e-9)])
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert not record.vhs.matched
    assert len(record.vhs.iterations) == 5


def test_empty_candidate_grid_fails_the_loop_node():
    bundle, pool, repo, config = load_defaults()
    config = RunConfig(seed=42, patient=config.patient, candidates=())
    with pytest.raises(RunError) as err:
        run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert isinstance(err.value.cause, NodeError)
    assert err.value.cause.node_id == "vhs-loop"
    assert isinstance(err.value.cause.cause, EmptyParameterGrid)


# -- patient signal ------------------------------------------------------------------


def test_patient_signal_takes_the_run_seed_unless_the_patient_has_its_own():
    patient = PatientParams(bpm=72, irregularity=0.1, st_offset=0.05, noise=0.02, duration=20, rate=300)
    fields = (72.0, 0.1, 0.05, 0.02, 20.0, 300.0)
    assert patient_signal(patient, 9) == (*fields, 9)
    assert patient_signal(replace(patient, seed=4), 9) == (*fields, 4)
    assert patient_signal(replace(patient, seed=0), 9) == (*fields, 0)
    # the record's float fields, as its check left them
    assert [type(value) for value in patient_signal(patient, 9)[:6]] == [float] * 6


def test_a_run_of_the_packaged_documents_builds_no_patient_params(monkeypatch):
    bundle, pool, repo, config = load_defaults()
    built = []
    check = PatientParams.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PatientParams, "__post_init__", counted)
    for label in ("High Performance", "Balanced", "Low Cost"):
        run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label(label), config)
    assert built == []


# -- features memo ------------------------------------------------------------------


def test_memoised_signal_features_equal_a_direct_extraction():
    _, _, _, config = load_defaults()
    for candidate in config.candidates:
        args = (candidate["bpm"], candidate.get("irregularity", 0.0), candidate.get("st_offset", 0.0))
        seed = candidate.get("seed", 0)
        direct = extract_features(synthesize_ecg(*args, noise=0.0, duration=30.0, rate=250.0, seed=seed))
        assert _signal_features(*args, 0.0, 30.0, 250.0, seed) == direct
        assert _signal_features(*args, 0.0, 30.0, 250.0, seed) == direct  # from the cache


def test_runs_give_the_same_record_from_a_cold_or_a_warm_memo():
    bundle, pool, repo, config = load_defaults()

    def record():
        run = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
        return dump_json(record_document(run))

    _signal_features.cache_clear()
    cold = record()
    assert _signal_features.cache_info().currsize > 0
    assert record() == cold


def test_features_memo_is_bounded():
    maxsize = _signal_features.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_features_memo_does_not_cache_failures():
    # one beat in 3.5 s: extraction fails, and must fail again rather than be remembered
    before = _signal_features.cache_info()
    for _ in range(2):
        with pytest.raises(NoBeatsDetected):
            _signal_features(30.0, 0.0, 0.0, 0.0, 3.5, 250.0, 0)
    after = _signal_features.cache_info()
    assert after.misses - before.misses == 2
    assert after.currsize == before.currsize


def equal_twin(value):
    """A number equal to ``value``, and so of the same ``lru_cache`` key, but
    spelled differently: a zero as the zero of the other sign, an int as a
    float, an integral float as an int."""
    if value == 0:
        return -0.0 if math.copysign(1.0, value) > 0 else 0.0
    if isinstance(value, int):
        return float(value)
    return int(value) if value.is_integer() else value


@st.composite
def patients_and_twins(draw):
    """The memo's arguments for a patient across the ``PatientParams`` domain,
    sized so synthesis stays cheap, with ints, integral floats and both zeros
    drawn; and the twin arguments, equal field by field but spelled differently."""
    args = (
        draw(st.integers(1, 1000) | st.floats(1.0, 1000.0)),  # bpm
        draw(st.sampled_from([0, 0.0, 0.5]) | st.floats(0.0, 0.99)),  # irregularity
        draw(st.sampled_from([0, 0.0, -0.0]) | st.floats(-0.35, 0.35)),  # st_offset
        draw(st.sampled_from([0, 0.0, 10]) | st.floats(0.0, 10.0)),  # noise
        draw(st.integers(1, 20) | st.floats(0.1, 20.0)),  # duration
        draw(st.sampled_from([100, 250, 2000]) | st.floats(100.0, 500.0)),  # rate
    )
    assume(args[4] * args[5] <= 20_000)
    try:
        PatientParams(*args)
    except SchemaError:
        reject()  # outside the domain, or a signal that cannot show two beats
    seed = draw(st.integers(0, 2**63))
    return (*args, seed), (*map(equal_twin, args), seed)


def features_or_error(call):
    """``call()``'s features, bit for bit, or the type of error it raised."""
    try:
        return repr(call())
    except NoBeatsDetected as err:
        return type(err)


@settings(max_examples=100, deadline=None)
@given(pair=patients_and_twins())
def test_the_features_memo_equals_a_fresh_extraction_cold_and_warm(pair):
    args, twin = pair
    _signal_features.cache_clear()
    for key in (args, twin):  # the cold call, then a warm one through the twin's equal key
        signal = synthesize_ecg(*key)
        assert features_or_error(lambda: _signal_features(*key)) == features_or_error(lambda: extract_features(signal))
        # a candidate is synthesized at the patient signal's duration and rate, derived without synthesizing it
        derived = candidate_signal({"bpm": 60}, PatientParams(*key))[4:6]
        assert [v.hex() for v in derived] == [signal.duration.hex(), signal.rate.hex()]
    info = _signal_features.cache_info()
    assert info.hits == info.currsize  # one hit when the features are kept; a failure is never kept


# -- recorded samples -----------------------------------------------------------------


def test_sample_file_patient_round_trips_exactly(tmp_path):
    signal = synthesize_ecg(bpm=330, noise=0.02, duration=30, seed=17)
    sample = {"rate": signal.rate, "values": [float(v) for v in signal.values]}
    (tmp_path / "sample.json").write_text(json.dumps(sample))
    config = parse_run_config(
        {"seed": 5, "patient": {"file": "sample.json"}}, base_dir=str(tmp_path)
    )
    bundle, pool, repo, _ = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("Balanced"), config)
    expected = extract_features(signal)
    assert record.features == expected
    assert record.diagnosis == "fibrillation"


def test_sample_file_validation(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"rate": 0, "values": [1.0]}))
    with pytest.raises(SchemaError):
        parse_run_config({"seed": 5, "patient": {"file": "bad.json"}}, base_dir=str(tmp_path))


# -- inline graphs ------------------------------------------------------------------


def ask_graph():
    return WorkflowGraph(
        "w",
        (
            Node("ask", NodeKind.USER_INPUT, {"key": "operator.note"}),
            Node("done", NodeKind.TERMINAL),
        ),
        (("ask", "done"),),
        "ask",
    )


def test_user_input_node_reads_the_run_configs_user_inputs():
    pool = parse_pool(load_json(data_path("pool.json")))
    config = RunConfig(seed=1, patient=PatientParams(bpm=70), user_inputs={"operator.note": "ok"})
    record = run_workflow(ask_graph(), {}, pool, catch_all_repo(), sla_label("Balanced"), config)
    assert record.nodes[0].detail == {"key": "operator.note"}

    with pytest.raises(RunError) as err:
        run_workflow(ask_graph(), {}, pool, catch_all_repo(), sla_label("Balanced"), replace(config, user_inputs={}))
    assert isinstance(err.value.cause.cause, MissingInput)


def test_a_run_synthesizes_the_patient_signal_only_when_a_node_retrieves_it(monkeypatch):
    pool = parse_pool(load_json(data_path("pool.json")))
    config = RunConfig(seed=1, patient=PatientParams(bpm=70), user_inputs={"operator.note": "ok"})

    def refuse(*args, **kwargs):
        raise AssertionError("the run synthesized a signal")

    monkeypatch.setattr(engine, "synthesize_ecg", refuse)
    record = run_workflow(ask_graph(), {}, pool, catch_all_repo(), sla_label("Balanced"), config)
    assert [n.node_id for n in record.nodes] == ["ask", "done"]


def test_run_config_thresholds_and_user_inputs_reach_the_run():
    # The packaged patient reads as fibrillation (dominant frequency 5.5 Hz > 4.0)
    # and its RR spread is 0.017 of the mean; these thresholds make it an arrhythmia.
    document = {
        **PACKAGED_RUN_CONFIG,
        "thresholds": {"fibrillation_freq": 6.0, "arrhythmia_rr": 0.01},
        "user_inputs": {"operator.note": "checked"},
    }
    config = parse_run_config(document)
    bundle, pool, repo, _ = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert record.diagnosis == "arrhythmia"
    assert [n.node_id for n in record.nodes][-2:] == ["arrhythmia-longterm", "normal-report"]

    record = run_workflow(ask_graph(), {}, pool, catch_all_repo(), sla_label("Balanced"), config)
    assert record.nodes[0].detail == {"key": "operator.note"}


#: The edited value that deletes its payload key instead.
DELETED = object()


def edited_graph(graph, index, key, value):
    """``graph`` rebuilt with one field set in code: ``index`` None sets the
    graph's own field, key ``"id"`` the node's id, key ``"payload"`` its whole
    payload, any other key the node's payload entry, which ``DELETED`` deletes."""
    if index is None:
        return replace(graph, **{key: value})
    nodes = list(graph.nodes)
    if key in ("id", "payload"):
        nodes[index] = nodes[index]._replace(**{key: value})
    else:
        payload = {k: v for k, v in nodes[index].payload.items() if k != key}
        if value is not DELETED:
            payload[key] = value
        nodes[index] = Node(nodes[index].id, nodes[index].kind, payload)
    return replace(graph, nodes=tuple(nodes))


#: ``edited_graph`` edits that break a workflow rule, and the path and message
#: the graph reports when it is built.
CODE_BUILT_GRAPH_FAULTS = [
    ((2, "rule_table", DELETED), "workflow.nodes[2].payload.rule_table", "required for kind Decision"),
    ((None, "entry", "ghost"), "workflow(ghost)", "entry node 'ghost' does not exist"),
    ((0, "id", "a,b\nc"), "workflow.nodes[0].id", "must not contain a comma, a double quote, CR or LF"),
    ((None, "edges", (("get-patient-data",),)), "workflow.edges[0]", "expected [from-node-id, to-node-id]"),
    ((2, "branches", {1: "t", "x": "t"}), "workflow.nodes[2].payload.branches", "expected non-empty string labels, got 1"),
    ((5, "payload", {1: 0, "b": 0}), "workflow.nodes[5].payload.1", "unknown key"),  # the Terminal node
]


@pytest.mark.parametrize("edit, path, message", CODE_BUILT_GRAPH_FAULTS, ids=[fault[1] for fault in CODE_BUILT_GRAPH_FAULTS])
def test_a_code_built_graph_that_breaks_a_rule_cannot_be_built(edit, path, message):
    bundle = load_defaults()[0]
    with pytest.raises(SchemaError) as err:
        edited_graph(bundle.graph, *edit)
    assert (err.value.path, err.value.message) == (path, message)


def test_a_checked_graph_cannot_be_edited_past_its_check():
    bundle, pool, repo, config = load_defaults()
    loop, decision = bundle.graph.node("vhs-loop"), bundle.graph.node("disease-estimation")
    with pytest.raises(TypeError):
        del loop.payload["tolerance"]
    with pytest.raises(TypeError):
        decision.payload["branches"]["fibrillation"] = "normal-report"
    assert loop.payload["tolerance"] == 0.1
    assert decision.payload["branches"]["fibrillation"] == "vhs-loop"

    def record(bundle):
        run = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
        return dump_json(record_document(run))

    assert record(bundle) == record(load_defaults()[0])


#: Edits of the packaged ``ecg-analysis`` sub-workflow, built in code, that
#: break a sub-workflow rule, and the path and message it reports when built.
CODE_BUILT_SUBWORKFLOW_FAULTS = [
    (
        lambda s: replace(s, data_deps=s.data_deps + (("ghost", "classify", 1.0),)),
        "subworkflow.data_deps[2]",
        "unknown task 'ghost'",
    ),
    (
        lambda s: replace(s, tasks=tuple(t._replace(work=-t.work) for t in s.tasks)),
        "subworkflow.tasks[0].work",
        "work must be in (0, 1e12]",
    ),
    (lambda s: replace(s, tasks=s.tasks + s.tasks[:1]), "subworkflow.tasks[3].id", "duplicate task id 'preprocess'"),
    # ids and transformations are strings, which the order and the catalogs sort
    (
        lambda s: AbstractSubWorkflow("s", (TaskSpec(1, 1.0, "t"), TaskSpec("a", 1.0, "t")), (), ()),
        "subworkflow.tasks[0].id",
        "expected non-empty string",
    ),
    (
        lambda s: AbstractSubWorkflow("s", (TaskSpec("a", 1.0, "t"), TaskSpec("b", 1.0, 5)), (), ()),
        "subworkflow.tasks[1].transformation",
        "expected non-empty string",
    ),
    (
        lambda s: replace(s, tasks=s.tasks[:2] + (s.tasks[2]._replace(id=""),)),
        "subworkflow.tasks[2].id",
        "expected non-empty string",
    ),
]


@pytest.mark.parametrize(
    "edit, path, message", CODE_BUILT_SUBWORKFLOW_FAULTS, ids=[fault[1] for fault in CODE_BUILT_SUBWORKFLOW_FAULTS]
)
def test_a_code_built_subworkflow_that_breaks_a_rule_cannot_be_built(edit, path, message):
    subworkflow = load_defaults()[0].subworkflows["ecg-analysis"]
    with pytest.raises(SchemaError) as err:
        edit(subworkflow)
    assert (err.value.path, err.value.message) == (path, message)


#: ``edited_graph`` edits naming something the engine does not register, and
#: the path ``check_workflow`` reports each at.
CODE_BUILT_FAULTS = [
    ((0, "key", "lab.results"), "workflow.nodes[0].payload.key"),
    ((1, "produces", "nope"), "workflow.nodes[1].payload.produces"),
    ((1, "subworkflow", "nope"), "workflow.nodes[1].payload.subworkflow"),
    ((2, "rule_table", "nope"), "workflow.nodes[2].payload.rule_table"),
    ((2, "branches", {"normal": "normal-report"}), "workflow.nodes[2].payload.branches"),
    ((3, "function", "nope"), "workflow.nodes[3].payload.function"),
    ((4, "subworkflow", "nope"), "workflow.nodes[4].payload.subworkflow"),
]


@pytest.mark.parametrize("edit, path", CODE_BUILT_FAULTS, ids=[path for _, path in CODE_BUILT_FAULTS])
def test_a_code_built_graph_is_checked_before_any_node_runs(monkeypatch, edit, path):
    bundle, pool, repo, config = load_defaults()
    graph = edited_graph(bundle.graph, *edit)

    def refuse(ctx, node):
        raise AssertionError(f"node {node.id} ran")

    monkeypatch.setattr(engine, "_execute_node", refuse)
    with pytest.raises(RunError) as err:
        run_workflow(graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    assert isinstance(err.value.cause, SchemaError)
    assert err.value.cause.path == path


def test_data_retrieval_only_knows_the_patient_source():
    graph = WorkflowGraph(
        "w",
        (Node("get", NodeKind.DATA_RETRIEVAL, {"key": "lab.results"}),),
        (),
        "get",
    )
    pool = parse_pool(load_json(data_path("pool.json")))
    config = RunConfig(seed=1, patient=PatientParams(bpm=70))
    with pytest.raises(RunError) as err:
        run_workflow(graph, {}, pool, catch_all_repo(), sla_label("Balanced"), config)
    assert isinstance(err.value.cause, SchemaError)
    assert err.value.cause.path == "workflow.nodes[0].payload.key"
    assert err.value.cause.message == "expected one of ['patient.ecg']"


# -- outputs ---------------------------------------------------------------------------


def test_node_timings_csv_layout():
    bundle, pool, repo, config = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("Low Cost"), config)
    text = node_timings_csv(record)
    lines = text.splitlines()
    assert lines[0] == "node,kind,start,end"
    assert lines[1].startswith("get-patient-data,DataRetrieval,0.000000,")
    assert len(lines) == 1 + len(record.nodes)
    for line in lines[1:]:
        start, end = line.split(",")[2:]
        assert len(start.split(".")[1]) == 6
        assert len(end.split(".")[1]) == 6
    assert "\r" not in text


def test_record_document_is_json_serializable_and_complete():
    bundle, pool, repo, config = load_defaults()
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla_label("High Performance"), config)
    document = record_document(record)
    text = json.dumps(document, sort_keys=True)
    assert json.loads(text) == document
    assert document["sla"]["soft_label"] == "High Performance"
    assert document["expanded_sla"]["soft_label"] is None
    assert document["quorum"] == {"level": "L1", "members": ["daegu-01", "daegu-02"]}
    assert len(document["dispatches"]) == len(record.dispatches)
    assert document["vhs"]["matched"] is True
    assert document["completion_time"] == record.completion_time
