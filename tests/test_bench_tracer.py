"""The benchmark tracer wraps package functions at the module attributes their
callers use; renaming one, or calling it another way, must fail here rather
than silently break a traced benchmark run."""

import importlib.resources
from pathlib import Path

from hybridwms import documents, ecg, engine, experiments, gridengine, resources, simkernel
from hybridwms.policy import parse_repository, parse_sla

BENCH = Path(__file__).resolve().parent.parent / "bench"


def data_path(rel):
    return importlib.resources.files("hybridwms") / "data" / rel


def test_tracer_installs_counts_through_the_package_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    owners = (documents, ecg, engine, experiments, gridengine, gridengine.Catalogs, resources, simkernel)
    before = {owner: dict(vars(owner)) for owner in owners}
    bundle = experiments.load_workflow_bundle(data_path("workflows/heart-disease.json"))
    pool = resources.parse_pool(documents.load_json(data_path("pool.json")))
    repo = parse_repository(documents.load_json(data_path("policies.json")))
    sla = parse_sla(documents.load_json(data_path("slas/high_performance.json")))
    config = engine.parse_run_config(documents.load_json(data_path("run_config.json")))

    engine._signal_features.cache_clear()  # a memo warmed by earlier tests would hide every synthesis
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op():
            record = engine.run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
            documents.dump_json(engine.record_document(record))
            experiments.run_cost_study(pool, horizon=1, samples_per_hour=2)
    finally:
        tracer.uninstall()
    assert {owner: dict(vars(owner)) for owner in owners} == before

    _, calls = tracer.self_times_ms()
    for span in (
        "engine.run",
        "engine.record_document",
        "documents.dump_json",
        "policy.decide",
        "policy.enforce",
        "resources.quorum",
        "ecg.synthesize",
        "ecg.extract",
        "ecg.detect_beats",
        "ecg.dominant_frequency",
        "gridengine.map",
        "gridengine.execute",
        "experiments.cost_study",
        "resources.cost_table",
        "resources.quorum_mean",
    ):
        assert calls.get(span, 0) > 0, span
    for counter in ("gridengine.resources_with.calls", "workflow.topological_order.calls", "resources.metric_at.calls"):
        assert tracer.counts[counter] > 0, counter

    # the plan and execution observers: one mapped task per plan record, one catalog
    # lookup per mapped task, and one estimate match per dispatch
    assert record.dispatches
    tasks_mapped = sum(len(d.result.plan.assignments) for d in record.dispatches)
    assert tracer.counts["gridengine.tasks_mapped"] == tasks_mapped
    assert tracer.counts["gridengine.resources_with.calls"] == tasks_mapped
    assert tracer.counts["gridengine.estimate_match"] == len(record.dispatches)
