"""Catalogs, workflow mapping, and plan execution tests."""

import hashlib
import importlib.resources
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridwms import gridengine, simkernel, workflow
from hybridwms.documents import dump_json, load_json
from hybridwms.engine import record_document, run_workflow
from hybridwms.errors import WmsError
from hybridwms.experiments import load_workflow_bundle
from hybridwms.gridengine import execute_plan, map_workflow
from hybridwms.policy import parse_repository, parse_sla
from hybridwms.resources import (
    AllocationCostParams,
    MetricTrace,
    Quorum,
    ResourceDescriptor,
    generate_arq,
    parse_pool,
)
from hybridwms.runconfig import parse_run_config
from hybridwms.simkernel import PlannedTransfer, TaskRecord, TransferRecord, effective_rate, exec_time, transfer_time
from hybridwms.workflow import AbstractSubWorkflow, TaskSpec, topological_order

PARAMS = AllocationCostParams()
GOLDEN = Path(__file__).resolve().parent / "golden"
PACKAGED_SLAS = ("balanced", "high_performance", "low_cost")


def make_resource(rid, site, cpu_rate=100.0, sys_base=0.0, bandwidth=1e7, latency=0.05, noise=0.0, seed=0):
    return ResourceDescriptor(
        id=rid,
        site=site,
        cpu_rate=cpu_rate,
        net_trace=MetricTrace(base=0.2),
        sys_trace=MetricTrace(base=sys_base, noise_sigma=noise, seed=seed),
        bandwidth=bandwidth,
        latency=latency,
    )


def two_site_pool():
    return {
        "r1": make_resource("r1", "alpha", cpu_rate=200.0),
        "r2": make_resource("r2", "alpha", cpu_rate=100.0),
        "r3": make_resource("r3", "beta", cpu_rate=150.0, bandwidth=1e6, latency=0.2),
    }


def quorum_of(pool, *ids):
    return Quorum("L2", tuple(ids))


def assignment_of(plan, task_id):
    return next(p.resource_id for p in plan.assignments if p.task_id == task_id)


def diamond_subwf():
    return AbstractSubWorkflow(
        "diamond",
        (
            TaskSpec("a", 100.0, "prep"),
            TaskSpec("b", 150.0, "solve"),
            TaskSpec("c", 150.0, "solve"),
            TaskSpec("d", 50.0, "merge"),
        ),
        (("a", "b", 2e6), ("a", "c", 2e6), ("b", "d", 1e6), ("c", "d", 1e6)),
        (("seed.dat", 4e6, "a"),),
    )


def random_subwf(rng, n_tasks):
    ids = [f"t{i:02d}" for i in range(n_tasks)]
    tasks = tuple(TaskSpec(tid, rng.uniform(20, 800), rng.choice(["tfa", "tfb"])) for tid in ids)
    deps = []
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.random() < 0.3:
                deps.append((ids[i], ids[j], rng.uniform(0, 5e6)))
    inputs = (("in.dat", rng.uniform(0, 5e6), ids[0]),)
    return AbstractSubWorkflow("rand", tasks, tuple(deps), inputs)


def random_pool(rng, n):
    pool = {}
    for i in range(n):
        rid = f"r{i}"
        pool[rid] = make_resource(
            rid,
            site=f"site{rng.randrange(2)}",
            cpu_rate=rng.uniform(50, 250),
            sys_base=rng.uniform(0, 0.7),
            bandwidth=rng.choice([1e6, 1e7]),
            latency=rng.uniform(0, 0.2),
            noise=0.03,
            seed=rng.randrange(1 << 16),
        )
    return pool


# -- catalogs -----------------------------------------------------------------


def test_catalogs_list_providers_in_quorum_rank_order(monkeypatch):
    # the mapper asks the catalog once per task, and every member provides
    # every transformation, in rank order
    pool = two_site_pool()
    resources_with = gridengine.Catalogs.resources_with
    asked = []

    def recording(catalogs, transformation):
        asked.append((transformation, resources_with(catalogs, transformation)))
        return asked[-1][1]

    monkeypatch.setattr(gridengine.Catalogs, "resources_with", recording)
    subwf = diamond_subwf()
    for members in (("r3", "r1", "r2"), ("r2", "r1"), ("r1", "r3")):
        asked.clear()
        map_workflow(subwf, quorum_of(pool, *members), pool)
        assert sorted(asked) == sorted((t.transformation, members) for t in subwf.tasks)


# -- scheduling ----------------------------------------------------------------


def test_min_eft_prefers_faster_resource_and_breaks_ties_low_id():
    pool = {
        "r1": make_resource("r1", "s", cpu_rate=200.0),
        "r2": make_resource("r2", "s", cpu_rate=100.0),
    }
    subwf = AbstractSubWorkflow("w", (TaskSpec("a", 200.0, "tf"), TaskSpec("b", 200.0, "tf")), (), ())
    plan = map_workflow(subwf, quorum_of(pool, "r1", "r2"), pool)
    # a: r1 finishes at 1.0 (vs 2.0); b: r1 again at 2.0, tying r2 at 2.0
    assert assignment_of(plan, "a") == "r1"
    assert assignment_of(plan, "b") == "r1"
    assert plan.makespan_estimate == pytest.approx(2.0)


def test_round_robin_cycles_quorum_in_rank_order():
    pool = two_site_pool()
    subwf = AbstractSubWorkflow(
        "w",
        tuple(TaskSpec(f"t{i}", 10.0, "tf") for i in range(5)),
        (),
        (),
    )
    plan = map_workflow(subwf, quorum_of(pool, "r2", "r1"), pool, scheduler="RoundRobin")
    assert [p.resource_id for p in plan.assignments] == ["r2", "r1", "r2", "r1", "r2"]


def test_random_scheduler_is_seed_deterministic():
    pool = random_pool(random.Random(1), 5)
    subwf = random_subwf(random.Random(2), 8)
    quorum = generate_arq(list(pool.values()), "L3", 0.0, PARAMS)
    first = map_workflow(subwf, quorum, pool, scheduler="Random", seed=77)
    second = map_workflow(subwf, quorum, pool, scheduler="Random", seed=77)
    assert first == second
    plans = {map_workflow(subwf, quorum, pool, scheduler="Random", seed=s).assignments for s in range(10)}
    assert len(plans) > 1


def test_unknown_scheduler_rejected():
    pool = two_site_pool()
    with pytest.raises(WmsError, match=r"^unknown scheduler 'Greedy'$") as excinfo:
        map_workflow(diamond_subwf(), quorum_of(pool, "r1"), pool, scheduler="Greedy")
    assert type(excinfo.value) is WmsError


def test_quorum_member_missing_from_pool_rejected():
    pool = two_site_pool()
    with pytest.raises(WmsError, match=r"^quorum members absent from pool: \['ghost'\]$") as excinfo:
        map_workflow(diamond_subwf(), quorum_of(pool, "r1", "ghost"), pool)
    assert type(excinfo.value) is WmsError


def test_a_quorum_without_members_is_rejected():
    pool = parse_pool(load_json(importlib.resources.files("hybridwms") / "data" / "pool.json"))
    for scheduler in gridengine.SCHEDULER_KINDS:
        with pytest.raises(WmsError, match=r"^quorum L1 has no members$") as excinfo:
            map_workflow(diamond_subwf(), Quorum("L1", ()), pool, scheduler=scheduler)
        assert type(excinfo.value) is WmsError


def test_absent_quorum_members_are_named_in_rank_order():
    pool = two_site_pool()
    with pytest.raises(WmsError, match=r"^quorum members absent from pool: \['ghost', 'phantom'\]$") as excinfo:
        map_workflow(diamond_subwf(), quorum_of(pool, "ghost", "r1", "phantom"), pool)
    assert type(excinfo.value) is WmsError


def test_min_eft_may_place_any_transformation_on_any_member():
    # every member provides every transformation, so both tasks of a chain
    # of two transformations go to the fast member ranked second
    pool = {
        "r1": make_resource("r1", "s", cpu_rate=100.0),
        "r2": make_resource("r2", "s", cpu_rate=400.0),
    }
    subwf = AbstractSubWorkflow("w", (TaskSpec("a", 100.0, "prep"), TaskSpec("b", 100.0, "solve")), (("a", "b", 0.0),), ())
    plan = map_workflow(subwf, quorum_of(pool, "r1", "r2"), pool)
    assert [p.resource_id for p in plan.assignments] == ["r2", "r2"]
    assert plan.makespan_estimate == pytest.approx(0.5)


def test_round_robin_places_tasks_of_every_transformation():
    pool = two_site_pool()
    subwf = AbstractSubWorkflow(
        "w", tuple(TaskSpec(f"t{i}", 10.0, name) for i, name in enumerate(("prep", "solve", "merge"))), (), ()
    )
    plan = map_workflow(subwf, quorum_of(pool, "r3", "r1"), pool, scheduler="RoundRobin")
    assert [p.resource_id for p in plan.assignments] == ["r3", "r1", "r3"]


def test_stage_in_transfers_only_for_tasks_off_the_replica_host():
    pool = two_site_pool()
    subwf = AbstractSubWorkflow(
        "w",
        (TaskSpec("a", 100.0, "tf"), TaskSpec("b", 100.0, "tf")),
        (),
        (("fa", 1e6, "a"), ("fb", 1e6, "b")),
    )
    quorum = quorum_of(pool, "r1", "r3")
    plan = map_workflow(subwf, quorum, pool, scheduler="RoundRobin")
    assert assignment_of(plan, "a") == "r1"
    assert assignment_of(plan, "b") == "r3"
    assert len(plan.transfers) == 1
    (transfer,) = plan.transfers
    assert (transfer.file, transfer.src_resource, transfer.dst_resource) == ("fb", "r1", "r3")


# -- estimates vs. execution -----------------------------------------------------


def replay_estimates(plan, pool):
    """Independent replay of the timing recurrence over the finished plan."""
    replica_host = None
    deps_into = {}
    for producer, consumer, size in plan.dependencies:
        deps_into.setdefault(consumer, []).append((producer, size))
    stage_ins = {}
    for t in plan.transfers:
        stage_ins.setdefault(t.consumer, []).append(t)
        replica_host = t.src_resource
    placed = {p.task_id: p.resource_id for p in plan.assignments}
    busy_until = {}
    end_of = {}
    records = []
    for planned in plan.assignments:
        ready = 0.0
        for t in stage_ins.get(planned.task_id, ()):
            ready = max(ready, transfer_time(t.size_bytes, pool[t.src_resource], pool[t.dst_resource]))
        for producer, size in deps_into.get(planned.task_id, ()):
            arrival = end_of[producer]
            if placed[producer] != planned.resource_id:
                arrival += transfer_time(size, pool[placed[producer]], pool[planned.resource_id])
            ready = max(ready, arrival)
        start = max(ready, busy_until.get(planned.resource_id, 0.0))
        end = start + exec_time(planned.work, pool[planned.resource_id], start)
        busy_until[planned.resource_id] = end
        end_of[planned.task_id] = end
        records.append((planned.task_id, ready, start, end))
    return records


def seeded_plans():
    """Yield ``(plan, pool, subwf, replica host)`` for 25 seeded random mappings."""
    rng = random.Random(99)
    for case in range(25):
        pool = random_pool(rng, rng.randint(2, 6))
        subwf = random_subwf(rng, rng.randint(2, 9))
        level = rng.choice(["L1", "L2", "L3"])
        quorum = generate_arq(list(pool.values()), level, rng.uniform(0, 3600), PARAMS)
        scheduler = rng.choice(["MinEFT", "RoundRobin", "Random"])
        plan = map_workflow(subwf, quorum, pool, scheduler=scheduler, seed=case)
        yield plan, pool, subwf, quorum.members[0]


def test_estimates_match_independent_replay_and_simulation():
    for plan, pool, _, _ in seeded_plans():
        replay = replay_estimates(plan, pool)
        for estimate, (tid, ready, start, end) in zip(plan.assignments, replay):
            assert estimate.task_id == tid
            assert estimate.ready == ready
            assert estimate.start == start
            assert estimate.end == end
        result = execute_plan(plan, pool)
        assert result.makespan == plan.makespan_estimate


def test_execution_reads_the_plans_records_and_no_load(monkeypatch):
    plans = list(seeded_plans())

    def no_load(trace, t):
        raise AssertionError("execution read a load")

    monkeypatch.setattr(simkernel, "metric_at", no_load)
    for plan, pool, _, _ in plans:
        result = execute_plan(plan, pool)
        assert result.plan is plan
        assert result.makespan == plan.makespan_estimate


def test_each_load_is_read_once_per_resource_and_start(monkeypatch):
    # A mapping times many candidate placements that start on the same
    # resource at the same instant; through its rate memo it reads that load once.
    finish_time, metric_at = gridengine._finish_time, simkernel.metric_at
    memos = {}  # every rate memo by id, kept alive so that no two share an id
    timing = []  # (memo id, resource id) of the _finish_time running now
    placements = []  # (memo id, resource id, start) of every _finish_time
    reads = []  # (memo id, resource id, t) of every metric_at call

    def observed_finish_time(inputs, resource, avail_end, work, rates):
        memos[id(rates)] = rates
        timing.append((id(rates), resource.id))
        try:
            ready, start, end = finish_time(inputs, resource, avail_end, work, rates)
        finally:
            timing.pop()
        placements.append((id(rates), resource.id, start))
        return ready, start, end

    def counted_metric_at(trace, t):
        reads.append((*timing[-1], t))
        return metric_at(trace, t)

    monkeypatch.setattr(gridengine, "_finish_time", observed_finish_time)
    monkeypatch.setattr(simkernel, "metric_at", counted_metric_at)
    for plan, pool, _, _ in seeded_plans():  # maps each plan, then executes it
        execute_plan(plan, pool)
    assert len(reads) == len(set(reads))  # no memo reads a (resource, start) twice
    assert set(reads) == set(placements)  # and each one it timed was read
    assert len(reads) < len(placements)  # the seeded mappings do repeat placements


@st.composite
def estimator_inputs(draw):
    """``(pool, producers, stage-ins)``: up to six resources over three sites,
    with repeated bandwidths and latencies; producers ``(resource id, end,
    bytes)`` and stage-ins ``(source id, bytes)`` of one task, sizes from 0."""
    pool = {}
    for i in range(draw(st.integers(1, 6))):
        pool[f"r{i}"] = make_resource(
            f"r{i}",
            site=draw(st.sampled_from(["s0", "s1", "s2"])),
            bandwidth=draw(st.sampled_from([1e6, 4e6, 1e7])),
            latency=draw(st.sampled_from([0.0, 0.05, 0.2])),
        )
    ids = st.sampled_from(sorted(pool))
    sizes = st.one_of(st.just(0.0), st.floats(0.0, 1e8))
    producers = draw(st.lists(st.tuples(ids, st.floats(0.0, 1e4), sizes), max_size=4))
    return pool, producers, draw(st.lists(st.tuples(ids, sizes), max_size=3))


def leaving(leaves, source, size):
    """A task input as ``_finish_time`` takes it: ``(leaves, site, bandwidth, latency, bytes)``."""
    return (leaves, source.site, source.bandwidth, source.latency, size)


@settings(max_examples=300, deadline=None)
@given(case=estimator_inputs())
def test_a_task_is_ready_when_its_last_input_arrives_after_transfer_time(case):
    # _finish_time computes transfer_time inline; this ties its copy to the
    # definition that bench checks and the oracles use.
    pool, producers, stage_ins = case
    inputs = [(0.0, src, size) for src, size in stage_ins]  # (leaves, source id, bytes)
    avail = {}  # each producer ends its resource's last task
    for rid, end, size in producers:
        avail[rid] = end
        inputs.append((end, rid, size))
    gathered = [leaving(leaves, pool[src], size) for leaves, src, size in inputs]
    for r in pool:
        arrivals = [leaves + (transfer_time(size, pool[src], pool[r]) if src != r else 0.0) for leaves, src, size in inputs]
        ready, start, _ = gridengine._finish_time(gathered, pool[r], avail.get(r, 0.0), 100.0, {})
        assert ready == max([0.0] + arrivals)
        assert start == max(ready, avail.get(r, 0.0))


def test_a_task_timed_again_starts_after_a_task_committed_in_between():
    # The same inputs on a resource whose last task now ends later.
    pool = two_site_pool()  # r1 and r2 at alpha; r3 at beta, 1 MB/s, 0.2 s
    inputs = [leaving(0.0, pool["r3"], 4e6), leaving(10.0, pool["r1"], 1e6)]
    rates = {}
    assert gridengine._finish_time(inputs, pool["r2"], 0.0, 100.0, rates) == (10.0, 10.0, 11.0)  # stage-in lands at 4.2
    assert gridengine._finish_time(inputs, pool["r2"], 50.0, 100.0, rates) == (10.0, 50.0, 51.0)


def tied_plans():
    """Yield ``(plan, pool, subwf, replica host)`` on identical noiseless
    resources, where many transfers end at the same time."""
    rng = random.Random(7)
    for case in range(60):
        pool = {f"r{i}": make_resource(f"r{i}", f"site{i % 2}", bandwidth=1e6, latency=0.1) for i in range(rng.randint(2, 6))}
        ids = [f"t{i:02d}" for i in range(rng.randint(2, 12))]
        tasks = tuple(TaskSpec(tid, rng.choice([100.0, 200.0]), "tf") for tid in ids)
        deps = [(a, b, rng.choice([0.0, 1e6])) for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < 0.3]
        rng.shuffle(deps)  # so dependency order differs from producer plan order
        inputs = tuple((f"in{k}", rng.choice([0.0, 1e6]), rng.choice(ids)) for k in range(3))
        subwf = AbstractSubWorkflow("tied", tasks, tuple(deps), inputs)
        quorum = quorum_of(pool, *pool)
        plan = map_workflow(subwf, quorum, pool, scheduler=rng.choice(["MinEFT", "RoundRobin", "Random"]), seed=case)
        yield plan, pool, subwf, quorum.members[0]


def test_transfer_records_follow_producer_ends():
    # One record per stage-in whose consumer is off the replica host (start 0)
    # and one per cross-resource dependency (start at the producer's end), in
    # (end, start, producer plan position, dependency order) order; stage-ins
    # count as position -1.
    for plan, pool, subwf, host in itertools.chain(seeded_plans(), tied_plans()):
        result = execute_plan(plan, pool)
        placed = {p.task_id: p.resource_id for p in plan.assignments}
        position = {p.task_id: i for i, p in enumerate(plan.assignments)}
        end = {r.task_id: r.end for r in result.plan.assignments}
        keyed = []
        for index, (file, size, consumer) in enumerate(subwf.inputs):
            dst = placed[consumer]
            if dst != host:
                keyed.append(((-1, index), (file, host, dst, size, 0.0)))
        for index, (producer, consumer, size) in enumerate(subwf.data_deps):
            src, dst = placed[producer], placed[consumer]
            if src != dst:
                keyed.append(((position[producer], index), (f"{producer}->{consumer}", src, dst, size, end[producer])))
        expected = []
        for order, (file, src, dst, size, start) in keyed:
            finish = start + transfer_time(size, pool[src], pool[dst])
            expected.append(((finish, start) + order, (file, src, dst, size, start, finish)))
        expected.sort()
        actual = [(r.file, r.src_resource, r.dst_resource, r.size_bytes, r.start, r.end) for r in result.transfers]
        assert actual == [record for _, record in expected]


def digest(document) -> str:
    return hashlib.sha256(dump_json(document).encode("utf-8")).hexdigest()


def packaged_run_digests() -> dict:
    """Digests of ``run_record.json`` for each packaged SLA with default documents."""
    data = importlib.resources.files("hybridwms") / "data"
    bundle = load_workflow_bundle(data / "workflows/heart-disease.json")
    pool = parse_pool(load_json(data / "pool.json"))
    repo = parse_repository(load_json(data / "policies.json"))
    config = parse_run_config(load_json(data / "run_config.json"))
    digests = {}
    for name in PACKAGED_SLAS:
        sla = parse_sla(load_json(data / f"slas/{name}.json"))
        record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
        digests[name] = digest(record_document(record))
    return digests


def test_a_run_reads_each_load_once_per_resource_and_start(monkeypatch):
    # Every dispatch of a run maps and executes over the run's one pool, so
    # they share one rate memo: no later dispatch reads a load read before.
    reads = []
    metric_at = simkernel.metric_at

    def counted_metric_at(trace, t):
        reads.append((id(trace), t))  # each packaged resource has its own trace
        return metric_at(trace, t)

    monkeypatch.setattr(simkernel, "metric_at", counted_metric_at)
    data = importlib.resources.files("hybridwms") / "data"
    bundle = load_workflow_bundle(data / "workflows/heart-disease.json")
    pool = parse_pool(load_json(data / "pool.json"))
    repo = parse_repository(load_json(data / "policies.json"))
    config = parse_run_config(load_json(data / "run_config.json"))
    sla = parse_sla(load_json(data / "slas/high_performance.json"))
    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
    assert len(record.dispatches) == 5  # the ECG dispatch, then four VHS iterations
    assert reads and len(reads) == len(set(reads))


def test_execution_records_match_golden():
    # The digests were written by the discrete-event kernel that the one-pass
    # recurrence replaced, so they pin the records across that change.
    golden = json.loads((GOLDEN / "execution_digests.json").read_text(encoding="utf-8"))
    assert [digest(execute_plan(plan, pool).as_document()) for plan, pool, _, _ in seeded_plans()] == golden["plans"]
    assert packaged_run_digests() == golden["runs"]


def test_assignments_follow_topological_order():
    pool = two_site_pool()
    subwf = diamond_subwf()
    plan = map_workflow(subwf, quorum_of(pool, "r1", "r2", "r3"), pool)
    assert [p.task_id for p in plan.assignments] == topological_order(subwf)


def test_the_kept_order_is_sorted_once_and_a_callers_edit_does_not_reach_it(monkeypatch):
    sorts = []
    kahn_order = workflow._kahn_order
    monkeypatch.setattr(workflow, "_kahn_order", lambda subwf: sorts.append(subwf.id) or kahn_order(subwf))
    pool = two_site_pool()
    quorum = quorum_of(pool, "r1", "r2", "r3")
    subwf = diamond_subwf()
    order = topological_order(subwf)
    assert order == ["a", "b", "c", "d"]
    order.reverse()
    order.append("ghost")
    assert topological_order(subwf) == ["a", "b", "c", "d"]
    first, second = (map_workflow(subwf, quorum, pool) for _ in range(2))
    assert [p.task_id for p in first.assignments] == ["a", "b", "c", "d"]
    assert second == first
    assert sorts == ["diamond"]


def test_plan_document_is_json_stable():
    pool = two_site_pool()
    plan = map_workflow(diamond_subwf(), quorum_of(pool, "r1", "r3"), pool)
    document = plan.as_document()
    assert json.dumps(document, sort_keys=True) == json.dumps(plan.as_document(), sort_keys=True)
    assert document["scheduler"] == "MinEFT"
    assert {entry["task"] for entry in document["assignments"]} == {"a", "b", "c", "d"}
    result = execute_plan(plan, pool)
    result_doc = result.as_document()
    assert result_doc["makespan"] == result.makespan
    assert len(result_doc["tasks"]) == 4


# -- the oracle property -------------------------------------------------------------


def scan_records(placement, deps, inputs, pool, replica_host):
    """Scan simulation of a placement ``[(task, work, resource)]``: each resource
    serves its tasks in placement order, and each pass over the resources, in
    id order, starts every queue head whose producers have ended. A stage-in
    leaves the replica host at 0. Returns ``{task: (resource, ready, start, end)}``."""
    queues = {}
    for entry in placement:
        queues.setdefault(entry[2], []).append(entry)
    producers_of = {}
    for producer, consumer, size in deps:
        producers_of.setdefault(consumer, []).append((producer, size))
    stage_ins = {}
    for _, size, consumer in inputs:
        stage_ins.setdefault(consumer, []).append(size)
    placed = {task_id: rid for task_id, _, rid in placement}
    free_at = dict.fromkeys(queues, 0.0)
    records = {}
    while len(records) < len(placement):
        progressed = False
        for rid in sorted(queues):
            if not queues[rid]:
                continue
            task_id, work, _ = queues[rid][0]
            if any(p not in records for p, _ in producers_of.get(task_id, ())):
                continue
            ready = 0.0
            if rid != replica_host:
                for size in stage_ins.get(task_id, ()):
                    ready = max(ready, transfer_time(size, pool[replica_host], pool[rid]))
            for producer, size in producers_of.get(task_id, ()):
                arrival = records[producer][3]
                if placed[producer] != rid:
                    arrival += transfer_time(size, pool[placed[producer]], pool[rid])
                ready = max(ready, arrival)
            start = max(ready, free_at[rid])
            end = start + exec_time(work, pool[rid], start)
            records[task_id] = (rid, ready, start, end)
            free_at[rid] = end
            queues[rid].pop(0)
            progressed = True
        assert progressed, "the placement is not in dependency order"
    return records


def oracle_placement(subwf, members, pool, scheduler, seed):
    """Each scheduler's rule over the scan simulation, task by task in
    topological order: ``MinEFT`` takes the member on which the task, appended
    to the placement so far, ends first (ties to the lowest id); ``RoundRobin``
    takes the members in rank order, cyclically; ``Random`` takes
    ``members[rng.randrange(n)]`` from ``random.Random(seed)``."""
    work = {t.id: t.work for t in subwf.tasks}
    host = members[0]
    rng = random.Random(seed)
    placement = []
    for index, task_id in enumerate(topological_order(subwf)):
        if scheduler == "MinEFT":

            def end_on(rid):
                trial = placement + [(task_id, work[task_id], rid)]
                return scan_records(trial, subwf.data_deps, subwf.inputs, pool, host)[task_id][3]

            rid = min(sorted(members), key=end_on)  # min keeps the first of equal ends
        elif scheduler == "RoundRobin":
            rid = members[index % len(members)]
        else:
            rid = members[rng.randrange(len(members))]
        placement.append((task_id, work[task_id], rid))
    return placement


@st.composite
def mapping_cases(draw):
    """A random task DAG with stage-ins, a pool over up to three sites with
    noisy or noiseless load, a quorum of its members in a random rank order,
    a scheduler and a seed. Values come from small sets, so equal finish
    times, and so ties, are common."""
    n_tasks = draw(st.integers(1, 7))
    ids = draw(st.permutations([f"t{i}" for i in range(n_tasks)]))  # names need not follow dependency order
    tasks = tuple(TaskSpec(tid, draw(st.sampled_from([10.0, 100.0, 250.0])), "tf") for tid in ids)
    sizes = st.sampled_from([0.0, 1e6, 3e6])
    deps = tuple(
        (ids[i], ids[j], draw(sizes)) for i in range(n_tasks) for j in range(i + 1, n_tasks) if draw(st.booleans())
    )
    inputs = tuple((f"in{k}", draw(sizes), draw(st.sampled_from(ids))) for k in range(draw(st.integers(0, 3))))
    subwf = AbstractSubWorkflow("prop", tasks, deps, inputs)

    noisy = draw(st.booleans())
    pool = {}
    for i in range(draw(st.integers(1, 5))):
        trace = MetricTrace(
            base=draw(st.sampled_from([0.0, 0.3])),
            amplitude=draw(st.sampled_from([0.0, 0.4])),
            period=40.0,
            noise_sigma=0.05 if noisy else 0.0,
            seed=draw(st.integers(0, 1 << 16)),
        )
        pool[f"r{i}"] = ResourceDescriptor(
            id=f"r{i}",
            site=draw(st.sampled_from(["s0", "s1", "s2"])),
            cpu_rate=draw(st.sampled_from([50.0, 100.0, 200.0])),
            net_trace=MetricTrace(base=0.2),
            sys_trace=trace,
            bandwidth=draw(st.sampled_from([1e6, 4e6])),
            latency=draw(st.sampled_from([0.0, 0.1])),
        )
    ranked = draw(st.permutations(sorted(pool)))
    members = tuple(ranked[: draw(st.integers(1, len(ranked)))])
    return subwf, pool, members, draw(st.sampled_from(gridengine.SCHEDULER_KINDS)), draw(st.integers(0, 1000))


@settings(max_examples=200, deadline=None)
@given(case=mapping_cases(), share_rates=st.booleans())
def test_mapping_and_replay_equal_a_scan_simulation_of_each_scheduler_rule(case, share_rates):
    subwf, pool, members, scheduler, seed = case
    host = members[0]
    rates = {} if share_rates else None  # the engine shares one memo between the mappings of a run
    plan = map_workflow(subwf, Quorum("L2", members), pool, scheduler=scheduler, seed=seed, rates=rates)
    result = execute_plan(plan, pool)

    placement = oracle_placement(subwf, members, pool, scheduler, seed)
    assert [(p.task_id, p.work, p.resource_id) for p in plan.assignments] == placement
    expected = scan_records(placement, subwf.data_deps, subwf.inputs, pool, host)
    tasks = [TaskRecord(task_id, rid, work, *expected[task_id][1:]) for task_id, work, rid in placement]
    assert list(plan.assignments) == tasks
    makespan = max((r.end for r in tasks), default=0.0)
    assert plan.makespan_estimate == result.makespan == makespan

    placed = {task_id: rid for task_id, _, rid in placement}
    assert plan.transfers == tuple(
        PlannedTransfer(file, host, placed[consumer], size, consumer)
        for file, size, consumer in subwf.inputs
        if placed[consumer] != host
    )
    moves = [(consumer, file, host, placed[consumer], size, 0.0) for file, size, consumer in subwf.inputs]
    moves += [
        (consumer, f"{producer}->{consumer}", placed[producer], placed[consumer], size, expected[producer][3])
        for producer, consumer, size in subwf.data_deps
    ]
    arrivals = []  # (consumer, transfer) of every input that crosses resources
    for consumer, file, src, dst, size, leaves in moves:
        if src != dst:
            lands = leaves + transfer_time(size, pool[src], pool[dst])
            arrivals.append((consumer, TransferRecord(file, src, dst, size, leaves, lands)))
    transfers = [transfer for _, transfer in arrivals]
    assert Counter(result.transfers) == Counter(transfers)
    assert [(t.end, t.start) for t in result.transfers] == sorted((t.end, t.start) for t in transfers)

    start = {r.task_id: r.start for r in tasks}
    assert all(transfer.end <= start[consumer] for consumer, transfer in arrivals)
    assert all(expected[producer][3] <= start[consumer] for producer, consumer, _ in subwf.data_deps)
    for rid in members:  # no resource runs two tasks at once
        spans = sorted((r.start, r.end) for r in tasks if r.resource_id == rid)
        assert all(prev_end <= next_start for (_, prev_end), (next_start, _) in zip(spans, spans[1:]))


# -- MinEFT's end floor at bench size ----------------------------------------------


def bench_sized_pool(rng):
    """32 noisy resources over six sites, in the ranges of the bench's grid pool."""
    sites = [f"site{j}" for j in range(6)]
    bandwidth = {s: rng.choice([5e6, 2e7, 5e7, 1e8]) for s in sites}
    latency = {s: rng.uniform(0.005, 0.08) for s in sites}

    def trace():
        return MetricTrace(
            base=rng.uniform(0.05, 0.45),
            amplitude=rng.uniform(0.0, 0.1),
            period=rng.uniform(7200.0, 28800.0),
            phase=rng.uniform(0.0, 6.28),
            noise_sigma=rng.uniform(0.01, 0.04),
            seed=rng.randrange(1, 2**31),
        )

    pool = {}
    for i in range(32):
        site = sites[i % 6]
        rid = f"{site}-{i:02d}"
        cpu_rate = rng.uniform(60.0, 160.0)
        pool[rid] = ResourceDescriptor(rid, site, cpu_rate, trace(), trace(), bandwidth[site], latency[site])
    return pool


def layered_subwf(rng, n_tasks):
    """Layers of 3-10 tasks; each task below the first reads 1-3 tasks of the
    two layers above it, and each first-layer task stages in one file."""
    ids = [f"t{i:03d}" for i in range(n_tasks)]
    layers, start = [], 0
    while start < n_tasks:
        width = min(n_tasks - start, rng.randint(3, 10))
        layers.append(ids[start : start + width])
        start += width
    tasks = tuple(TaskSpec(t, rng.uniform(500.0, 5000.0), rng.choice(["tfa", "tfb"])) for t in ids)
    deps = []
    for depth in range(1, len(layers)):
        above = [t for layer in layers[max(0, depth - 2) : depth] for t in layer]
        for t in layers[depth]:
            for producer in rng.sample(above, min(len(above), rng.randint(1, 3))):
                deps.append((producer, t, rng.uniform(1e5, 5e6)))
    inputs = tuple((f"in-{t}", rng.uniform(1e6, 1e7), t) for t in layers[0])
    return AbstractSubWorkflow("layered", tasks, tuple(deps), inputs)


def bench_sized_cases():
    """Yield ``(subwf, quorum, pool)``: 50-150-task layered DAGs on 32-member
    noisy pools, with L1, L2 and L3 quorums."""
    rng = random.Random(2202)
    for _ in range(40):
        pool = bench_sized_pool(rng)
        for level in ("L1", "L2", "L3"):
            quorum = generate_arq(list(pool.values()), level, rng.uniform(0, 3600), PARAMS)
            yield layered_subwf(rng, rng.randint(50, 150)), quorum, pool


def exhaustive_min_eft(subwf, quorum, pool):
    """``MinEFT`` without a floor, from its definition and sharing no code
    with the mapper: time the task on every member and keep the first of the
    earliest ends, in id order. Stage-ins leave the first member at 0.0 and a
    producer's output leaves at its end; each arrives ``transfer_time`` later.
    The task starts when its last input has arrived and its member is free,
    and runs ``work / effective_rate`` at its start."""
    host = pool[quorum.members[0]]
    stage_ins = {t.id: [] for t in subwf.tasks}  # bytes of each
    deps_into = {t.id: [] for t in subwf.tasks}  # (producer, bytes) of each
    for _, size, consumer in subwf.inputs:
        stage_ins[consumer].append(size)
    for producer, consumer, size in subwf.data_deps:
        deps_into[consumer].append((producer, size))
    free, done, records = {}, {}, []  # free: each member's last end; done: each task's record
    tasks = {t.id: t for t in subwf.tasks}
    for task in map(tasks.get, topological_order(subwf)):
        best = None
        for rid in sorted(quorum.members):
            r = pool[rid]
            arrivals = [transfer_time(size, host, r) for size in stage_ins[task.id]]
            arrivals += [done[p].end + transfer_time(size, pool[done[p].resource_id], r) for p, size in deps_into[task.id]]
            ready = max([0.0] + arrivals)
            start = max(ready, free.get(rid, 0.0))
            end = start + task.work / effective_rate(r, start)
            if best is None or end < best.end:
                best = TaskRecord(task.id, rid, task.work, ready, start, end)
        free[best.resource_id] = best.end
        done[task.id] = best
        records.append(best)
    return records


def tied_min_eft_case():
    """``(subwf, quorum, pool)`` where two members end a task at the same
    instant: ``a`` and ``b`` are identical and share a site, and the task's
    stage-in crosses from the replica host ``host``, which ranks first but is
    too slow to win. The transfer keeps ``b``'s end floor below ``a``'s end,
    so ``b`` is timed, and it ties."""
    pool = {
        "a": make_resource("a", "near", cpu_rate=100.0),
        "b": make_resource("b", "near", cpu_rate=100.0),
        "host": make_resource("host", "far", cpu_rate=10.0),
    }
    subwf = AbstractSubWorkflow("tied", (TaskSpec("t", 100.0, "tf"),), (), (("in", 1e6, "t"),))
    return subwf, Quorum("L1", ("host", "a", "b")), pool


def test_min_eft_with_its_end_floor_equals_an_exhaustive_scan_at_bench_size():
    # Close finish times on 32 noisy members: a floor that is too high, or
    # that uses the rate at some instant instead of the nominal rate, skips
    # a member that would have won. The tied case holds ties to the lowest id.
    for subwf, quorum, pool in [tied_min_eft_case(), *bench_sized_cases()]:
        plan = map_workflow(subwf, quorum, pool, scheduler="MinEFT")
        expected = exhaustive_min_eft(subwf, quorum, pool)
        assert [(p.task_id, p.resource_id) for p in plan.assignments] == [(r.task_id, r.resource_id) for r in expected]
        assert list(plan.assignments) == expected


def test_min_eft_times_fewer_than_half_of_all_placements_on_a_large_quorum(monkeypatch):
    calls = []
    finish_time = gridengine._finish_time

    def counted_finish_time(inputs, resource, avail_end, work, rates):
        calls.append(resource.id)
        return finish_time(inputs, resource, avail_end, work, rates)

    monkeypatch.setattr(gridengine, "_finish_time", counted_finish_time)
    rng = random.Random(2203)
    pool = bench_sized_pool(rng)
    quorum = generate_arq(list(pool.values()), "L3", 0.0, PARAMS)
    subwf = layered_subwf(rng, 100)
    map_workflow(subwf, quorum, pool, scheduler="MinEFT")
    assert len(quorum.members) == 32
    assert 2 * len(calls) < len(subwf.tasks) * len(quorum.members)  # the floor skips most members
