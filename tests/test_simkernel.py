"""Timing model and plan execution tests with hand-computed expectations."""

import random

import pytest

from hybridwms.errors import StuckSimulation
from hybridwms.gridengine import ConcretePlan, execute_plan
from hybridwms.resources import MetricTrace, ResourceDescriptor, metric_at
from hybridwms.simkernel import (
    PlannedTask,
    PlannedTransfer,
    exec_time,
    transfer_time,
)


def make_resource(rid, site="x", cpu_rate=100.0, sys_base=0.0, bandwidth=1e6, latency=0.1, noise=0.0, seed=0):
    return ResourceDescriptor(
        id=rid,
        site=site,
        cpu_rate=cpu_rate,
        net_trace=MetricTrace(base=0.1),
        sys_trace=MetricTrace(base=sys_base, noise_sigma=noise, seed=seed),
        bandwidth=bandwidth,
        latency=latency,
    )


# -- timing model -------------------------------------------------------------


def test_exec_time_formula():
    rng = random.Random(6)
    for _ in range(100):
        res = make_resource("r", cpu_rate=rng.uniform(10, 500), sys_base=rng.uniform(0, 1), noise=0.05, seed=rng.randrange(999))
        work = rng.uniform(1, 1e4)
        t = rng.uniform(0, 1e4)
        load = metric_at(res.sys_trace, t)
        assert exec_time(work, res, t) == pytest.approx(work / (res.cpu_rate * (1 - 0.9 * load)), rel=1e-12)


def test_exec_time_idle_and_saturated():
    idle = make_resource("r", cpu_rate=50.0, sys_base=0.0)
    assert exec_time(100.0, idle, 0.0) == pytest.approx(2.0)
    busy = make_resource("r", cpu_rate=50.0, sys_base=1.0)
    # fully loaded resource retains a tenth of its speed
    assert exec_time(100.0, busy, 0.0) == pytest.approx(20.0)


def test_transfer_time_free_within_site():
    a = make_resource("a", site="s1")
    b = make_resource("b", site="s1")
    assert transfer_time(1e9, a, b) == 0.0


def test_transfer_time_bottleneck_and_latency():
    a = make_resource("a", site="s1", bandwidth=1e6, latency=0.02)
    b = make_resource("b", site="s2", bandwidth=4e6, latency=0.30)
    assert transfer_time(2e6, a, b) == pytest.approx(2.0 + 0.30)
    assert transfer_time(0.0, a, b) == pytest.approx(0.30)


# -- plan execution --------------------------------------------------------------


def task(result, task_id):
    return next(r for r in result.tasks if r.task_id == task_id)


def run(plan, deps=(), transfers=(), resources=()):
    concrete = ConcretePlan("w", "MinEFT", "L1", tuple(plan), tuple(deps), tuple(transfers), (), 0.0)
    return execute_plan(concrete, {r.id: r for r in resources})


def test_single_task():
    r1 = make_resource("r1", cpu_rate=100.0)
    result = run([PlannedTask("t", 250.0, "r1")], resources=[r1])
    record = task(result, "t")
    assert (record.ready, record.start) == (0.0, 0.0)
    assert record.end == pytest.approx(2.5)
    assert result.makespan == pytest.approx(2.5)


def test_chain_on_one_resource_runs_back_to_back():
    r1 = make_resource("r1", cpu_rate=100.0)
    plan = [PlannedTask("a", 100.0, "r1"), PlannedTask("b", 200.0, "r1"), PlannedTask("c", 300.0, "r1")]
    deps = [("a", "b", 10.0), ("b", "c", 10.0)]
    result = run(plan, deps, resources=[r1])
    a, b, c = task(result, "a"), task(result, "b"), task(result, "c")
    assert a.start == 0.0 and a.end == pytest.approx(1.0)
    # same-resource handoff is instant
    assert b.ready == pytest.approx(1.0) and b.start == pytest.approx(1.0) and b.end == pytest.approx(3.0)
    assert c.start == pytest.approx(3.0) and c.end == pytest.approx(6.0)
    assert result.makespan == pytest.approx(6.0)
    assert result.transfers == ()


def test_fork_join_with_cross_site_transfer():
    r1 = make_resource("r1", site="x", cpu_rate=100.0, sys_base=0.5, bandwidth=1e6, latency=0.1)
    r2 = make_resource("r2", site="y", cpu_rate=200.0, sys_base=0.0, bandwidth=2e6, latency=0.05)
    plan = [PlannedTask("a", 110.0, "r1"), PlannedTask("b", 400.0, "r2"), PlannedTask("c", 55.0, "r1")]
    deps = [("a", "c", 0.0), ("b", "c", 1e6)]
    result = run(plan, deps, resources=[r1, r2])
    assert task(result, "a").end == pytest.approx(2.0)
    assert task(result, "b").end == pytest.approx(2.0)
    # b's output crosses sites: 1e6 / min(1e6, 2e6) + max(0.1, 0.05) = 1.1
    c = task(result, "c")
    assert c.ready == pytest.approx(3.1)
    assert c.start == pytest.approx(3.1)
    assert c.end == pytest.approx(4.1)
    assert result.makespan == pytest.approx(4.1)
    (transfer,) = result.transfers
    assert (transfer.src_resource, transfer.dst_resource) == ("r2", "r1")
    assert transfer.start == pytest.approx(2.0)
    assert transfer.end == pytest.approx(3.1)


def test_queue_serves_in_plan_order_even_if_later_task_is_ready():
    # r1's plan is [blocked, quick]; quick is ready immediately but must wait
    # behind the queue head.
    r1 = make_resource("r1", site="s", cpu_rate=100.0)
    r2 = make_resource("r2", site="s", cpu_rate=100.0)
    plan = [
        PlannedTask("slow", 500.0, "r2"),
        PlannedTask("blocked", 100.0, "r1"),
        PlannedTask("quick", 100.0, "r1"),
    ]
    deps = [("slow", "blocked", 1.0)]
    result = run(plan, deps, resources=[r1, r2])
    assert task(result, "blocked").start == pytest.approx(5.0)
    assert task(result, "quick").start == pytest.approx(6.0)
    assert task(result, "quick").ready == 0.0


def test_stage_in_transfers_start_at_time_zero():
    r1 = make_resource("r1", site="x", bandwidth=1e6, latency=0.1)
    r2 = make_resource("r2", site="y", bandwidth=1e6, latency=0.1)
    plan = [PlannedTask("t", 100.0, "r1")]
    transfers = [
        PlannedTransfer("in-a", "r2", "r1", 1e6, "t"),
        PlannedTransfer("in-b", "r2", "r1", 3e6, "t"),
    ]
    result = run(plan, transfers=transfers, resources=[r1, r2])
    record = task(result, "t")
    # both inputs must land; the larger one takes 3.1 s
    assert record.ready == pytest.approx(3.1)
    assert record.start == pytest.approx(3.1)
    assert [t.start for t in result.transfers] == [0.0, 0.0]


def test_stage_in_precedes_a_transfer_with_equal_start_and_end():
    # a zero-work producer ends at 0, so its output and the stage-in both
    # start at 0 and end at 1.1; stage-ins sort first
    r1 = make_resource("r1", site="x", bandwidth=1e6, latency=0.1)
    r2 = make_resource("r2", site="y", bandwidth=1e6, latency=0.1)
    plan = [PlannedTask("p", 0.0, "r2"), PlannedTask("c", 100.0, "r1")]
    transfers = [PlannedTransfer("in", "r2", "r1", 1e6, "c")]
    result = run(plan, [("p", "c", 1e6)], transfers, resources=[r1, r2])
    assert [(t.file, t.start, t.end) for t in result.transfers] == [("in", 0.0, pytest.approx(1.1)), ("p->c", 0.0, pytest.approx(1.1))]
    assert result.transfers[0].end == result.transfers[1].end


def test_load_dependent_duration_uses_start_time():
    # sinusoidal load, no noise: duration must be evaluated at the task's start
    trace = MetricTrace(base=0.5, amplitude=0.4, period=40.0)
    r1 = ResourceDescriptor("r1", "s", 100.0, MetricTrace(base=0.1), trace, 1e6, 0.0)
    plan = [PlannedTask("a", 100.0, "r1"), PlannedTask("b", 100.0, "r1")]
    result = run(plan, [("a", "b", 0.0)], resources=[r1])
    b = task(result, "b")
    assert b.start == pytest.approx(task(result, "a").end)
    assert b.end - b.start == pytest.approx(exec_time(100.0, r1, b.start), rel=1e-12)


def test_simulation_is_deterministic():
    rng = random.Random(40)
    resources = [
        make_resource(f"r{i}", site=f"s{i % 2}", cpu_rate=rng.uniform(50, 200), sys_base=rng.uniform(0, 0.8), noise=0.05, seed=i)
        for i in range(3)
    ]
    plan = [PlannedTask(f"t{i}", rng.uniform(10, 500), resources[rng.randrange(3)].id) for i in range(8)]
    deps = [(f"t{i}", f"t{j}", rng.uniform(0, 1e6)) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.25]
    first = run(plan, deps, resources=resources)
    second = run(plan, deps, resources=resources)
    assert first == second


def test_unfinished_tasks_raise():
    r1 = make_resource("r1")
    plan = [PlannedTask("a", 1.0, "r1"), PlannedTask("b", 1.0, "r1")]
    deps = [("a", "b", 0.0), ("b", "a", 0.0)]
    with pytest.raises(StuckSimulation) as err:
        run(plan, deps, resources=[r1])
    assert err.value.unfinished == ["a", "b"]


def test_plan_validation():
    r1 = make_resource("r1")
    with pytest.raises(ValueError):
        run([PlannedTask("a", 1.0, "r1"), PlannedTask("a", 1.0, "r1")], resources=[r1])
    with pytest.raises(ValueError):
        run([PlannedTask("a", 1.0, "ghost")], resources=[r1])
    with pytest.raises(ValueError):
        run([PlannedTask("a", 1.0, "r1")], deps=[("a", "ghost", 1.0)], resources=[r1])
    with pytest.raises(ValueError):
        run([PlannedTask("a", 1.0, "r1")], transfers=[PlannedTransfer("f", "r1", "r1", 1.0, "ghost")], resources=[r1])


def test_empty_plan_finishes_at_zero():
    result = run([], resources=[make_resource("r1")])
    assert result.makespan == 0.0
    assert result.tasks == ()

