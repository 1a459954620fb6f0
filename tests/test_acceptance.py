"""Acceptance gate: nine verifiable properties of the whole system.

Each test prints one PASS/FAIL line (visible under plain ``pytest``) and
enforces the property plus its runtime budget.
"""

import itertools
import operator
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest

from hybridwms.cli import main
from hybridwms.documents import load_json
from hybridwms.engine import run_workflow
from hybridwms.errors import NoMatchingPolicy
from hybridwms.experiments import (
    load_workflow_bundle,
    parse_experiment_spec,
    run_policy_comparison,
    summary_csv,
)
from hybridwms.gridengine import execute_plan, map_workflow
from hybridwms.policy import (
    ConfigRegistry,
    Policy,
    PolicyKind,
    Predicate,
    Sla,
    decide_policy,
    enforce,
    parse_repository,
    parse_sla,
)
from hybridwms.resources import (
    AllocationCostParams,
    MetricTrace,
    ResourceDescriptor,
    allocation_cost,
    cost_grid,
    generate_arq,
    hour_instants,
    metric_at,
    parse_pool,
    quorum_grid_mean,
    rank_resources,
)
from hybridwms.runconfig import PatientParams, RunConfig, parse_run_config
from hybridwms.simkernel import exec_time, transfer_time
from hybridwms.workflow import AbstractSubWorkflow, TaskSpec, topological_order

DATA = Path(__file__).resolve().parents[1] / "src" / "hybridwms" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


@contextmanager
def criterion(capsys, number, label, budget=None):
    info = {"detail": ""}
    started = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - started
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget}s")
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  criterion {number}: {label}")
        raise
    with capsys.disabled():
        detail = info["detail"]
        suffix = f" [{detail}; {elapsed:.2f}s]" if detail else f" [{elapsed:.2f}s]"
        print(f"PASS  criterion {number}: {label}{suffix}")


def default_pool():
    return parse_pool(load_json(DATA / "pool.json"))


def random_resource(rng, rid, noise=0.0):
    return ResourceDescriptor(
        id=rid,
        site=f"site{rng.randrange(3)}",
        cpu_rate=rng.uniform(50, 250),
        net_trace=MetricTrace(base=rng.uniform(0.05, 0.9), noise_sigma=noise, seed=rng.randrange(1 << 16)),
        sys_trace=MetricTrace(base=rng.uniform(0.05, 0.9), noise_sigma=noise, seed=rng.randrange(1 << 16)),
        bandwidth=rng.choice([1e6, 1e7, 1e8]),
        latency=rng.uniform(0.0, 0.2),
    )


def test_criterion_1_cost_formula_and_scale_invariance(capsys):
    with criterion(capsys, 1, "allocation cost formula exact; ranking scale-invariant", budget=1.0) as info:
        rng = random.Random(101)
        worst = 0.0
        for _ in range(1000):
            res = random_resource(rng, "x", noise=0.05)
            t = rng.uniform(0, 86400)
            alpha, beta = rng.uniform(0.01, 3), rng.uniform(0.01, 3)
            expected = alpha * metric_at(res.net_trace, t) + beta * metric_at(res.sys_trace, t)
            worst = max(worst, abs(allocation_cost(res, t, AllocationCostParams(alpha, beta)) - expected))
        assert worst <= 1e-12

        for trial in range(50):
            pool = [random_resource(rng, f"r{i}", noise=0.02) for i in range(rng.randint(2, 10))]
            t = rng.uniform(0, 86400)
            alpha, beta = rng.uniform(0.1, 2), rng.uniform(0.1, 2)
            base = [rid for rid, _ in rank_resources(pool, t, AllocationCostParams(alpha, beta))]
            for c in (0.5, 2.0, 10.0):
                scaled = [rid for rid, _ in rank_resources(pool, t, AllocationCostParams(c * alpha, c * beta))]
                assert scaled == base
        info["detail"] = f"max deviation {worst:.2e} over 1000 samples; 50 pools x 3 scalings"


def test_criterion_2_l1_quorum_is_the_exhaustive_optimum(capsys):
    with criterion(capsys, 2, "L1 quorum minimizes mean cost over all two-member subsets", budget=5.0) as info:
        pool = default_pool()
        params = AllocationCostParams()
        horizon, samples = 24, 60
        instants = [t for hour in range(horizon) for t in hour_instants(hour, samples)]
        member_mean = {
            res.id: sum(allocation_cost(res, t, params) for t in instants) / len(instants) for res in pool
        }
        # ties between equal-mean subsets break toward ascending member ids
        subsets = sorted(
            itertools.combinations(sorted(member_mean), 2),
            key=lambda pair: ((member_mean[pair[0]] + member_mean[pair[1]]) / 2, pair),
        )
        best_subset = subsets[0]
        best_mean = (member_mean[best_subset[0]] + member_mean[best_subset[1]]) / 2

        quorum = generate_arq(pool, "L1", 0.0, params)
        assert len(quorum.members) == 2
        assert tuple(sorted(quorum.members)) == best_subset
        lived = quorum_grid_mean(cost_grid(pool, horizon, samples, params), quorum)
        assert lived == pytest.approx(best_mean, abs=1e-9)
        info["detail"] = f"optimum {{{', '.join(best_subset)}}} mean {best_mean:.6f} over 28 subsets"


def test_criterion_3_quorum_nesting_and_mean_monotonicity(capsys):
    with criterion(capsys, 3, "quorum nesting and mean-cost monotonicity on 100 random pools", budget=10.0) as info:
        rng = random.Random(303)
        params = AllocationCostParams()
        horizon, samples = 24, 4
        for _ in range(100):
            n = rng.randint(4, 16)
            pool = []
            for i in range(n):
                # zero-phase periods that divide the sampling lattice keep the
                # grid mean equal to the base, so the t=0 ranking is the
                # grid-mean ranking and monotonicity must hold exactly
                def trace():
                    base = rng.uniform(0.1, 0.9)
                    amplitude = rng.uniform(0, min(base, 1 - base, 0.3))
                    period = rng.choice([900.0, 1800.0, 3600.0, 7200.0])
                    return MetricTrace(base=base, amplitude=amplitude, period=period)

                pool.append(
                    ResourceDescriptor(
                        id=f"r{i:02d}",
                        site="s",
                        cpu_rate=100.0,
                        net_trace=trace(),
                        sys_trace=trace(),
                        bandwidth=1e7,
                        latency=0.01,
                    )
                )
            quorums = {level: generate_arq(pool, level, 0.0, params) for level in ("L1", "L2", "L3")}
            l1, l2, l3 = (set(quorums[lv].members) for lv in ("L1", "L2", "L3"))
            assert l1 <= l2 <= l3
            means = [
                quorum_grid_mean(cost_grid(pool, horizon, samples, params), quorums[lv]) for lv in ("L1", "L2", "L3")
            ]
            assert means[0] <= means[1] + 1e-9
            assert means[1] <= means[2] + 1e-9
        info["detail"] = "100 pools, N in [4, 16]"


# -- criterion 4 helpers ---------------------------------------------------------


class Placed(NamedTuple):
    """An enumerated plan's entry; a mapped plan's records have the same fields."""

    task_id: str
    resource_id: str
    work: float


def scan_simulate(assignments, deps, pool, replica_host, inputs):
    """Brute-force event simulation by repeated head-of-line scans."""
    queues = {}
    for planned in assignments:
        queues.setdefault(planned.resource_id, []).append(planned)
    free_at = {rid: 0.0 for rid in queues}
    head = {rid: 0 for rid in queues}
    producers_of = {}
    for producer, consumer, size in deps:
        producers_of.setdefault(consumer, []).append((producer, size))
    stage_of = {}
    for file, size, consumer in inputs:
        stage_of.setdefault(consumer, []).append(size)
    placed = {p.task_id: p.resource_id for p in assignments}
    end = {}
    remaining = len(assignments)
    while remaining:
        progressed = False
        for rid in sorted(queues):
            position = head[rid]
            if position >= len(queues[rid]):
                continue
            planned = queues[rid][position]
            if any(p not in end for p, _ in producers_of.get(planned.task_id, ())):
                continue
            ready = 0.0
            if rid != replica_host:
                for size in stage_of.get(planned.task_id, ()):
                    ready = max(ready, transfer_time(size, pool[replica_host], pool[rid]))
            for producer, size in producers_of.get(planned.task_id, ()):
                arrival = end[producer]
                if placed[producer] != rid:
                    arrival += transfer_time(size, pool[placed[producer]], pool[rid])
                ready = max(ready, arrival)
            start = max(ready, free_at[rid])
            finish = start + exec_time(planned.work, pool[rid], start)
            end[planned.task_id] = finish
            free_at[rid] = finish
            head[rid] += 1
            remaining -= 1
            progressed = True
        if not progressed:
            raise AssertionError("scan simulation made no progress")
    return max(end.values(), default=0.0)


def enumerate_assignments(subwf, member_ids):
    order = topological_order(subwf)
    tasks = {t.id: t for t in subwf.tasks}
    for combo in itertools.product(member_ids, repeat=len(order)):
        yield [Placed(tid, rid, tasks[tid].work) for tid, rid in zip(order, combo)]


def test_criterion_4_kernel_matches_brute_force_and_min_eft_bounds_optimum(capsys):
    with criterion(capsys, 4, "kernel equals brute-force simulation; greedy within optimum", budget=30.0) as info:
        rng = random.Random(404)
        ratios = []
        cases = 0
        while cases < 60:
            n_tasks = rng.randint(1, 4)
            n_res = rng.randint(1, 3)
            pool = {f"r{i}": random_resource(rng, f"r{i}", noise=0.03 if rng.random() < 0.5 else 0.0) for i in range(n_res)}
            ids = [f"t{i}" for i in range(n_tasks)]
            deps = tuple(
                (ids[i], ids[j], rng.uniform(0, 4e6))
                for i in range(n_tasks)
                for j in range(i + 1, n_tasks)
                if rng.random() < 0.4
            )
            inputs = tuple(("in.dat", rng.uniform(0, 4e6), rng.choice(ids)) for _ in range(rng.randrange(3)))
            subwf = AbstractSubWorkflow(
                "case",
                tuple(TaskSpec(tid, rng.uniform(10, 500), "tf") for tid in ids),
                deps,
                inputs,
            )
            quorum = generate_arq(list(pool.values()), "L3", 0.0, AllocationCostParams())
            plan = map_workflow(subwf, quorum, pool)
            simulated = execute_plan(plan, pool).makespan
            replica_host = quorum.members[0]
            brute = scan_simulate(plan.assignments, plan.dependencies, pool, replica_host, subwf.inputs)
            assert abs(simulated - brute) <= 1e-9

            optimum = min(
                scan_simulate(assignment, subwf.data_deps, pool, replica_host, subwf.inputs)
                for assignment in enumerate_assignments(subwf, list(quorum.members))
            )
            ratio = simulated / optimum if optimum > 0 else 1.0
            assert ratio >= 1.0 - 1e-12
            ratios.append(ratio)
            cases += 1
        info["detail"] = (
            f"{cases} instances; greedy/optimum mean {statistics.fmean(ratios):.4f} max {max(ratios):.4f}"
        )


def test_criterion_5_policy_comparison_ordering_and_golden_summary(capsys):
    with criterion(capsys, 5, "comparison study ordering, variance, and pinned summary", budget=60.0) as info:
        bundle = load_workflow_bundle(DATA / "workflows/heart-disease.json")
        pool = default_pool()
        repo = parse_repository(load_json(DATA / "policies.json"))
        config = parse_run_config(load_json(DATA / "run_config.json"))
        spec = parse_experiment_spec(load_json(DATA / "comparison.json"))
        assert spec.replicates == 20
        result = run_policy_comparison(spec, bundle, pool, repo, config)
        summaries = {s.config: s for s in result.summaries}
        assert summaries["SET-A"].mean < summaries["SET-B"].mean
        assert summaries["SET-B"].stddev > summaries["SET-A"].stddev
        golden = (GOLDEN / "comparison_summary.csv").read_bytes()
        assert summary_csv(result).encode("utf-8") == golden
        info["detail"] = (
            f"mean A {summaries['SET-A'].mean:.1f} < B {summaries['SET-B'].mean:.1f}; "
            f"stddev B {summaries['SET-B'].stddev:.1f} > A {summaries['SET-A'].stddev:.1f}"
        )


# -- criterion 6 helpers ------------------------------------------------------------

OPERATORS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le, ">=": operator.ge}


def holds(policy, sla, load):
    """Whether every predicate of the policy holds, computed here: an SLA field
    is read from the SLA, and ``grid.load`` is the one member's base load."""
    return all(
        OPERATORS[p.op](load if p.key == "grid.load" else getattr(sla, p.key), p.value) for p in policy.condition
    )


#: The kinds a random policy draws from, in a fixed list: the draws, and so the
#: 200 cases, do not depend on the order ``PolicyKind`` declares.
DRAWN_KINDS = [PolicyKind.RESOURCE, PolicyKind.WORKFLOW, PolicyKind.APP]


def random_policy(rng, index):
    kind = rng.choice(DRAWN_KINDS)
    conditions = []
    for _ in range(rng.randrange(3)):
        which = rng.randrange(4)
        if which == 0:
            conditions.append(Predicate("resource_level", rng.choice(["==", "!=", "<=", ">="]), rng.choice(["L1", "L2", "L3"])))
        elif which == 1:
            conditions.append(Predicate("performance", rng.choice(["==", "!="]), rng.choice(["Fast", "Standard", "Economy"])))
        elif which == 2:
            conditions.append(Predicate("service_level", rng.choice(["==", "!="]), rng.choice(["EcgOnly", "EcgDetect", "EcgVhs"])))
        else:
            conditions.append(Predicate("grid.load", rng.choice(["<=", ">="]), round(rng.uniform(0, 1), 3)))
    actions = [rng.choice(
        [
            ("resource.level", rng.choice(["L1", "L2", "L3", "RANDOM"])),
            ("resource.alpha", round(rng.uniform(0, 2), 3)),
            ("resource.beta", round(rng.uniform(0, 2), 3)),
            ("scheduler.kind", rng.choice(["MinEFT", "RoundRobin", "Random"])),
            ("scheduler.seed", rng.randrange(100)),
            ("app.workflow", rng.choice(["EcgOnly", "EcgDetect", "EcgVhs", "EcgVhsAlways"])),
            ("vhs.max_iter", rng.randint(1, 10)),
            ("vhs.tolerance", round(rng.uniform(0.01, 1), 4)),
        ]
    )]
    return Policy(f"P{index:03d}", kind, rng.randrange(6), tuple(conditions), tuple(actions))


def test_criterion_6_decision_matches_brute_force_and_enforcement_idempotent(capsys):
    with criterion(capsys, 6, "policy decision is max-priority; enforcement idempotent", budget=5.0) as info:
        rng = random.Random(606)
        decided = 0
        refused = 0
        for _ in range(200):
            repo = [random_policy(rng, i) for i in range(rng.randint(3, 14))]
            sla = Sla(
                user_id="u",
                resource_level=rng.choice(["L1", "L2", "L3"]),
                performance=rng.choice(["Fast", "Standard", "Economy"]),
                service_level=rng.choice(["EcgOnly", "EcgDetect", "EcgVhs"]),
            )
            load = round(rng.uniform(0, 1), 3)  # the one member's base system load, so grid.load
            pool = [ResourceDescriptor("r", "s", 1.0, MetricTrace(base=0.0), MetricTrace(base=load), 1.0, 0.0)]

            expected = {}
            for kind in PolicyKind:
                matching = [p for p in repo if p.kind is kind and holds(p, sla, load)]
                expected[kind] = min(matching, key=lambda p: (-p.priority, p.id)) if matching else None

            if any(v is None for v in expected.values()):
                with pytest.raises(NoMatchingPolicy):
                    decide_policy(sla, repo, pool)
                refused += 1
                continue

            chosen = decide_policy(sla, repo, pool)
            assert chosen == tuple(expected[kind] for kind in PolicyKind)

            registry = ConfigRegistry()
            enforce(chosen, registry)
            once = registry.as_dict()
            enforce(chosen, registry)
            assert registry.as_dict() == once
            decided += 1
        assert decided >= 50
        info["detail"] = f"{decided} decided + {refused} correctly refused of 200 triples"


def test_criterion_7_loop_recovers_a_planted_candidate(capsys):
    with criterion(capsys, 7, "parameter loop recovers the generating candidate", budget=5.0) as info:
        bundle = load_workflow_bundle(DATA / "workflows/heart-disease.json")
        pool = default_pool()
        repo = parse_repository(load_json(DATA / "policies.json"))
        sla = parse_sla({"user_id": "u", "soft_label": "High Performance"})
        planted = {"bpm": 330.0, "irregularity": 0.0, "st_offset": 0.05, "seed": 9}
        for position, decoys in ((1, ()), (3, ({"bpm": 60.0}, {"bpm": 500.0}))):
            grid = tuple(decoys) + (dict(planted),)
            config = RunConfig(
                seed=11,
                patient=PatientParams(bpm=330.0, st_offset=0.05, noise=0.0, seed=9),
                candidates=grid,
            )
            record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
            assert record.vhs is not None
            assert record.vhs.matched
            assert len(record.vhs.iterations) <= position
            match = record.vhs.iterations[-1]
            assert match.candidate == dict(planted)
            assert match.distance < 1e-6
        info["detail"] = "positions 1 and 3; distance 0 at the planted candidate"


def test_criterion_8_repeated_runs_are_byte_identical(capsys, tmp_path):
    with criterion(capsys, 8, "run command output is byte-identical across invocations") as info:
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--out-dir", str(first)]) == 0
        assert main(["run", "--out-dir", str(second)]) == 0
        files = ["run_record.json", "node_timings.csv"]
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        info["detail"] = " and ".join(files)


def test_criterion_9_service_levels_nest_node_coverage(capsys):
    with criterion(capsys, 9, "service levels nest the visited node sets strictly") as info:
        bundle = load_workflow_bundle(DATA / "workflows/heart-disease.json")
        pool = default_pool()
        repo = parse_repository(load_json(DATA / "policies.json"))
        config = parse_run_config(load_json(DATA / "run_config.json"))
        coverage = {}
        for service in ("EcgOnly", "EcgDetect", "EcgVhs"):
            sla = Sla(user_id="u", resource_level="L1", performance="Fast", service_level=service)
            record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
            coverage[service] = {n.node_id for n in record.nodes}
        assert coverage["EcgOnly"] < coverage["EcgDetect"] < coverage["EcgVhs"]
        info["detail"] = (
            f"{len(coverage['EcgOnly'])} < {len(coverage['EcgDetect'])} < {len(coverage['EcgVhs'])} nodes"
        )
