"""Resource pool, load traces, allocation cost, and quorum tests."""

import math
import random
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridwms import experiments, resources
from hybridwms.errors import SchemaError, WmsError
from hybridwms.resources import (
    LEVELS,
    RANDOM_LEVEL,
    AllocationCostParams,
    MetricTrace,
    Quorum,
    ResourceDescriptor,
    allocation_cost,
    average_cost_table,
    cost_grid,
    generate_arq,
    grid_load,
    hour_instants,
    metric_at,
    parse_pool,
    quorum_grid_mean,
    quorum_size,
    random_quorum,
    rank_resources,
)

PARAMS = AllocationCostParams()


def make_resource(rid, net_base, sys_base, site="s", noise=0.0, seed=0, **extra):
    return ResourceDescriptor(
        id=rid,
        site=site,
        cpu_rate=extra.get("cpu_rate", 100.0),
        net_trace=MetricTrace(base=net_base, noise_sigma=noise, seed=seed),
        sys_trace=MetricTrace(base=sys_base, noise_sigma=noise, seed=seed + 1),
        bandwidth=extra.get("bandwidth", 1e8),
        latency=extra.get("latency", 0.01),
    )


def random_pool(rng, n, noise=0.0):
    pool = []
    for i in range(n):
        pool.append(
            make_resource(
                f"r{i:02d}",
                net_base=rng.uniform(0.05, 0.95),
                sys_base=rng.uniform(0.05, 0.95),
                noise=noise,
                seed=rng.randrange(1 << 16),
            )
        )
    return pool


# -- traces -----------------------------------------------------------------


def test_metric_stays_in_unit_interval():
    trace = MetricTrace(base=0.5, amplitude=0.9, period=60.0, noise_sigma=0.5, seed=3)
    for k in range(500):
        v = metric_at(trace, k * 0.37)
        assert 0.0 <= v <= 1.0


def test_metric_is_deterministic():
    trace = MetricTrace(base=0.4, amplitude=0.2, period=120.0, noise_sigma=0.1, seed=9)
    assert metric_at(trace, 17.25) == metric_at(trace, 17.25)


def test_metric_noise_constant_within_millisecond():
    trace = MetricTrace(base=0.5, noise_sigma=0.2, seed=5)
    assert metric_at(trace, 1.0001) == metric_at(trace, 1.00049)
    assert metric_at(trace, 1.0001) != metric_at(trace, 1.2)


def test_metric_noiseless_is_pure_sinusoid():
    trace = MetricTrace(base=0.5, amplitude=0.25, period=100.0, phase=0.3)
    for t in (0.0, 12.5, 80.0):
        expected = 0.5 + 0.25 * math.sin(2 * math.pi * t / 100.0 + 0.3)
        assert metric_at(trace, t) == pytest.approx(expected, abs=1e-15)


def test_trace_validation():
    with pytest.raises(ValueError):
        MetricTrace(base=1.5)
    with pytest.raises(ValueError):
        MetricTrace(base=0.5, period=0)
    with pytest.raises(ValueError):
        MetricTrace(base=0.5, noise_sigma=-0.1)


#: (field, a non-finite value, the message a code-built trace refuses it with):
#: a check that held before finiteness was checked keeps its message.
NON_FINITE_TRACE_FIELDS = [
    ("amplitude", math.inf, "amplitude must be finite"),
    ("amplitude", math.nan, "amplitude must be finite"),
    ("amplitude", -math.inf, "amplitude must be >= 0"),
    ("period", math.inf, "period must be finite"),
    ("period", math.nan, "period must be >= 0.001"),
    ("period", -math.inf, "period must be >= 0.001"),
    ("phase", math.inf, "phase must be finite"),
    ("phase", math.nan, "phase must be finite"),
    ("phase", -math.inf, "phase must be finite"),
    ("noise_sigma", math.inf, "noise_sigma must be finite"),
    ("noise_sigma", math.nan, "noise_sigma must be finite"),
    ("noise_sigma", -math.inf, "noise_sigma must be >= 0"),
]


@pytest.mark.parametrize("field, value, message", NON_FINITE_TRACE_FIELDS)
def test_a_code_built_trace_refuses_a_non_finite_field(field, value, message):
    # such a trace would make metric_at raise a bare math domain error, read a
    # load of 0.0 at every instant, or drop its noise
    with pytest.raises(ValueError, match=f"^{message}$"):
        MetricTrace(base=0.5, **{field: value})


@pytest.mark.parametrize("field", ["amplitude", "period", "phase", "noise_sigma"])
def test_a_document_trace_refuses_a_non_finite_field_at_its_key(field):
    document = pool_doc()
    document[0]["sys_trace"][field] = math.inf
    with pytest.raises(SchemaError, match=rf"^pool\[0\]\.sys_trace\.{field}: expected finite number$"):
        parse_pool(document)


# -- allocation cost and ranking --------------------------------------------


def test_allocation_cost_matches_weighted_sum():
    rng = random.Random(11)
    for _ in range(100):
        res = make_resource("x", rng.uniform(0, 1), rng.uniform(0, 1))
        alpha, beta = rng.uniform(0.1, 2), rng.uniform(0.1, 2)
        params = AllocationCostParams(alpha, beta)
        t = rng.uniform(0, 1e5)
        expected = alpha * metric_at(res.net_trace, t) + beta * metric_at(res.sys_trace, t)
        assert allocation_cost(res, t, params) == pytest.approx(expected, abs=1e-15)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        AllocationCostParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        AllocationCostParams(0.0, 0.0)


#: (field, a value that is not finite, the message a code-built record refuses it
#: with): each passed every range check, so ranking and the cost study read a NaN
#: cost, or every task on the resource took no time.
NON_FINITE_COST_FIELDS = [
    ("alpha", math.nan, "alpha must be finite"),
    ("alpha", math.inf, "alpha must be finite"),
    ("beta", math.nan, "beta must be finite"),
    ("beta", math.inf, "beta must be finite"),
    ("cpu_rate", math.inf, "cpu_rate must be finite"),
    ("bandwidth", math.inf, "bandwidth must be finite"),
]


@pytest.mark.parametrize("field, value, message", NON_FINITE_COST_FIELDS)
def test_code_built_weights_and_resources_refuse_a_non_finite_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        if field in ("alpha", "beta"):
            AllocationCostParams(**{"alpha": 0.5, "beta": 0.5, field: value})
        else:
            make_resource("r", 0.2, 0.3, **{field: value})


def test_rank_is_ascending_by_cost():
    rng = random.Random(2)
    for _ in range(20):
        pool = random_pool(rng, rng.randint(1, 12))
        ranking = rank_resources(pool, 0.0, PARAMS)
        costs = [c for _, c in ranking]
        assert costs == sorted(costs)
        assert sorted(rid for rid, _ in ranking) == sorted(r.id for r in pool)


def test_rank_ties_break_by_id():
    pool = [make_resource("b", 0.3, 0.3), make_resource("a", 0.3, 0.3), make_resource("c", 0.1, 0.1)]
    assert [rid for rid, _ in rank_resources(pool, 0.0, PARAMS)] == ["c", "a", "b"]


def test_rank_empty_pool_raises():
    with pytest.raises(WmsError, match=r"^cannot rank an empty pool$") as excinfo:
        rank_resources([], 0.0, PARAMS)
    assert type(excinfo.value) is WmsError


def test_grid_load_is_the_pool_mean_of_system_load_in_pool_order():
    rng = random.Random(24)
    for _ in range(20):
        pool = random_pool(rng, rng.randint(1, 12), noise=0.05)
        t = rng.uniform(0, 1e5)
        total = 0.0
        for res in pool:
            total += metric_at(res.sys_trace, t)
        assert grid_load(pool, t) == total / len(pool)
    with pytest.raises(WmsError, match=r"^an empty pool has no load$") as excinfo:
        grid_load([], 0.0)
    assert type(excinfo.value) is WmsError


# -- quorums ----------------------------------------------------------------


def test_quorum_size_quarter_rounds_up_with_floor_of_two():
    assert quorum_size(8, 0.25) == 2
    assert quorum_size(9, 0.25) == 3
    assert quorum_size(4, 0.25) == 2
    assert quorum_size(2, 0.25) == 2
    assert quorum_size(1, 0.25) == 1
    assert quorum_size(8, 0.5) == 4
    assert quorum_size(3, 0.5) == 2
    assert quorum_size(8, 1.0) == 8


def test_quorums_nest_and_match_rank_prefixes():
    rng = random.Random(7)
    for _ in range(30):
        pool = random_pool(rng, rng.randint(2, 15), noise=0.05)
        t = rng.uniform(0, 3600)
        ranking = [rid for rid, _ in rank_resources(pool, t, PARAMS)]
        quorums = {level: generate_arq(pool, level, t, PARAMS) for level in LEVELS}
        for level, quorum in quorums.items():
            assert list(quorum.members) == ranking[: len(quorum.members)]
        l1, l2, l3 = (set(quorums[lv].members) for lv in LEVELS)
        assert l1 <= l2 <= l3
        assert l3 == set(ranking)


def test_generate_arq_rejects_unknown_level():
    pool = random_pool(random.Random(0), 4)
    with pytest.raises(ValueError):
        generate_arq(pool, "L9", 0.0, PARAMS)
    with pytest.raises(WmsError, match=r"^cannot rank an empty pool$") as excinfo:
        generate_arq([], "L1", 0.0, PARAMS)
    assert type(excinfo.value) is WmsError


def test_random_quorum_is_seeded_sample_listed_by_cost():
    rng = random.Random(13)
    for _ in range(20):
        pool = random_pool(rng, rng.randint(2, 12))
        seed = rng.randrange(1 << 20)
        q1 = random_quorum(pool, 0.0, PARAMS, seed)
        q2 = random_quorum(pool, 0.0, PARAMS, seed)
        assert q1 == q2
        assert q1.level == RANDOM_LEVEL
        assert len(q1.members) == quorum_size(len(pool), 0.25)
        assert set(q1.members) <= {r.id for r in pool}
        ranking = [rid for rid, _ in rank_resources(pool, 0.0, PARAMS)]
        assert list(q1.members) == [rid for rid in ranking if rid in set(q1.members)]


def test_random_quorum_of_an_empty_pool_raises():
    with pytest.raises(WmsError, match=r"^cannot rank an empty pool$") as excinfo:
        random_quorum([], 0.0, PARAMS, 1)
    assert type(excinfo.value) is WmsError


def test_random_quorum_varies_with_seed():
    pool = random_pool(random.Random(5), 12)
    members = {random_quorum(pool, 0.0, PARAMS, s).members for s in range(40)}
    assert len(members) > 1


# -- cost tables -------------------------------------------------------------


def study_table(pool, horizon, samples_per_hour, params=PARAMS):
    """``run_cost_study`` on the pool: the resource ids its table CSV's header
    lists, the hour-major rows it reduced from its grid, and the study."""
    built = []

    def keep(*args):
        built.append(average_cost_table(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "average_cost_table", keep)
        study = experiments.run_cost_study(pool, params, horizon, samples_per_hour)
    return study.table_csv.splitlines()[0].split(",")[1:], built[0], study


def oracle_cost_table(pool, horizon, samples_per_hour, params):
    """Loop version of the study's table, its resource ids and hour-major rows:
    every cell evaluates its own instants and adds their costs in time order."""
    ranking = rank_resources(pool, 0.0, params)
    ids = [rid for rid, _ in ranking[:6]] if len(ranking) > 6 else [rid for rid, _ in ranking]
    by_id = {res.id: res for res in pool}
    rows = []
    for hour in range(horizon):
        instants = hour_instants(hour, samples_per_hour)
        row = []
        for rid in ids:
            total = 0.0
            for t in instants:  # one after another: builtin sum compensates from Python 3.12
                total += allocation_cost(by_id[rid], t, params)
            row.append(total / len(instants))
        rows.append(row)
    return ids, rows


def oracle_table_csv(ids, rows):
    """The study's table CSV, written cell by cell: an ``hour`` column, then
    one column per resource, each cost to six decimals."""
    lines = [",".join(["hour", *ids])]
    lines += [",".join([str(hour), *(f"{cell:.6f}" for cell in row)]) for hour, row in enumerate(rows)]
    return "".join(line + "\n" for line in lines)


def oracle_quorum_mean(pool, quorum, horizon, samples_per_hour, params):
    """Loop version of a quorum's grid mean: every term evaluates its own cost."""
    by_id = {res.id: res for res in pool}
    total = 0.0
    count = 0
    for hour in range(horizon):
        for t in hour_instants(hour, samples_per_hour):
            for rid in quorum.members:
                total += allocation_cost(by_id[rid], t, params)
                count += 1
    return total / count


def test_cost_table_keeps_six_best_of_larger_pool():
    pool = random_pool(random.Random(3), 10)
    ids, rows, _ = study_table(pool, horizon=4, samples_per_hour=6)
    ranking = [rid for rid, _ in rank_resources(pool, 0.0, PARAMS)]
    assert ids == ranking[:6]
    assert len(rows) == 4
    assert all(len(row) == 6 for row in rows)


def test_cost_table_small_pool_keeps_everyone():
    pool = random_pool(random.Random(4), 3)
    ids, rows, _ = study_table(pool, horizon=2, samples_per_hour=4)
    assert len(ids) == 3
    assert all(len(row) == 3 for row in rows)


def test_cost_table_cells_are_hourly_means():
    pool = random_pool(random.Random(8), 5)
    # periodic component plus noise so the mean is not just the base
    pool = [
        ResourceDescriptor(
            id=r.id,
            site=r.site,
            cpu_rate=r.cpu_rate,
            net_trace=MetricTrace(base=r.net_trace.base, amplitude=0.04, period=1800.0, noise_sigma=0.02, seed=i),
            sys_trace=r.sys_trace,
            bandwidth=r.bandwidth,
            latency=r.latency,
        )
        for i, r in enumerate(pool)
    ]
    samples = 5
    ids, rows, _ = study_table(pool, horizon=3, samples_per_hour=samples)
    by_id = {r.id: r for r in pool}
    for hour, row in enumerate(rows):
        for rid, cell in zip(ids, row):
            instants = hour_instants(hour, samples)
            expected = sum(allocation_cost(by_id[rid], t, PARAMS) for t in instants) / samples
            assert cell == pytest.approx(expected, abs=1e-12)


def test_cost_table_constant_traces_give_identical_rows():
    pool = [make_resource("a", 0.2, 0.1), make_resource("b", 0.5, 0.4)]
    _, rows, _ = study_table(pool, horizon=5, samples_per_hour=3)
    assert len(set(map(tuple, rows))) == 1


def test_cost_table_csv_layout():
    pool = [make_resource("a", 0.2, 0.1), make_resource("b", 0.5, 0.4)]
    text = experiments.run_cost_study(pool, PARAMS, 2, 2).table_csv
    lines = text.splitlines()
    assert lines[0] == "hour,a,b"
    assert len(lines) == 3
    for hour, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(hour)
        for cell in cells[1:]:
            whole, frac = cell.split(".")
            assert len(frac) == 6
    assert text.endswith("\n")
    assert "\r" not in text


def test_grid_costs_are_added_one_after_another_in_grid_order():
    # 1 + 2**-53 rounds back to 1, so where a 1.0 falls in the order decides each sum;
    # a compensated sum (math.fsum, or builtin sum from Python 3.12) and numpy's
    # pairwise sum, over more than 8 costs, give other bits
    tiny = 2.0**-53
    grid = {"a": np.array([1.0] + [tiny] * 30 + [1.0]), "b": np.array([tiny] * 8 + [1.0] + [tiny] * 23)}

    def in_order(costs):
        total = 0.0
        for cost in costs:
            total += cost
        return total

    hours = [[grid[rid][16 * h : 16 * h + 16] for rid in ("a", "b")] for h in range(2)]
    assert average_cost_table(grid, ("a", "b"), 16) == [[in_order(c) / 16 for c in hour] for hour in hours]
    assert in_order(hours[0][0]) not in (math.fsum(hours[0][0]), np.sum(hours[0][0]))
    # instant-major, members in quorum order
    costs = [cost for pair in zip(grid["b"].tolist(), grid["a"].tolist()) for cost in pair]
    assert quorum_grid_mean(grid, Quorum("L1", ("b", "a"))) == in_order(costs) / 64
    assert in_order(costs) not in (math.fsum(costs), np.sum(costs), in_order(grid["b"].tolist() + grid["a"].tolist()))


def test_quorum_grid_mean_is_member_average():
    pool = [make_resource("a", 0.2, 0.2), make_resource("b", 0.4, 0.4), make_resource("c", 0.8, 0.8)]
    quorum = generate_arq(pool, "L2", 0.0, PARAMS)
    mean = quorum_grid_mean(cost_grid(pool, horizon=2, samples_per_hour=3, params=PARAMS), quorum)
    # constant traces: cost of a is 0.2, b is 0.4, every instant
    assert mean == pytest.approx(0.3, abs=1e-12)


def test_cost_table_argument_validation():
    pool = [make_resource("a", 0.2, 0.1)]
    with pytest.raises(ValueError):
        cost_grid(pool, 0, 4, PARAMS)
    with pytest.raises(ValueError):
        cost_grid(pool, 4, 0, PARAMS)


@st.composite
def cost_cases(draw):
    """A pool of 1-12 resources (periodic and noise parts each off or on;
    some resources copy their predecessor's traces, so costs tie), weights,
    a horizon of 1-4 hours and 1-7 samples per hour."""

    def trace():
        return MetricTrace(
            base=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            amplitude=draw(st.just(0.0) | st.floats(1e-3, 0.6)),
            period=draw(st.floats(60.0, 86400.0)),
            phase=draw(st.floats(0.0, 2 * math.pi)),
            noise_sigma=draw(st.just(0.0) | st.floats(1e-3, 0.3)),
            seed=draw(st.integers(0, (1 << 64) - 1)),
        )

    pool = []
    for i in range(draw(st.integers(1, 12))):
        traces = (pool[-1].net_trace, pool[-1].sys_trace) if pool and draw(st.booleans()) else (trace(), trace())
        pool.append(ResourceDescriptor(f"r{i:02d}", "s", 100.0, *traces, 1e8, 0.01))
    alpha, beta = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    assume(alpha + beta > 0)
    return pool, AllocationCostParams(alpha, beta), draw(st.integers(1, 4)), draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(case=cost_cases())
def test_cost_study_equals_the_loop_oracles(case):
    pool, params, horizon, samples = case
    ids, rows, study = study_table(pool, horizon, samples, params)
    expected_ids, expected_rows = oracle_cost_table(pool, horizon, samples, params)
    assert ids == expected_ids
    assert rows == expected_rows
    assert study.table_csv == oracle_table_csv(expected_ids, expected_rows)
    assert study.level_means == tuple(
        (level, oracle_quorum_mean(pool, generate_arq(pool, level, 0.0, params), horizon, samples, params))
        for level in LEVELS
    )


@pytest.mark.parametrize("n", [1, 2, 7, 13])
def test_cost_study_evaluates_each_grid_cost_once(monkeypatch, n):
    pool = random_pool(random.Random(n), n, noise=0.05)
    horizon, samples = 3, 5
    batches, calls = Counter(), Counter()
    batch = resources._metric_batch

    def counted_batch(trace, angles, ticks):
        batches[id(trace)] += 1
        assert len(angles) == len(ticks) == horizon * samples
        return batch(trace, angles, ticks)

    def counted(res, t, params):
        calls[res.id, t] += 1
        return allocation_cost(res, t, params)

    monkeypatch.setattr(resources, "_metric_batch", counted_batch)
    monkeypatch.setattr(resources, "allocation_cost", counted)
    experiments.run_cost_study(pool, PARAMS, horizon, samples)
    # one batch per trace covers every grid instant; t=0 also ranks each resource once per level
    assert batches == Counter({id(trace): 1 for res in pool for trace in (res.net_trace, res.sys_trace)})
    assert calls == Counter({(res.id, 0.0): 3 for res in pool})


@st.composite
def grid_cases(draw):
    """Pools for the batched grid: seeds of any sign and width, zero noise and
    zero amplitude, and hour grids whose noise ticks fall between or on .5 ties
    (256 samples per hour put every odd tick on a tie)."""

    def trace():
        return MetricTrace(
            base=draw(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)),
            amplitude=draw(st.just(0.0) | st.floats(1e-3, 2.0)),
            period=draw(st.floats(1e-3, 1e6)),
            phase=draw(st.floats(-10.0, 10.0)),
            noise_sigma=draw(st.just(0.0) | st.floats(1e-3, 2.0)),
            seed=draw(st.integers(-(1 << 70), 1 << 70)),
        )

    pool = [ResourceDescriptor(f"r{i}", "s", 100.0, trace(), trace(), 1e8, 0.01) for i in range(draw(st.integers(1, 3)))]
    alpha, beta = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    assume(alpha + beta > 0)
    samples = draw(st.sampled_from([1, 7, 256]) | st.integers(1, 240))
    return pool, AllocationCostParams(alpha, beta), draw(st.integers(1, 2)), samples


def oracle_grid(pool, horizon, samples, params):
    instants = [t for hour in range(horizon) for t in hour_instants(hour, samples)]
    return {res.id: [allocation_cost(res, t, params) for t in instants] for res in pool}


def hex_grid(grid):
    return {rid: [cost.hex() for cost in costs] for rid, costs in grid.items()}


@settings(max_examples=100, deadline=None)
@given(case=grid_cases())
def test_cost_grid_equals_the_scalar_oracle_bit_for_bit(case):
    pool, params, horizon, samples = case
    assert hex_grid(cost_grid(pool, horizon, samples, params)) == hex_grid(oracle_grid(pool, horizon, samples, params))


@pytest.mark.parametrize("seed", [1, -5, (1 << 65) + 3])
def test_batched_noise_equals_the_scalar_normal_bit_for_bit(seed):
    # 6,000 ticks: numpy's SIMD log differs from libm in the last bit on about 0.35% of inputs
    ticks = [struct.pack("<Q", k) for k in range(6000)]
    expected = [resources._unit_normal(seed, k / 1000) for k in range(6000)]
    assert [z.hex() for z in resources._unit_normals(seed, ticks).tolist()] == [z.hex() for z in expected]


#: ``2**53 + 1`` tells one rounding from two (``float(a) + 1`` gives ``2**53``);
#: ``2**64 - 1`` is the one value whose ``a + 1`` wraps in uint64.
U1_CASES = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 63) + 1025, (1 << 64) - 2, (1 << 64) - 1]


@pytest.mark.parametrize("a", U1_CASES)
def test_u1_rounds_a_plus_one_once_as_python_ints_do(a):
    u1 = resources._u1(np.array([a], dtype=np.uint64))
    assert u1.dtype == np.float64
    assert float(u1[0]).hex() == ((a + 1) / 2.0**64).hex()


# -- pool documents ----------------------------------------------------------


def pool_doc():
    return [
        {
            "id": "a",
            "site": "s1",
            "cpu_rate": 100,
            "bandwidth": 1e8,
            "latency": 0.01,
            "net_trace": {"base": 0.2},
            "sys_trace": {"base": 0.3, "amplitude": 0.1, "period": 7200, "noise_sigma": 0.05, "seed": 4},
        }
    ]


def test_parse_pool_reads_traces_and_defaults():
    pool = parse_pool(pool_doc())
    assert len(pool) == 1
    res = pool[0]
    assert res.net_trace == MetricTrace(base=0.2)
    assert res.sys_trace.amplitude == 0.1
    assert res.sys_trace.seed == 4


def test_parse_pool_rejects_an_empty_pool():
    with pytest.raises(SchemaError) as err:
        parse_pool([])
    assert err.value.path == "pool"


def test_parse_pool_rejects_duplicate_id():
    document = pool_doc() + pool_doc()
    with pytest.raises(SchemaError):
        parse_pool(document)


def test_parse_pool_rejects_unknown_keys():
    document = pool_doc()
    document[0]["speed"] = 3
    with pytest.raises(SchemaError):
        parse_pool(document)
    document = pool_doc()
    document[0]["net_trace"]["wobble"] = 1
    with pytest.raises(SchemaError):
        parse_pool(document)


def test_parse_pool_rejects_out_of_range_trace():
    document = pool_doc()
    document[0]["net_trace"]["base"] = 1.2
    with pytest.raises(SchemaError):
        parse_pool(document)
