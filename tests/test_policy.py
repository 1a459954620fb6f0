"""SLA expansion, policy decision, and configuration enforcement tests."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridwms.errors import NoMatchingPolicy, SchemaError, WmsError
from hybridwms.policy import (
    CONFIG_SCHEMA,
    DEFAULT_PROVENANCE,
    SLA_DOMAINS,
    SOFT_LABELS,
    ConfigRegistry,
    Override,
    Policy,
    PolicyKind,
    Predicate,
    Sla,
    decide_policy,
    enforce,
    expand_soft_label,
    parse_repository,
    parse_sla,
    policy_matches,
)
from hybridwms.resources import MetricTrace, ResourceDescriptor


def policy(pid, kind, priority=0, condition=(), actions=(("scheduler.seed", 1),)):
    return Policy(pid, kind, priority, tuple(condition), tuple(actions))


def loaded_pool(*loads):
    """A pool of one resource per load, whose system load is that constant."""
    return [
        ResourceDescriptor(f"r{i}", "s", 1.0, MetricTrace(base=0.0), MetricTrace(base=load), 1.0, 0.0)
        for i, load in enumerate(loads)
    ]


POOL = loaded_pool(0.0)


def full_repo():
    return [
        policy("A1", PolicyKind.APP, 10, [Predicate("service_level", "==", "EcgVhs")]),
        policy("A2", PolicyKind.APP, 0),
        policy("R1", PolicyKind.RESOURCE, 10, [Predicate("resource_level", "==", "L1")]),
        policy("R2", PolicyKind.RESOURCE, 0),
        policy("W1", PolicyKind.WORKFLOW, 10, [Predicate("performance", "==", "Fast")]),
        policy("W2", PolicyKind.WORKFLOW, 0),
    ]


# -- soft labels --------------------------------------------------------------


def test_soft_labels_expand_to_fixed_triples():
    for label, (level, perf, service) in SOFT_LABELS.items():
        sla = expand_soft_label(Sla(user_id="u", soft_label=label))
        assert (sla.resource_level, sla.performance, sla.service_level) == (level, perf, service)
        assert sla.soft_label is None


def test_expand_keeps_explicit_fields():
    sla = expand_soft_label(Sla(user_id="u", soft_label="Low Cost", performance="Fast"))
    assert sla.resource_level == "L3"
    assert sla.performance == "Fast"
    assert sla.service_level == "EcgOnly"


def test_expand_unknown_label_raises():
    with pytest.raises(WmsError, match=r"^unknown soft requirement 'Best Effort'$") as excinfo:
        expand_soft_label(Sla(user_id="u", soft_label="Best Effort"))
    assert type(excinfo.value) is WmsError


def test_expand_requires_a_label():
    sla = Sla(user_id="u", resource_level="L2", performance="Standard", service_level="EcgDetect")
    with pytest.raises(ValueError):
        expand_soft_label(sla)


# -- decision ------------------------------------------------------------------


def expanded(level="L1", perf="Fast", service="EcgVhs"):
    return Sla(user_id="u", resource_level=level, performance=perf, service_level=service)


def ids(chosen):
    return [p.id for p in chosen]


def test_decide_picks_highest_priority_per_kind():
    assert ids(decide_policy(expanded(), full_repo(), POOL)) == ["A1", "R1", "W1"]


def test_decide_falls_back_to_catch_all():
    assert ids(decide_policy(expanded("L3", "Economy", "EcgOnly"), full_repo(), POOL)) == ["A2", "R2", "W2"]


def test_decide_breaks_priority_ties_by_id():
    repo = full_repo() + [policy("A0", PolicyKind.APP, 10, [Predicate("service_level", "==", "EcgVhs")])]
    assert ids(decide_policy(expanded(), repo, POOL)) == ["A0", "R1", "W1"]


def test_decide_returns_one_policy_of_each_kind_in_kind_order():
    rng = random.Random(29)
    for _ in range(10):
        repo = full_repo()
        rng.shuffle(repo)
        chosen = decide_policy(expanded(), repo, POOL)
        assert [p.kind for p in chosen] == list(PolicyKind)
    # the declaration is the enforcement order: a resource policy overrides an app policy
    assert list(PolicyKind) == [PolicyKind.APP, PolicyKind.RESOURCE, PolicyKind.WORKFLOW]


def test_decide_requires_every_kind():
    repo = [p for p in full_repo() if p.kind is not PolicyKind.WORKFLOW]
    with pytest.raises(NoMatchingPolicy) as err:
        decide_policy(expanded(), repo, POOL)
    assert err.value.kind == "LowLevelWorkflow"


def test_decide_refuses_two_policies_with_one_id():
    # one id is the provenance of two policies' writes; at equal priority the key
    # (-priority, id) would keep whichever came first
    twin = policy("R1", PolicyKind.RESOURCE, 10, [Predicate("resource_level", "==", "L1")], [("resource.level", "L2")])
    for repo in (full_repo() + [twin], [twin] + full_repo()):
        with pytest.raises(WmsError, match=r"^duplicate policy id 'R1'$") as excinfo:
            decide_policy(expanded(), repo, POOL)
        assert type(excinfo.value) is WmsError


def test_decide_rejects_unexpanded_sla():
    with pytest.raises(ValueError):
        decide_policy(Sla(user_id="u", soft_label="Balanced"), full_repo(), POOL)


def test_condition_reads_the_pool_load():
    repo = full_repo() + [
        policy("R9", PolicyKind.RESOURCE, 99, [Predicate("grid.load", ">=", 0.5)]),
    ]
    assert ids(decide_policy(expanded(), repo, loaded_pool(0.2, 0.6))) == ["A1", "R1", "W1"]
    assert ids(decide_policy(expanded(), repo, loaded_pool(0.4, 0.6))) == ["A1", "R9", "W1"]


def test_numeric_predicates_and_operators():
    pool = loaded_pool(0.7)
    sla = expanded()
    assert policy_matches(policy("x", PolicyKind.APP, condition=[Predicate("grid.load", ">=", 0.5)]), sla, pool)
    assert policy_matches(policy("x", PolicyKind.APP, condition=[Predicate("grid.load", "<=", 0.7)]), sla, pool)
    assert not policy_matches(policy("x", PolicyKind.APP, condition=[Predicate("grid.load", "!=", 0.7)]), sla, pool)


def test_ordered_comparison_against_none_raises():
    with pytest.raises(WmsError, match=r"^cannot compare resource_level=None with 3$") as excinfo:
        policy_matches(
            policy("x", PolicyKind.APP, condition=[Predicate("resource_level", "<=", 3)]),
            Sla(user_id="u"),
            POOL,
        )
    assert type(excinfo.value) is WmsError


def test_multi_predicate_condition_is_conjunction():
    p = policy(
        "x",
        PolicyKind.APP,
        condition=[Predicate("performance", "==", "Fast"), Predicate("resource_level", "==", "L1")],
    )
    assert policy_matches(p, expanded(), POOL)
    assert not policy_matches(p, expanded(level="L2"), POOL)


def test_policy_requires_an_action():
    with pytest.raises(ValueError):
        Policy("x", PolicyKind.APP, 0, (), ())


# -- registry and enforcement ----------------------------------------------------


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400, -(10**400)])
def test_a_float_key_refuses_a_number_that_is_not_finite(value):
    registry = ConfigRegistry()
    message = f"config key 'resource.alpha' must be finite, got {value!r}"
    with pytest.raises(WmsError, match=f"^{re.escape(message)}$") as excinfo:
        registry.set("resource.alpha", value, "p")
    assert type(excinfo.value) is WmsError
    assert registry.get("resource.alpha") == 0.5


def test_registry_defaults_cover_schema():
    registry = ConfigRegistry()
    for key, spec in CONFIG_SCHEMA.items():
        entry = registry.entry(key)
        assert entry.value == spec.default
        assert entry.provenance == DEFAULT_PROVENANCE


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("resource.gamma", 1.0, "config key 'resource.gamma' is not registered"),
        ("resource.alpha", "hot", "config key 'resource.alpha' expects float, got str"),
        ("resource.alpha", True, "config key 'resource.alpha' expects float, got bool"),
        ("resource.level", "L9", "config key 'resource.level' must be one of ['L1', 'L2', 'L3', 'RANDOM'], got 'L9'"),
        ("vhs.max_iter", 0, "config key 'vhs.max_iter' must be >= 1, got 0"),
        ("vhs.tolerance", 0.0, "config key 'vhs.tolerance' must be >= 1e-12, got 0.0"),
    ],
    ids=["unregistered-key", "str-for-float", "bool-for-float", "outside-domain", "int-below-minimum", "float-below-minimum"],
)
def test_registry_validates_writes(key, value, message):
    registry = ConfigRegistry()
    with pytest.raises(WmsError, match=f"^{re.escape(message)}$") as excinfo:
        registry.set(key, value, "p")
    assert type(excinfo.value) is WmsError
    assert registry.as_dict() == ConfigRegistry().as_dict()


def test_registry_stores_an_int_written_to_a_float_key_as_a_float():
    registry = ConfigRegistry()
    registry.set("resource.alpha", 1, "p")
    assert registry.get("resource.alpha") == 1.0
    assert isinstance(registry.get("resource.alpha"), float)


def test_enforce_applies_in_kind_order_and_reports_overrides():
    registry = ConfigRegistry()
    policies = (
        policy("A", PolicyKind.APP, actions=[("app.workflow", "EcgOnly"), ("vhs.max_iter", 2)]),
        policy("R", PolicyKind.RESOURCE, actions=[("resource.level", "L1"), ("vhs.max_iter", 9)]),
        policy("W", PolicyKind.WORKFLOW, actions=[("scheduler.kind", "Random")]),
    )
    overrides = enforce(policies, registry)
    written = ("app.workflow", "resource.level", "scheduler.kind", "vhs.max_iter")
    assert [registry.entry(key).provenance for key in written] == ["A", "R", "W", "R"]
    assert registry.get("vhs.max_iter") == 9
    assert registry.entry("vhs.max_iter").provenance == "R"
    assert overrides == (Override("vhs.max_iter", "A", "R", 2, 9),)


def test_enforce_is_idempotent():
    registry = ConfigRegistry()
    policies = (
        policy("A", PolicyKind.APP, actions=[("app.workflow", "EcgDetect")]),
        policy("R", PolicyKind.RESOURCE, actions=[("resource.level", "L2")]),
        policy("W", PolicyKind.WORKFLOW, actions=[("scheduler.kind", "RoundRobin")]),
    )
    enforce(policies, registry)
    first = registry.as_dict()
    enforce(policies, registry)
    assert registry.as_dict() == first


def test_enforce_rejects_unknown_action_key():
    registry = ConfigRegistry()
    policies = (
        policy("A", PolicyKind.APP, actions=[("app.colour", "blue")]),
        policy("R", PolicyKind.RESOURCE),
        policy("W", PolicyKind.WORKFLOW),
    )
    with pytest.raises(WmsError, match=r"^config key 'app\.colour' is not registered$") as excinfo:
        enforce(policies, registry)
    assert type(excinfo.value) is WmsError


#: Values each drawn action may write, for a few keys of the schema.
ACTION_VALUES = {
    "scheduler.seed": st.integers(-5, 5),
    "vhs.max_iter": st.integers(1, 5),
    "resource.alpha": st.sampled_from([0.0, 0.5, 2.0]),
    "app.workflow": st.sampled_from(["EcgOnly", "EcgVhs"]),
}

action = st.sampled_from(sorted(ACTION_VALUES)).flatmap(lambda key: st.tuples(st.just(key), ACTION_VALUES[key]))


@given(order=st.permutations(list(PolicyKind)), drawn=st.lists(st.lists(action, min_size=1, max_size=5), min_size=3, max_size=3))
def test_enforce_leaves_each_key_to_its_last_writer_and_lists_every_rewrite(order, drawn):
    policies = tuple(policy(f"P{i}", kind, actions=acts) for i, (kind, acts) in enumerate(zip(order, drawn)))
    last = {}  # key -> (writer id, value), the oracle
    expected = []
    for p in policies:
        for key, value in p.actions:
            if key in last:
                expected.append(Override(key, last[key][0], p.id, last[key][1], value))
            last[key] = (p.id, value)
    registry = ConfigRegistry()
    assert enforce(policies, registry) == tuple(expected)
    for key, spec in CONFIG_SCHEMA.items():
        writer, value = last.get(key, (DEFAULT_PROVENANCE, spec.default))
        assert (registry.get(key), registry.entry(key).provenance) == (value, writer)


def test_decide_enforce_reproducible_over_shuffled_repos():
    rng = random.Random(21)
    baseline = None
    for _ in range(10):
        repo = full_repo()
        rng.shuffle(repo)
        registry = ConfigRegistry()
        enforce(decide_policy(expanded(), repo, POOL), registry)
        if baseline is None:
            baseline = registry.as_dict()
        assert registry.as_dict() == baseline


# -- documents -------------------------------------------------------------------


def test_parse_sla_soft_label_form():
    sla = parse_sla({"user_id": "u", "soft_label": "High Performance"})
    assert sla.soft_label == "High Performance"
    assert sla.resource_level is None


def test_parse_sla_explicit_form_and_validation():
    sla = parse_sla({"user_id": "u", "resource_level": "L2", "performance": "Standard", "service_level": "EcgDetect"})
    assert sla.performance == "Standard"
    with pytest.raises(SchemaError):
        parse_sla({"user_id": "u", "resource_level": "L2"})
    with pytest.raises(SchemaError):
        parse_sla({"user_id": "u", "resource_level": "L7", "performance": "Standard", "service_level": "EcgDetect"})
    with pytest.raises(SchemaError):
        parse_sla({"user_id": "u", "soft_label": "High Performance", "extra": 1})


def repo_doc():
    return [
        {
            "id": "P1",
            "kind": "Resource",
            "priority": 5,
            "condition": [{"key": "resource_level", "op": "==", "value": "L1"}],
            "actions": [{"key": "resource.level", "value": "L1"}],
        }
    ]


def test_parse_repository_round_trip():
    repo = parse_repository(repo_doc())
    assert repo[0].id == "P1"
    assert repo[0].kind is PolicyKind.RESOURCE
    assert repo[0].condition == (Predicate("resource_level", "==", "L1"),)
    assert repo[0].actions == (("resource.level", "L1"),)


def test_parse_repository_rejects_bad_documents():
    bad_kind = repo_doc()
    bad_kind[0]["kind"] = "Cosmic"
    with pytest.raises(SchemaError):
        parse_repository(bad_kind)

    bad_op = repo_doc()
    bad_op[0]["condition"][0]["op"] = "~="
    with pytest.raises(SchemaError):
        parse_repository(bad_op)

    bad_key = repo_doc()
    bad_key[0]["condition"][0]["key"] = "favourite_colour"
    with pytest.raises(SchemaError):
        parse_repository(bad_key)

    no_actions = repo_doc()
    no_actions[0]["actions"] = []
    with pytest.raises(SchemaError):
        parse_repository(no_actions)

    dup = repo_doc() + repo_doc()
    with pytest.raises(SchemaError):
        parse_repository(dup)


@pytest.mark.parametrize("key", ["grid.alert", "site.maintenance"])
def test_parse_repository_refuses_a_property_the_pool_cannot_show(key):
    repo = repo_doc()
    repo[0]["condition"][0] = {"key": key, "op": "==", "value": True}
    with pytest.raises(SchemaError) as err:
        parse_repository(repo)
    assert err.value.path == "policies[0].condition[0].key"


@pytest.mark.parametrize(
    "key, op, value, ok",
    [
        ("resource_level", "==", "L1", True),
        ("resource_level", "!=", 3, False),
        ("resource_level", "==", "", False),
        ("performance", "<=", None, False),
        ("service_level", "==", ["EcgVhs"], False),
        ("user_id", "!=", "anyone", True),
        ("resource_level", "==", "L9", False),
        ("performance", "!=", "Slow", False),
        ("service_level", "==", "EcgVhsAlways", False),
        ("grid.load", "<=", 0.5, True),
        ("grid.load", "!=", 1, True),
        ("grid.load", "==", True, False),
        ("grid.load", "<=", float("nan"), False),
        ("grid.load", ">=", float("inf"), False),
        ("grid.load", "==", 10**400, False),
        ("grid.load", ">=", "0.5", False),
    ],
)
def test_parse_repository_type_checks_every_predicate_value(key, op, value, ok):
    repo = repo_doc()
    repo[0]["condition"][0] = {"key": key, "op": op, "value": value}
    if ok:
        assert parse_repository(repo)[0].condition == (Predicate(key, op, value),)
        return
    with pytest.raises(SchemaError) as err:
        parse_repository(repo)
    assert err.value.path == "policies[0].condition[0].value"


@pytest.mark.parametrize("key", sorted(SLA_DOMAINS))
def test_an_sla_field_and_a_condition_on_it_accept_the_same_values(key):
    sla = {"user_id": "u", "resource_level": "L1", "performance": "Fast", "service_level": "EcgVhs"}
    repo = repo_doc()
    for value in SLA_DOMAINS[key] + ("L9", "Slow", "EcgVhsAlways", "l1", "fast"):
        repo[0]["condition"][0] = {"key": key, "op": "==", "value": value}
        for parse, document in ((parse_sla, {**sla, key: value}), (parse_repository, repo)):
            if value in SLA_DOMAINS[key]:
                parse(document)
            else:
                with pytest.raises(SchemaError):
                    parse(document)
