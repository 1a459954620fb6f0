"""Document helper tests: ``dump_json`` against the stdlib encoder, and the
finite-number test against ``float()``."""

import enum
import importlib.resources
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridwms import documents
from hybridwms.documents import dump_json, load_json
from hybridwms.engine import record_document, run_workflow
from hybridwms.experiments import load_workflow_bundle
from hybridwms.gridengine import execute_plan
from hybridwms.policy import parse_repository, parse_sla
from hybridwms.resources import parse_pool
from hybridwms.runconfig import parse_run_config
from test_gridengine import PACKAGED_SLAS, seeded_plans


def stdlib_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def outcome(write, obj):
    """The text ``write`` returns, or the type and message of what it raises."""
    try:
        return write(obj)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome compared
        return type(exc), str(exc)


TRICKY_CHARS = '"\\/\n\r\t\b\f\x00\x1f\x7f\x80\u2028\u2029é€\U0001f600\U000103ff\ud800\udbff\udc00\udfff'
strings = st.text(st.one_of(st.characters(), st.sampled_from(TRICKY_CHARS)), max_size=8)
floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7, 0.1, float("nan"), float("inf"), float("-inf")]
    ),
)
ints = st.one_of(st.integers(), st.integers(min_value=-(10**60), max_value=10**60), st.sampled_from([2**63, -(2**63) - 1, 2**64]))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, strings)


def trees(depth: int):
    """JSON-like trees of at most ``depth`` container levels; tuples write as lists."""
    if depth == 0:
        return scalars
    child = trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(child, max_size=3),
        st.lists(child, max_size=3).map(tuple),
        st.dictionaries(strings, child, max_size=3),
    )


@settings(max_examples=500, deadline=None)
@given(trees(6))
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example([True, 1, False, 0, 1.0, 0.0, -0.0, None])
@example({"x": float("nan"), "y": float("inf"), "z": -float("inf")})
@example("\ud800 \x00 \"quoted\" back\\slash café")
@example(-0.0)
def test_writer_equals_the_stdlib_encoder(tree):
    assert dump_json(tree) == stdlib_text(tree)


def finite_by_float(value) -> bool:
    """The finite-number rule as ``float()`` tells it: an int or a float that
    converts without overflow to a value ``v`` with ``v - v == 0``."""
    if type(value) not in (int, float):
        return False
    try:
        converted = float(value)
    except OverflowError:
        return False
    return converted - converted == 0


#: 2**1024 - 2**970 is the first int that ``float()`` rounds past the largest float.
FLOAT_EDGE = 2**1024 - 2**970
HUGE_INTS = st.integers(FLOAT_EDGE - 2**971, FLOAT_EDGE + 2**971) | st.integers(min_value=2**1030)


@given(st.integers() | HUGE_INTS | HUGE_INTS.map(lambda n: -n) | st.floats() | st.booleans() | st.text())
@example(FLOAT_EDGE)
@example(FLOAT_EDGE - 1)
@example(-FLOAT_EDGE)
@example(10**400)
@example(float("nan"))
@example(float("-inf"))
@example(True)
@example("1.0")
def test_is_finite_number_agrees_with_float(value):
    assert documents.is_finite_number(value) is finite_by_float(value)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


def self_containing_list():
    items = [1]
    items.append(items)
    return items


@pytest.mark.parametrize(
    "obj",
    [
        {1: "a", 2: "b"},
        {1.5: "a", -0.0: "b", float("nan"): "c"},
        {True: "a", False: "b"},
        {None: "a"},
        {"a": 1, 2: "b"},
        {"a": 1.5, "b": {1.5: "float key after the same float value"}},
        {"a": Level.HIGH},
        [Level.LOW, Level.HIGH],
        {Level.LOW: "low"},
        Label("label"),
        {Label("k"): Label("v")},
        {"ids": {1, 2}},
        self_containing_list(),
        {"self": self_containing_list()},
    ],
    ids=[
        "int-keys",
        "float-keys",
        "bool-keys",
        "none-key",
        "mixed-keys",
        "float-key-after-float-value",
        "intenum-value",
        "intenum-list",
        "intenum-key",
        "str-subclass",
        "str-subclass-key-and-value",
        "set",
        "self-containing-list",
        "nested-self-containing-list",
    ],
)
def test_values_outside_plain_json_get_the_stdlib_outcome(obj):
    assert outcome(dump_json, obj) == outcome(stdlib_text, obj)


def test_set_and_cycle_raise_the_stdlib_exceptions():
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json({1, 2})
    with pytest.raises(ValueError, match="Circular reference"):
        dump_json(self_containing_list())


def test_plain_values_never_reach_the_stdlib(monkeypatch):
    tree = {"b": [1, 2.5, -0.0, None, True, ("t", float("nan"))], "a": {"k": "vé"}, "c": {}}
    expected = stdlib_text(tree)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps was called")

    monkeypatch.setattr(documents.json, "dumps", refuse)
    assert dump_json(tree) == expected


def test_plan_and_execution_documents_match_the_stdlib():
    for plan, pool, _, _ in seeded_plans():
        for document in (plan.as_document(), execute_plan(plan, pool).as_document()):
            assert dump_json(document) == stdlib_text(document)


def test_packaged_run_records_match_the_stdlib():
    data = importlib.resources.files("hybridwms") / "data"
    bundle = load_workflow_bundle(data / "workflows/heart-disease.json")
    pool = parse_pool(load_json(data / "pool.json"))
    repo = parse_repository(load_json(data / "policies.json"))
    config = parse_run_config(load_json(data / "run_config.json"))
    for name in PACKAGED_SLAS:
        sla = parse_sla(load_json(data / f"slas/{name}.json"))
        document = record_document(run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config))
        assert dump_json(document) == stdlib_text(document)
