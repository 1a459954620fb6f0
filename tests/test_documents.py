"""Document helper tests: ``dump_json`` against the stdlib encoder, and the
finite-number test against ``float()``."""

import enum
import importlib.resources
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridwms import documents
from hybridwms.documents import dump_json, load_json
from hybridwms.engine import record_document, run_workflow
from hybridwms.errors import SchemaError
from hybridwms.experiments import load_workflow_bundle
from hybridwms.gridengine import execute_plan
from hybridwms.policy import parse_repository, parse_sla
from hybridwms.resources import Quorum, parse_pool
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


#: Keys of the repeated layouts: few, so layouts repeat, and ordered unlike
#: insertion, needing escapes, or empty.
LAYOUT_KEYS = ("a", "b", "B", "", "é", "a\n", '"q"', "\U0001f600")
layout_values = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2.5, -1e-7]),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    strings,
)


@st.composite
def repeated_layouts(draw):
    """A list of dicts over a few key sets drawn from ``LAYOUT_KEYS``, each
    dict's keys inserted in a shuffled order. A value may be another dict over
    the same key sets, so one layout meets two depths."""
    shapes = draw(st.lists(st.lists(st.sampled_from(LAYOUT_KEYS), min_size=1, max_size=4, unique=True), min_size=1, max_size=3))

    def record(depth: int) -> dict:
        keys = draw(st.permutations(draw(st.sampled_from(shapes))))
        return {key: record(depth - 1) if depth and draw(st.booleans()) else draw(layout_values) for key in keys}

    return [record(1) for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=300, deadline=None)
@given(repeated_layouts())
@example([{"x": 0.0}, {"x": -0.0}, {"x": 0.0}])
@example([{"x": -0.0}, {"x": 0.0}])
@example([{"a": 1, "b": {"a": 2.5, "b": "s"}}, {"a": {"a": -0.0, "b": 1}, "b": 0.0}])
def test_repeated_layouts_equal_the_stdlib_encoder(records):
    assert outcome(dump_json, records) == outcome(stdlib_text, records)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class HashedLabel(str):
    """Equal to the ``str`` it holds, with a hash of its own."""

    def __hash__(self):
        return 7


@st.composite
def consecutive_layouts(draw, depth: int = 1):
    """A list whose dict items each repeat the previous dict item's keys,
    repeat them in another insertion order, alternate with the dict item
    before that, or take a new key set from ``LAYOUT_KEYS``; empty dicts and
    scalars sit between them. At ``depth`` > 0 a value may be such a list one
    level down, so one layout meets two depths."""
    items, shapes = [], []
    for _ in range(draw(st.integers(1, 8))):
        move = draw(st.sampled_from(("repeat", "reorder", "alternate", "new", "empty", "scalar")))
        if move == "scalar":
            items.append(draw(layout_values))
            continue
        if move == "empty":
            items.append({})
            continue
        if move == "repeat" and shapes:
            keys = shapes[-1]
        elif move == "reorder" and shapes:
            keys = draw(st.permutations(shapes[-1]))
        elif move == "alternate" and len(shapes) > 1:
            keys = shapes[-2]
        else:
            keys = draw(st.lists(st.sampled_from(LAYOUT_KEYS), min_size=1, max_size=4, unique=True))
        shapes.append(keys)
        nested = depth > 0 and draw(st.booleans())
        items.append({key: draw(consecutive_layouts(depth - 1)) if nested else draw(layout_values) for key in keys})
    return items


@settings(max_examples=300, deadline=None)
@given(consecutive_layouts())
@example([{"k": 1, "j": 2}, {Label("k"): 1, "j": 2}])
@example([{"k": 1, "j": 2}, {"j": 3, "k": 4}, {"j": 5, Label("k"): 6}])
@example([{"k": 1}, {}, {Label("k"): 2}, {"k": 3}])
@example([{Label("k"): 1}, {"k": 2}])
@example([{"a": 1, "b": 2}, {"a": 3}, {"a": 4, "b": 5}, {"a": 6}])
@example([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
@example([{"a": [{"a": 1}, {"a": 2}]}, {"a": [{"a": 3}]}])
def test_consecutive_dict_items_equal_the_stdlib_encoder(items):
    assert outcome(dump_json, items) == outcome(stdlib_text, items)


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
@example(-0.0)
@example(2**53 + 1)
@example(None)
def test_is_finite_number_agrees_with_float(value):
    assert documents.is_finite_number(value) is finite_by_float(value)
    # get_number returns float(value) bit for bit, -0.0 with its sign, or refuses the value at its path
    if finite_by_float(value):
        assert struct.pack("<d", documents.get_number({"k": value}, "k", "p")) == struct.pack("<d", float(value))
    else:
        with pytest.raises(SchemaError, match=r"^p\.k: expected finite number$"):
            documents.get_number({"k": value}, "k", "p")
    with pytest.raises(SchemaError, match=r"^p\.k: missing required field$"):
        documents.get_number({"j": value}, "k", "p")


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
        [{"k": 1, "j": 2}, {Label("k"): 1, "j": 2}],
        [{"1": "a"}, {1: "a"}],
        [{"a": 1, "b": 2}, {"a": 1, 2: "b"}],
        [{"k": "v"}, {"k": Label("v")}],
        [{"k": 1}, {HashedLabel("k"): 2}],
        {"quorum": Quorum("L1", ("r1", "r2"))},
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
        "str-subclass-key-after-its-layout",
        "int-key-after-str-layout",
        "mixed-keys-after-str-layout",
        "str-subclass-value-in-a-known-layout",
        "str-subclass-key-hashed-otherwise-after-a-list-layout",
        "named-tuple-value",
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
    tree = {
        "b": [1, 2.5, -0.0, None, True, ("t", float("nan"))],
        "a": {"k": "vé"},
        "c": {},
        "d": [{"x": 1, "y": 2}, {"y": 3, "x": 4}, {"x": 5, "z": 6}, {}, {"x": 7}],
    }
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
