"""Every import in the package and its tests is used, every dataclass in the
package checks itself or is listed, and a command that computes no signal loads
neither numpy nor ``cmath``. No package module imports ``cmath``: the noise
replay and the cost grid take their ``cos`` and ``sin`` from numpy's complex
``exp``.

No linter runs on this repository, so the first test is the check: it parses
each module with ``ast`` and lists every imported name that the module never
reads. A name counts as read when it appears as a name anywhere in the module or
is listed in its ``__all__``. An import whose line carries ``# noqa: F401`` is
kept on purpose (a name some other code patches, say).

The second parses the package the same way. A record that checks nothing is a
``typing.NamedTuple``; ``@dataclass`` is for a class with a ``__post_init__``
and for the few listed in ``PLAIN_DATACLASSES``.

The third does too: a module-level ``_*_KEYS`` set, the keys a parser lets a
document hold, is ``frozenset`` of a record's fields, so the record owns them,
or is listed in ``KEY_SETS_OFF_A_RECORD`` with the value it must hold and why.

The fourth holds ``errors`` to its rule: a ``WmsError`` subclass defines
``__init__`` to carry fields, or an ``except`` clause in the package names it,
or it is listed in ``LISTED_ERRORS`` with its reason.

The others import the package in a fresh interpreter and list the modules it
loaded.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from hybridwms.ecg import EcgSignal
from hybridwms.experiments import ExperimentSpec
from hybridwms.policy import SLA_FIELDS, Sla
from hybridwms.runconfig import CANDIDATE_DEFAULTS, THRESHOLD_DOMAINS, RunConfig, Thresholds
from hybridwms.workflow import _PAYLOAD_SCHEMA

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path, root: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.relative_to(root)}:{alias.lineno}: {bound}")
    return unused


def test_no_module_in_src_or_tests_imports_a_name_it_never_reads(tmp_path):
    # the scan itself: a plain, a dotted and a multi-line import, and both exemptions
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "from math import pi, tau\n"
        "__all__ = ['pi']\n"
        "print(osp.sep)\n"
    )
    assert unused_imports(sample, tmp_path) == ["sample.py:2: os", "sample.py:5: dumps", "sample.py:8: tau"]

    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(modules) > 20
    assert [line for path in modules for line in unused_imports(path, ROOT)] == []


#: The ``@dataclass`` classes in ``src/`` that define no ``__post_init__``, as ``module.Class``.
PLAIN_DATACLASSES = [
    "ecg.EcgSignal",  # test_hybrid asserts FrozenInstanceError when a checked config's signal is edited
    "engine._Context",  # mutable: a run's walk advances its cursor and fills its workspace and dispatches
]


def plain_dataclasses(path: Path) -> list[str]:
    """``module.Class`` for each class in ``path`` decorated ``@dataclass``, called
    or not, plain or dotted, whose body defines no ``__post_init__``."""
    plain = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets):
            continue
        if not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body):
            plain.append(f"{path.stem}.{node.name}")
    return plain


def test_a_dataclass_in_src_checks_itself_or_is_listed(tmp_path):
    # the scan itself: called, bare and dotted decorators, a checked class and a named tuple
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\nclass Called:\n    x: int\n"
        "@dataclass\nclass Bare:\n    x: int\n"
        "@dataclasses.dataclass\nclass Dotted:\n    x: int\n"
        "@dataclass\nclass Checked:\n    x: int\n    def __post_init__(self):\n        pass\n"
        "class Record(NamedTuple):\n    x: int\n"
    )
    assert plain_dataclasses(sample) == ["sample.Called", "sample.Bare", "sample.Dotted"]

    modules = sorted((ROOT / "src").rglob("*.py"))
    assert sorted(name for path in modules for name in plain_dataclasses(path)) == PLAIN_DATACLASSES


#: The module-level key sets in ``src/`` that are not ``frozenset`` of one record's fields,
#: as ``module._NAME``: the value each must hold, and why it is not a record's fields.
KEY_SETS_OFF_A_RECORD = {
    "runconfig._RUN_CONFIG_KEYS": (
        {*RunConfig.__dataclass_fields__} - {"candidates"} | {"vhs_grid"},
        "a document's vhs_grid is the record's candidates",
    ),
    "experiments._SPEC_KEYS": ({*ExperimentSpec.__dataclass_fields__, "kind"}, "kind names the one study a spec runs"),
    "runconfig._SAMPLE_KEYS": (set(EcgSignal.__dataclass_fields__), "ecg.EcgSignal's fields; runconfig loads no ecg"),
    "runconfig._CANDIDATE_KEYS": ({"bpm", *CANDIDATE_DEFAULTS}, "a VHS candidate is a mapping, not a record"),
    "runconfig._FILE_KEYS": ({"file"}, "a patient read from a sample file holds only its path"),
    "policy._ACTION_KEYS": ({"key", "value"}, "a policy holds each action as a (key, value) pair"),
    "workflow._INPUT_KEYS": ({"file", "bytes", "consumer"}, "a sub-workflow holds each input as a triple"),
    "workflow._PAYLOAD_KEYS": (
        {kind: {*required, *optional, "min_service"} for kind, (required, optional) in _PAYLOAD_SCHEMA.items()},
        "one set per node kind: its _PAYLOAD_SCHEMA keys and min_service",
    ),
}


def key_sets(path: Path) -> dict[str, str | None]:
    """``module._NAME`` for each module-level ``_*_KEYS`` assignment in ``path``,
    with the record fields it is ``frozenset`` of, ``Class._fields`` or
    ``Class.__dataclass_fields__``, or ``None`` for any other value."""
    sets = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_[A-Z_]*_KEYS", target.id):
                value, derived = node.value, None
                if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset" and len(value.args) == 1:
                    fields = value.args[0]
                    if isinstance(fields, ast.Attribute) and isinstance(fields.value, ast.Name):
                        if fields.attr in ("_fields", "__dataclass_fields__"):
                            derived = f"{fields.value.id}.{fields.attr}"
                sets[f"{path.stem}.{target.id}"] = derived
    return sets


def test_a_key_set_in_src_is_a_records_fields_or_is_listed(tmp_path):
    # the scan itself: both derived forms, and the values that are not
    sample = tmp_path / "sample.py"
    sample.write_text(
        "_A_KEYS = frozenset(Record._fields)\n"
        "_B_KEYS: frozenset = frozenset(Checked.__dataclass_fields__)\n"
        "_C_KEYS = frozenset({'x', 'y'})\n"
        "_D_KEYS = frozenset(Record._fields) | {'z'}\n"
        "_E_KEYS = frozenset(DOMAINS)\n"
        "_G_KEYS = frozenset(Record.__annotations__)\n"
        "KEYS = frozenset({'x'})\n"
        "def f():\n    _F_KEYS = frozenset({'x'})\n"
    )
    assert key_sets(sample) == {
        "sample._A_KEYS": "Record._fields",
        "sample._B_KEYS": "Checked.__dataclass_fields__",
        "sample._C_KEYS": None,
        "sample._D_KEYS": None,
        "sample._E_KEYS": None,
        "sample._G_KEYS": None,
    }

    found = {name: record for path in sorted((ROOT / "src").rglob("*.py")) for name, record in key_sets(path).items()}
    assert sorted(name for name, record in found.items() if record is None) == sorted(KEY_SETS_OFF_A_RECORD)
    for name, fields in found.items():
        module_name, key_set = name.split(".")
        module = importlib.import_module(f"hybridwms.{module_name}")
        if fields is None:
            assert getattr(module, key_set) == KEY_SETS_OFF_A_RECORD[name][0], name
        else:  # the class is a record of that module
            record, attr = fields.split(".")
            assert getattr(module, key_set) == frozenset(getattr(getattr(module, record), attr)), name
    assert len(found) > len(KEY_SETS_OFF_A_RECORD)  # the scan found the derived sets too
    # the two domain tables that name a record's fields
    assert tuple(THRESHOLD_DOMAINS) == tuple(Thresholds.__dataclass_fields__)
    assert (*SLA_FIELDS, "soft_label") == Sla._fields


#: The ``WmsError`` subclasses that carry no fields and that no package code
#: catches by type, with the reason each still exists.
LISTED_ERRORS = {
    "EmptyParameterGrid": "test_boundary's RUN_OUTCOMES allows it from a run after validate passed",
}


def unjustified_errors(errors_path: Path, modules: list[Path], listed) -> list[str]:
    """The subclasses of ``WmsError``, direct or not, in ``errors_path`` that define
    no ``__init__``, that no ``except`` clause in ``modules`` names (alone or in a
    tuple, plain or dotted), and that are not in ``listed``."""
    bases = {}
    for node in ast.parse(errors_path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            own_init = any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
            bases[node.name] = ([getattr(b, "id", getattr(b, "attr", None)) for b in node.bases], own_init)

    def is_error(name):
        return name == "WmsError" or any(is_error(base) for base in bases.get(name, ((), False))[0])

    caught = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(getattr(t, "id", getattr(t, "attr", None)) for t in types)
    return [
        name
        for name, (_, own_init) in bases.items()
        if name != "WmsError" and is_error(name) and not own_init and name not in caught and name not in listed
    ]


def test_an_error_class_carries_fields_or_is_caught_or_is_listed(tmp_path):
    # the scan itself: fields, each form of except clause, a listed class, a subclass
    # that defines no fields of its own, and a class that is no WmsError
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class WmsError(Exception):\n    pass\n"
        "class Fields(WmsError):\n    def __init__(self, x):\n        self.x = x\n"
        "class Caught(WmsError):\n    pass\n"
        "class InTuple(WmsError):\n    pass\n"
        "class Dotted(WmsError):\n    pass\n"
        "class Listed(WmsError):\n    pass\n"
        "class Plain(WmsError):\n    pass\n"
        "class Deeper(Fields):\n    pass\n"
        "class Other(Exception):\n    pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "try:\n    pass\nexcept Caught:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, InTuple) as exc:\n    pass\n"
        "try:\n    pass\nexcept errors.Dotted:\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
    )
    assert unjustified_errors(errors, [user], {"Listed"}) == ["Plain", "Deeper"]
    assert unjustified_errors(errors, [], ()) == ["Caught", "InTuple", "Dotted", "Listed", "Plain", "Deeper"]

    src = ROOT / "src" / "hybridwms"
    modules = sorted(src.rglob("*.py"))
    assert unjustified_errors(src / "errors.py", modules, LISTED_ERRORS) == []
    # a listed class has no other reason to exist, so the list holds no stale entry
    assert sorted(unjustified_errors(src / "errors.py", modules, ())) == sorted(LISTED_ERRORS)


def loaded_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout's ``src``, then
    return the sorted names in its ``sys.modules`` that are numpy's, the
    package's or ``cmath``, which no package module imports."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'hybridwms', 'cmath'))))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_package_root_loads_only_its_errors():
    code = "import hybridwms, hybridwms.errors\nassert hybridwms.WmsError is hybridwms.errors.WmsError"
    assert loaded_modules(code) == ["hybridwms", "hybridwms.errors"]


def test_the_run_config_module_loads_neither_numpy_nor_the_signal_code():
    loaded = loaded_modules("import hybridwms.runconfig")
    assert "hybridwms.documents" in loaded
    assert not {"numpy", "hybridwms.ecg", "hybridwms.engine"} & set(loaded)


def test_validate_on_the_packaged_documents_loads_no_numpy():
    code = "import contextlib, io\nfrom hybridwms import cli\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(['validate']) == 0"
    loaded = loaded_modules(code)
    assert "hybridwms.engine" in loaded and not {"numpy", "cmath"} & set(loaded)
