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

The others import the package in a fresh interpreter and list the modules it
loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
