"""Every import in the package and its tests is used, and the run
configuration's module imports neither numpy nor the signal code.

No linter runs on this repository, so this test is the check: it parses each
module with ``ast`` and lists every imported name that the module never reads.
A name counts as read when it appears as a name anywhere in the module or is
listed in its ``__all__``. An import whose line carries ``# noqa: F401`` is kept
on purpose (a name some other code patches, say).
"""

import ast
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


def module_level_imports(source: str) -> set[str]:
    """The modules that importing a module of this source imports: every import
    outside a function, a relative one as ``hybridwms.<name>``."""
    imported, pending = set(), [ast.parse(source)]
    while pending:
        for node in ast.iter_child_nodes(pending.pop()):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
            elif isinstance(node, ast.ImportFrom):  # from .errors import X, or from . import documents
                names = [node.module] if node.module else [alias.name for alias in node.names]
                imported.update(f"hybridwms.{name}" for name in names)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                pending.append(node)
    return imported


def test_the_run_config_module_imports_neither_numpy_nor_the_signal_code():
    # the scan itself: plain, dotted, relative and nested imports count, one in a function does not
    sample = (
        "import os.path\n"
        "from json import dumps\n"
        "from . import documents\n"
        "from .errors import SchemaError\n"
        "if True:\n"
        "    import math\n"
        "class C:\n"
        "    import struct\n"
        "def f():\n"
        "    import numpy\n"
    )
    assert module_level_imports(sample) == {"os.path", "json", "hybridwms.documents", "hybridwms.errors", "math", "struct"}

    # hybridwms/__init__.py still imports every module, so only the module's own imports are followed
    package, closure, pending = ROOT / "src" / "hybridwms", set(), ["hybridwms.runconfig"]
    while pending:
        name = pending.pop()
        closure.add(name)
        imported = module_level_imports((package / f"{name.removeprefix('hybridwms.')}.py").read_text(encoding="utf-8"))
        assert "numpy" not in {module.split(".")[0] for module in imported}, name
        pending += [module for module in imported if module.startswith("hybridwms.") and module not in closure]
    assert "hybridwms.documents" in closure and not closure & {"hybridwms.ecg", "hybridwms.engine"}
