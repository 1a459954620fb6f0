"""Every import in the package and its tests is used.

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
