"""No package module reads the builtin ``sum`` or imports ``statistics``.

From Python 3.12, ``sum`` adds floats with Neumaier compensation, so the same
list of costs sums to different bits on 3.11 and on 3.12. The package adds
floats one after another, in a loop or with ``np.add.accumulate``, so that a
record's bits do not depend on the Python it ran on. The test parses each module
with ``ast`` and lists every place that reads the name ``sum``, called or passed
on; numpy's ``sum`` methods and functions are attributes, not that name.
Likewise, ``statistics.pstdev`` on 3.10 rounds the variance to a float before
its square root, and 3.11 rounds the root of the exact variance once.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def builtin_sums(path: Path, root: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)
    ]


def test_no_package_module_reads_the_builtin_sum(tmp_path):
    # the scan itself: a call and a name passed on are found, numpy's sums are not
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy as np\nx = [0.1, 0.2]\nsum(x)\nmap(sum, [x])\nnp.sum(x)\nnp.asarray(x).sum()\n")
    assert builtin_sums(sample, tmp_path) == ["sample.py:3", "sample.py:4"]

    modules = sorted((ROOT / "src" / "hybridwms").rglob("*.py"))
    assert len(modules) > 10
    found = [line for path in modules for line in builtin_sums(path, ROOT)]
    assert found == [], (
        f"builtin sum read at {found}: from Python 3.12 it adds floats with Neumaier compensation, "
        "so its bits differ from 3.11's; add one after another (np.add.accumulate, or a loop)"
    )


def statistics_imports(path: Path, root: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "statistics" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "statistics")
    ]


def test_no_package_module_imports_statistics(tmp_path):
    # the scan itself: each import form is found, a relative module and a name are not
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import statistics\nimport os, statistics as st\nfrom statistics import pstdev\n"
        "from . import statistics\nfrom .statistics import x\nstatistics = 1\n"
    )
    assert statistics_imports(sample, tmp_path) == ["sample.py:1", "sample.py:2", "sample.py:3"]

    modules = sorted((ROOT / "src" / "hybridwms").rglob("*.py"))
    assert len(modules) > 10
    found = [line for path in modules for line in statistics_imports(path, ROOT)]
    assert found == [], (
        f"statistics imported at {found}: on Python 3.10 pstdev rounds the variance to a float and then "
        "takes its square root, so its last bit differs from 3.11's correctly rounded root of the exact "
        "variance; use experiments._pstdev, and math.fsum for a mean"
    )
