"""Compare this tree's outputs with a git revision's, byte for byte.

    python3 tools/difftree.py REV

Unpacks ``git archive REV`` into a temporary directory, then runs the same
commands on that tree and on this working tree, each with its own ``src/``
first on ``PYTHONPATH``:

* ``validate``;
* ``run`` with the default SLA and with each packaged SLA;
* ``run`` with a patient that has its own ``seed``;
* ``run`` with a 30 s, 250 Hz sample file written from ``synthesize_ecg``;
* ``experiment cost-table``;
* ``experiment policy-comparison --replicates 20``.

It compares each command's exit code, stdout and stderr, with the tree, work
and input directories masked, and every file the command wrote. Then, for each
bench workload, it compares the check text of a fixed number of measured ops,
which each tree's own ``bench/workloads.py`` generates, parses and builds in a
temporary directory.

It prints the first differences and exits 1 if there are any, 0 if there are
none, and 2 if the revision cannot be unpacked or a tree does not import its
own package. It writes only under the temporary directory, and its Python
processes write no bytecode. Both trees run side by side, one process each.
"""

from __future__ import annotations

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The bench's seed, and how many measured ops of each workload are compared.
BENCH_SEED = 77
BENCH_OPS = {"study": 200, "patients": 60, "grid": 30, "cost_table": 10}

#: How many differences are printed in full.
SHOWN = 10

#: Writes the sample file and the two run configs that the ``run`` commands read from the inputs directory.
_INPUTS = """
import json, sys
from pathlib import Path
from hybridwms.ecg import synthesize_ecg
inputs, packaged = Path(sys.argv[1]), json.loads(Path(sys.argv[2]).read_text())
signal = synthesize_ecg(bpm=330, noise=0.02, duration=30, rate=250, seed=5)
(inputs / "sample.json").write_text(json.dumps({"rate": signal.rate, "values": signal.values.tolist()}))
(inputs / "sample-config.json").write_text(json.dumps({**packaged, "patient": {"file": "sample.json"}}))
(inputs / "seeded-config.json").write_text(json.dumps({**packaged, "patient": {**packaged["patient"], "seed": 11}}))
"""

#: Prints one line per measured op of a bench workload: its label and its check's digest text, hashed.
_BENCH = """
import hashlib, sys
from pathlib import Path
import workloads
name, seed, count, work = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
workloads.generate(name, seed, work)
workload = workloads.build(name, seed, work, workloads.parse(name, work))
for op in workload.ops[:count]:
    text, problems, _ = workload.check(op, op.run())
    print(op.label, hashlib.sha256(text.encode("utf-8")).hexdigest(), *problems[:1])
"""


def commands(tree: Path, inputs: Path) -> dict[str, list[str]]:
    """Each command's arguments, by name; a command that writes files writes them under ``out/<name>``."""
    slas = tree / "src" / "hybridwms" / "data" / "slas"
    named = {
        "validate": ["validate"],
        "run": ["run"],
        **{f"run-{sla}": ["run", "--sla", str(slas / f"{sla}.json")] for sla in ("balanced", "high_performance", "low_cost")},
        "run-seeded-patient": ["run", "--run-config", str(inputs / "seeded-config.json")],
        "run-sample-file": ["run", "--run-config", str(inputs / "sample-config.json")],
        "cost-table": ["experiment", "cost-table"],
        "policy-comparison": ["experiment", "policy-comparison", "--replicates", "20"],
    }
    return {name: args if args[0] == "validate" else [*args, "--out-dir", f"out/{name}"] for name, args in named.items()}


def env_for(tree: Path, *paths: str) -> dict:
    """The environment of a Python process that imports from ``tree``'s ``paths`` first."""
    pythonpath = os.pathsep.join(str(tree / path) for path in paths)
    return {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}


def outputs(tree: Path, work: Path, inputs: Path) -> dict[str, object]:
    """Every output of ``tree``, by name: each command's exit code, masked
    stdout and stderr, and files, then each workload's op digests."""
    work.mkdir()
    env = env_for(tree, "src")
    masks = ((str(work), "<work>"), (str(inputs), "<inputs>"), (str(tree), "<tree>"))

    def mask(text: str) -> str:
        for path, name in masks:
            text = text.replace(path, name)
        return text

    found = {}
    for name, args in commands(tree, inputs).items():
        done = subprocess.run([sys.executable, "-m", "hybridwms", *args], cwd=work, env=env, capture_output=True, text=True)
        found[f"{name}: exit code"] = done.returncode
        found[f"{name}: stdout"] = mask(done.stdout)
        found[f"{name}: stderr"] = mask(done.stderr)
        out = work / "out" / name
        for file in sorted(out.rglob("*")) if out.exists() else ():
            if file.is_file():
                found[f"{name}: {file.relative_to(out)}"] = file.read_bytes()
    env = env_for(tree, "src", "bench")
    for workload, count in BENCH_OPS.items():
        argv = [sys.executable, "-c", _BENCH, workload, str(BENCH_SEED), str(count), str(work / f"bench-{workload}")]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        found[f"bench {workload}: exit code"] = done.returncode
        found[f"bench {workload}: ops"] = done.stdout
        found[f"bench {workload}: stderr"] = mask(done.stderr)
    return found


def difference(key: str, old, new) -> str:
    """The first lines in which ``old`` and ``new`` differ, as a unified diff."""
    if old is None or new is None:
        return f"{key}: only in {'this tree' if old is None else 'the revision'}"
    if isinstance(old, int):
        return f"{key}: {old} in the revision, {new} in this tree"
    if isinstance(old, bytes):
        old, new = old.decode("utf-8", "replace"), new.decode("utf-8", "replace")
    lines = difflib.unified_diff(old.splitlines(), new.splitlines(), "revision", "this tree", n=1, lineterm="")
    return "\n".join([f"{key}:", *list(lines)[:12]])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/difftree.py REV", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", argv[0]], capture_output=True)
    if archive.returncode != 0:
        print(f"error: git archive {argv[0]}: {archive.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="difftree-") as tmp:
        tmp = Path(tmp).resolve()
        old, inputs = tmp / "tree", tmp / "inputs"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(old, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        for tree in (old, ROOT):
            where = subprocess.run(
                [sys.executable, "-c", "import hybridwms; print(hybridwms.__file__)"],
                env=env_for(tree, "src"), capture_output=True, text=True,
            )
            if not Path(where.stdout.strip() or "/").resolve().is_relative_to(tree / "src"):
                print(f"error: {tree} does not import its own hybridwms: {where.stdout}{where.stderr}", file=sys.stderr)
                return 2
        inputs.mkdir()
        packaged = ROOT / "src" / "hybridwms" / "data" / "run_config.json"
        subprocess.run([sys.executable, "-c", _INPUTS, str(inputs), str(packaged)], env=env_for(ROOT, "src"), check=True)
        with ThreadPoolExecutor(max_workers=2) as pool:
            before, after = pool.map(outputs, (old, ROOT), (tmp / "work-revision", tmp / "work-tree"), (inputs, inputs))
    keys = list(dict.fromkeys([*before, *after]))
    differences = [difference(key, before.get(key), after.get(key)) for key in keys if before.get(key) != after.get(key)]
    for text in differences[:SHOWN]:
        print(text)
    print(f"difftree {argv[0]}: {len(keys)} outputs compared, {len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
