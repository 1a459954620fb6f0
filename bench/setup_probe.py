"""Set-up probe: in a fresh interpreter, import hybridwms, then parse one
workload's documents.

Usage: python3 bench/setup_probe.py WORKLOAD WORKDIR

Prints one JSON line, {"import_s": ..., "parse_s": ...}. The import of the
benchmark's own modules between the two timings is not counted.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hybridwms  # noqa: E402,F401

imported = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402

workload, work = sys.argv[1], Path(sys.argv[2])
parse_started = time.perf_counter()
workloads.parse(workload, work)
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - started, "parse_s": parsed - parse_started}))
