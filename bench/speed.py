"""Machine-speed reference for normalising benchmark times.

The benchmark runs on shared virtual machines whose speed drifts by up to 2x,
in bursts from under a second to tens of seconds (a neighbour's load slows
every instruction, so CPU time drifts the same way as wall time). Every op is bracketed by two runs of
a short, fixed reference kernel that does not touch the package, and its
time is rescaled to the speed at which that kernel takes its nominal time:

    normalised = measured * NOMINAL_MS[kind] / mean(reference before, after)

On a repeated identical op this cut the spread of 5 s medians from 14% to
3% (numpy-bound op) and from 23% to 5% (interpreter-bound op). Set-up probes
are rescaled by the mean reference time over the run instead (``run_scale``).

``python`` exercises the interpreter (hashing, dict inserts, float math),
``numpy`` exercises vector math on an 8k array; each workload uses the
kernel closest to where its time goes. Raw wall times are reported beside
the normalised ones.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time

import numpy as np

#: Reference kernel time, ms: the 10th percentile over 15 s on a 2-vCPU
#: x86-64 VM with Python 3.11 and numpy 2.4, i.e. its fast state.
NOMINAL_MS = {"python": 0.90, "numpy": 0.75}

_X = np.linspace(0.0, 1.0, 8000)


def _python_kernel() -> int:
    table = {}
    for i in range(1200):
        key = hashlib.blake2b(struct.pack("<q", i), digest_size=8).digest()
        table[key] = math.sin(i * 1e-3) * len(table)
    return len(table)


def _numpy_kernel() -> float:
    total = 0.0
    for k in range(12):
        total += float(np.dot(_X, np.cos(_X * k)))
    return total


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def reference_ms(kind: str) -> float:
    """Time of one run of the reference kernel, ms. A first, untimed run
    warms the caches, so the op that ran just before does not bias it."""
    kernel = _KERNELS[kind]
    kernel()
    started = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - started)


def normalise(times: list[float], refs: list[tuple[float, float]], kind: str) -> list[float]:
    """Rescale each op's time to nominal speed by the mean of the reference
    samples taken right before and right after it."""
    nominal = NOMINAL_MS[kind]
    return [t * 2 * nominal / (before + after) for t, (before, after) in zip(times, refs)]


def run_scale(refs: list[float], kind: str) -> float:
    """Rescaling factor for a quantity measured across a whole run, such as
    the median of set-up probes spread over it: nominal over mean reference."""
    return NOMINAL_MS[kind] * len(refs) / sum(refs)
