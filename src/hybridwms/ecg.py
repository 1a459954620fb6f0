"""Synthetic ECG generation, feature extraction, and rule-based diagnosis.

The generator places a Gaussian bump at every heartbeat on top of a constant
baseline shift, with optional beat-to-beat jitter and measurement noise. The
extractor recovers beat statistics, the dominant spectral component, and the
baseline deviation; a fixed-order rule table maps those features to one of
four outcomes. All randomness is seeded. The beat width, the domain of each
signal parameter and the diagnosis thresholds belong to ``runconfig``.
The measurement noise is CPython's ``random.gauss`` stream replayed in bulk:
the same Mersenne Twister words, drawn by one ``getrandbits`` call, and the
same Box–Muller pairs (Box & Muller 1958), so every sample is bit-identical to
a per-sample ``gauss`` loop. No numpy step of it depends on the CPU: the
arithmetic (shifts, integer-to-float, ``*``, ``+``, ``-``, ``sqrt``) is rounded
exactly by IEEE 754 in every SIMD version, and ``cos`` and ``sin`` come from one
complex ``np.exp`` of ``0 + i·angle`` per array, which has no SIMD loop: numpy
calls the C library's ``cexp``, whose parts are ``exp(0)·cos`` and ``exp(0)·sin``
from libm, the bits of ``math.cos`` and ``math.sin``. ``log`` stays on libm
through ``math``, as numpy's real ``log`` differs from libm in the last bit for
0.35% of inputs on an AVX-512 machine; the beat bumps' real ``np.exp`` is such
a per-CPU call too.
The spectral scan reads its grid off one real FFT of the folded signal: when
the rate is N·FREQ_STEP Hz for an integer N ≥ 200, every grid frequency
completes a whole number of cycles in N samples, so each step's sum is a bin
of the length-N DFT of the signal folded modulo N. At any other rate it steps
a phasor along the grid (Goertzel 1958): one complex multiply per sample and
step, not a cos/sin pair, in O(n) memory. Only the beat instants, one
uniform draw each, come from a Python loop: adding the beats' Gaussians and
finding each run's peak are whole-array passes, and the baseline mask tests
only the samples of each beat's own window, not every sample.
numpy is imported in the functions that compute on signals, so importing this
module, and ``engine`` with it, loads no numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import starmap
from typing import NamedTuple

from .errors import NoBeatsDetected
from .runconfig import BEAT_SIGMA, SIGNAL_DOMAINS, Thresholds

#: Spectral scan grid, Hz. Covers well below resting heart rate up to above
#: any plausible fibrillation rate.
FREQ_MIN = 0.5
FREQ_MAX = 10.0
FREQ_STEP = 0.1


@dataclass(frozen=True)
class EcgSignal:
    values: np.ndarray
    rate: float  # samples per second

    @property
    def times(self) -> np.ndarray:
        import numpy as np  # here, not at module top: validate imports this module, through engine, without numpy

        return np.arange(len(self.values)) / self.rate

    @property
    def duration(self) -> float:
        return len(self.values) / self.rate


class EcgFeatures(NamedTuple):
    rr_mean: float
    rr_std: float
    dominant_freq: float
    st_deviation: float


def synthesize_ecg(
    bpm: float,
    irregularity: float = 0.0,
    st_offset: float = 0.0,
    noise: float = 0.0,
    duration: float = 30.0,
    rate: float = 250.0,
    seed: int = 0,
) -> EcgSignal:
    """Generate a beat train with the requested rhythm characteristics.

    ``irregularity`` scales uniform beat-to-beat jitter of the RR interval,
    ``st_offset`` shifts the baseline between beats, ``noise`` is the sigma
    of additive Gaussian sample noise. The noise is bit-identical to one
    ``gauss(0.0, noise)`` call per sample, replayed in bulk by ``_gauss_noise``
    on libm and exactly rounded numpy steps; the bumps' real ``np.exp`` is
    numpy's per-CPU SIMD version, not libm's.
    The beats' Gaussians are evaluated over all beat windows in one pass and
    added by ``np.add.at``, which adds in index order, so where windows overlap
    they add in beat order, bit for bit as a loop over beats would.
    """
    params = {"bpm": bpm, "irregularity": irregularity, "noise": noise, "duration": duration, "rate": rate}
    for name, (in_domain, message) in SIGNAL_DOMAINS.items():
        if not in_domain(params[name]):
            raise ValueError(f"{name} {message}")
    import numpy as np

    rng = random.Random(seed)
    rr_base = 60.0 / bpm
    beats = []
    t = rr_base
    while t < duration:
        beats.append(t)
        t += rr_base * (1.0 + irregularity * rng.uniform(-1.0, 1.0))

    n = int(round(duration * rate))
    values = np.full(n, st_offset, dtype=float)
    # every beat's window [lo, hi) at once; astype truncates toward zero, as int() does
    centres = np.asarray(beats)
    lo = np.maximum(0, ((centres - 4 * BEAT_SIGMA) * rate).astype(np.int64))
    hi = np.minimum(n, ((centres + 4 * BEAT_SIGMA) * rate).astype(np.int64) + 1)
    sizes = hi - lo  # lo <= n, since beat < duration
    index = np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    bumps = np.exp(-((index / rate - np.repeat(centres, sizes)) ** 2) / (2 * BEAT_SIGMA**2))
    np.add.at(values, index, bumps)  # in index order: overlapping windows add in beat order
    if noise > 0:
        values += _gauss_noise(rng, n, noise)
    return EcgSignal(values=values, rate=float(rate))


_TWOPI = 2.0 * math.pi  # random.TWOPI


def _gauss_noise(stream: random.Random, n: int, sigma: float) -> np.ndarray:
    """``[stream.gauss(0.0, sigma) for _ in range(n)]``, bit for bit, leaving
    ``stream`` in the same state. ``stream`` must hold no pending ``gauss`` value.

    ``gauss`` makes a pair of normals from two ``random()`` uniforms, and each
    uniform from two 32-bit words as ``((a >> 5)·2²⁶ + (b >> 6))·2⁻⁵³``. One
    ``getrandbits`` call returns the same words, least significant first. An
    odd ``n`` leaves the last pair's second normal pending, as ``gauss`` does.
    ``gauss`` calls ``math.cos`` and ``math.sin`` on each angle: the parts of
    numpy's complex ``exp`` of ``0 + i·angle``, ``exp(0)·cos`` and ``exp(0)·sin``
    through ``cexp``. ``starmap`` over ``zip``'s reused 1-tuples calls
    ``math.log`` without building an argument tuple per call. The radii scale
    the complex array's parts in place, and its own float64 view is then the
    normals in draw order, which sigma scales in place.
    """
    import numpy as np

    k = n + n % 2  # uniforms: two per pair of normals
    words = np.frombuffer(stream.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    # both terms are below 2⁵³, so float64 holds the 53-bit integer exactly
    u = ((words[0::2] >> 5).astype(np.float64) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
    turn = np.zeros(k // 2, complex)
    turn.imag = u[0::2] * _TWOPI
    np.exp(turn, out=turn)  # cos + i·sin of each angle
    g2rad = np.fromiter(starmap(math.log, zip((1.0 - u[1::2]).tolist())), float, k // 2)
    g2rad *= -2.0
    np.sqrt(g2rad, out=g2rad)
    cos, sin = turn.real, turn.imag  # views: scaled in place, not set back
    cos *= g2rad
    sin *= g2rad
    z = turn.view(np.float64)  # the normals in gauss's order: each pair's cos·g2rad, then sin·g2rad
    if n % 2:
        stream.gauss_next = float(z[-1])
    z *= sigma
    z += 0.0  # gauss returns mu + z·sigma, with mu 0.0: -0.0 becomes 0.0
    return z[:n]


def detect_beats(signal: EcgSignal) -> np.ndarray:
    """Beat instants: peaks of contiguous runs above half the global maximum.

    All runs at once: ``np.maximum.reduceat`` gives each run's maximum, and a
    run's peak is its first sample equal to it, as ``argmax`` picks.
    """
    import numpy as np

    values = signal.values
    peak = float(values.max(initial=0.0)) if len(values) else 0.0
    if peak <= 0:
        raise NoBeatsDetected("signal has no positive excursion")
    above = np.flatnonzero(values >= 0.5 * peak)
    starts = np.flatnonzero(np.diff(above, prepend=-2) > 1)  # where each run begins in ``above``
    if len(starts) < 2:
        raise NoBeatsDetected(f"found {len(starts)} beat(s), need at least 2")
    run_values = values[above]
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(above)))
    at_max = np.flatnonzero(run_values == np.maximum.reduceat(run_values, starts)[run])
    first = at_max[np.diff(run[at_max], prepend=-1) > 0]  # argmax's rule: the first maximum of each run
    return above[first] / signal.rate


def dominant_frequency(signal: EcgSignal) -> float:
    """Frequency of maximal spectral power on the fixed scan grid.

    Single-bin transform of the mean-removed signal; the lowest frequency
    wins a tie. When the rate is N·FREQ_STEP Hz to double precision, for an
    integer N ≥ 200, ``e^{-2πi·f·t}`` at every grid frequency f repeats every
    N samples, so step k's sum is bin ``f / FREQ_STEP`` of the DFT of the
    signal folded modulo N (``x'[r] = Σ_j x[r + jN]``): one ``rfft`` of
    length N. At any other rate a phasor recurrence (Goertzel 1958) runs:
    ``z = x·e^{-2πi·FREQ_MIN·t}`` is multiplied by ``e^{-2πi·FREQ_STEP·t}``
    once per grid step, and a step's power is ``|Σz|²``. Powers differ from
    direct cos/sin sums only by rounding; only their argmax must match, as the
    result is a grid frequency.
    """
    import numpy as np

    x = signal.values - signal.values.mean()
    per_hz = round(1 / FREQ_STEP)
    first, last = round(FREQ_MIN * per_hz), round(FREQ_MAX * per_hz)  # the grid's DFT bins at period N
    period = round(signal.rate * per_hz)
    if period >= 2 * last and period / per_hz == signal.rate:  # an rfft of length N has bins 0..N // 2
        folded = np.zeros(-(-len(x) // period) * period)
        folded[: len(x)] = x
        bins = np.fft.rfft(folded.reshape(-1, period).sum(axis=0))[first : last + 1]
        powers = bins.real**2 + bins.imag**2
    else:
        t = signal.times
        z = x * np.exp(-2j * math.pi * FREQ_MIN * t)
        w = np.exp(-2j * math.pi * FREQ_STEP * t)
        powers = np.empty(last - first + 1)
        for k in range(len(powers)):
            total = z.sum()
            powers[k] = total.real**2 + total.imag**2
            z *= w
    # argmax takes the first maximum: the lowest frequency wins a tie
    return round(FREQ_MIN + int(np.argmax(powers)) * FREQ_STEP, 10)


def extract_features(signal: EcgSignal) -> EcgFeatures:
    """Recover rhythm and baseline features from a raw signal.

    The baseline is the mean of the samples further than 3σ from every beat.
    Each beat marks the samples i of its own window that pass
    ``|i / rate − beat| ≤ 3σ``: the ``int(6σ·rate) + 3`` samples from
    ``trunc((beat − 3σ)·rate)``. That start is the floor of the exact bound, or
    before the signal, and the window ends at or past ``(beat + 3σ)·rate``, also
    where 3σ·rate is a whole k and 6σ·rate rounds to just under 2k (433⅓ Hz).
    The marks go into an array padded by one window on each side, so no index
    is clipped or wraps, and the work is beats × window, not passes over every
    sample. They are the marks of a test against each sample's two neighbouring
    beats: rounded subtraction is monotone, so no beat is nearer to a sample,
    even rounded, than the two around it.
    """
    import numpy as np

    beats = detect_beats(signal)
    rr = np.diff(beats)
    rr_mean = float(rr.mean())
    rr_std = float(rr.std())  # population spread

    reach = 3 * BEAT_SIGMA
    rate, n = signal.rate, len(signal.values)
    width = int(2 * reach * rate) + 3
    # astype truncates toward zero, as int() does
    index = ((beats - reach) * rate).astype(np.int64)[:, None] + np.arange(width)
    gap = index / rate
    gap -= beats[:, None]
    near = np.zeros(n + 2 * width, bool)  # sample i at near[i + width]
    near[index[np.abs(gap, out=gap) <= reach] + width] = True
    outside = np.logical_not(near[width : width + n])
    st_dev = float(signal.values[outside].mean()) if outside.any() else 0.0

    return EcgFeatures(
        rr_mean=rr_mean,
        rr_std=rr_std,
        dominant_freq=dominant_frequency(signal),
        st_deviation=st_dev,
    )


#: Diagnosis outcomes, in rule order.
DISEASES = ("fibrillation", "ischemia", "arrhythmia", "normal")


def estimate_disease(features: EcgFeatures, thresholds: Thresholds = Thresholds()) -> str:
    """First matching rule wins: racing rhythm, then baseline shift, then
    irregular RR spread relative to the mean."""
    if features.dominant_freq > thresholds.fibrillation_freq:
        return "fibrillation"
    if abs(features.st_deviation) > thresholds.ischemia_st:
        return "ischemia"
    if features.rr_mean > 0 and features.rr_std / features.rr_mean > thresholds.arrhythmia_rr:
        return "arrhythmia"
    return "normal"


def feature_distance(candidate: EcgFeatures, reference: EcgFeatures) -> float:
    """Normalized Euclidean distance between feature vectors.

    Each component is scaled by the reference magnitude, floored at 0.1 so
    near-zero features cannot blow up the distance.
    """
    total = 0.0
    for c, r in zip(candidate, reference):
        scale = max(abs(r), 0.1)
        total += ((c - r) / scale) ** 2
    return math.sqrt(total)
