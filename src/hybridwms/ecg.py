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
a per-sample ``gauss`` loop. numpy does only the steps IEEE 754 rounds exactly
(shifts, integer-to-float, ``*``, ``-``, ``sqrt``); ``log``, ``cos`` and
``sin`` stay on libm through ``math``, as ``gauss`` calls them. numpy picks a
SIMD version of those per CPU, and its ``log`` differs from libm in the last
bit for 0.35% of inputs on an AVX-512 machine.
The spectral scan steps a phasor along its frequency grid (Goertzel 1958):
one complex multiply per sample and step, not a cos/sin pair, in O(n) memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

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
        return np.arange(len(self.values)) / self.rate

    @property
    def duration(self) -> float:
        return len(self.values) / self.rate


@dataclass(frozen=True)
class EcgFeatures:
    rr_mean: float
    rr_std: float
    dominant_freq: float
    st_deviation: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.rr_mean, self.rr_std, self.dominant_freq, self.st_deviation)


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
    (libm ``log``/``cos``/``sin``, numpy only for exactly rounded steps).
    """
    params = {"bpm": bpm, "irregularity": irregularity, "noise": noise, "duration": duration, "rate": rate}
    for name, (in_domain, message) in SIGNAL_DOMAINS.items():
        if not in_domain(params[name]):
            raise ValueError(f"{name} {message}")

    rng = random.Random(seed)
    rr_base = 60.0 / bpm
    beats = []
    t = rr_base
    while t < duration:
        beats.append(t)
        t += rr_base * (1.0 + irregularity * rng.uniform(-1.0, 1.0))

    n = int(round(duration * rate))
    times = np.arange(n) / rate
    values = np.full(n, st_offset, dtype=float)
    for beat in beats:
        lo = max(0, int((beat - 4 * BEAT_SIGMA) * rate))
        hi = min(n, int((beat + 4 * BEAT_SIGMA) * rate) + 1)
        window = times[lo:hi]
        values[lo:hi] += np.exp(-((window - beat) ** 2) / (2 * BEAT_SIGMA**2))
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
    """
    k = n + n % 2  # uniforms: two per pair of normals
    words = np.frombuffer(stream.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4").astype(np.uint64)
    u = ((words[0::2] >> 5) * 67108864 + (words[1::2] >> 6)).astype(np.float64) * 2.0**-53
    x2pi = (u[0::2] * _TWOPI).tolist()
    g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, k // 2))
    z = np.empty(k)
    z[0::2] = np.fromiter(map(math.cos, x2pi), float, k // 2) * g2rad
    z[1::2] = np.fromiter(map(math.sin, x2pi), float, k // 2) * g2rad
    if n % 2:
        stream.gauss_next = float(z[-1])
    return 0.0 + z[:n] * sigma


def detect_beats(signal: EcgSignal) -> np.ndarray:
    """Beat instants: peaks of contiguous runs above half the global maximum."""
    values = signal.values
    peak = float(values.max(initial=0.0)) if len(values) else 0.0
    if peak <= 0:
        raise NoBeatsDetected("signal has no positive excursion")
    above = np.concatenate(([False], values >= 0.5 * peak, [False]))
    edges = np.flatnonzero(np.diff(above)).tolist()  # run starts and ends alternate
    beats = [
        (start + int(np.argmax(values[start:end]))) / signal.rate
        for start, end in zip(edges[::2], edges[1::2])
    ]
    if len(beats) < 2:
        raise NoBeatsDetected(f"found {len(beats)} beat(s), need at least 2")
    return np.asarray(beats)


def dominant_frequency(signal: EcgSignal) -> float:
    """Frequency of maximal spectral power on the fixed scan grid.

    Single-bin transform of the mean-removed signal; the lowest frequency
    wins a tie. Phasor recurrence (Goertzel 1958): ``z = x·e^{-2πi·FREQ_MIN·t}``
    is multiplied by ``e^{-2πi·FREQ_STEP·t}`` once per grid step, and a step's
    power is ``|Σz|²``. Powers differ from direct cos/sin sums only by rounding;
    only their argmax must match, as the result is a grid frequency.
    """
    x = signal.values - signal.values.mean()
    t = signal.times
    steps = int(round((FREQ_MAX - FREQ_MIN) / FREQ_STEP)) + 1
    z = x * np.exp(-2j * math.pi * FREQ_MIN * t)
    w = np.exp(-2j * math.pi * FREQ_STEP * t)
    powers = np.empty(steps)
    for k in range(steps):
        total = z.sum()
        powers[k] = total.real**2 + total.imag**2
        z *= w
    # argmax takes the first maximum: the lowest frequency wins a tie
    return round(FREQ_MIN + int(np.argmax(powers)) * FREQ_STEP, 10)


def extract_features(signal: EcgSignal) -> EcgFeatures:
    """Recover rhythm and baseline features from a raw signal."""
    beats = detect_beats(signal)
    rr = np.diff(beats)
    rr_mean = float(rr.mean())
    rr_std = float(rr.std())  # population spread

    # Baseline deviation: everything further than 3 sigma from any beat. Beats
    # are sorted, and no beat is nearer (even rounded) than the two around a sample.
    times = signal.times
    around = np.concatenate(([-np.inf], beats, [np.inf]))
    after = np.searchsorted(beats, times) + 1
    nearest = np.minimum(np.abs(times - around[after - 1]), np.abs(times - around[after]))
    outside = nearest > 3 * BEAT_SIGMA
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
    for c, r in zip(candidate.as_tuple(), reference.as_tuple()):
        scale = max(abs(r), 0.1)
        total += ((c - r) / scale) ** 2
    return math.sqrt(total)
