"""Signal synthesis, feature extraction, and diagnosis rule tests."""

import importlib.resources
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridwms.ecg import (
    DISEASES,
    FREQ_MAX,
    FREQ_MIN,
    FREQ_STEP,
    EcgFeatures,
    EcgSignal,
    _gauss_noise,
    detect_beats,
    dominant_frequency,
    estimate_disease,
    extract_features,
    feature_distance,
    synthesize_ecg,
)
from hybridwms.errors import NoBeatsDetected
from hybridwms.runconfig import BEAT_SIGMA, Thresholds


# -- synthesis -----------------------------------------------------------------


def test_synthesis_is_seed_deterministic():
    a = synthesize_ecg(bpm=80, irregularity=0.2, noise=0.05, seed=5)
    b = synthesize_ecg(bpm=80, irregularity=0.2, noise=0.05, seed=5)
    assert np.array_equal(a.values, b.values)
    c = synthesize_ecg(bpm=80, irregularity=0.2, noise=0.05, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_synthesis_shape_and_baseline():
    signal = synthesize_ecg(bpm=60, st_offset=0.3, duration=10, rate=200)
    assert len(signal.values) == 2000
    assert signal.duration == pytest.approx(10.0)
    # far from any beat the signal sits on the baseline
    idx = int(0.5 * 200)  # t=0.5s, first beat at 1.0s
    assert signal.values[idx] == pytest.approx(0.3, abs=1e-6)


def test_synthesis_validation():
    with pytest.raises(ValueError):
        synthesize_ecg(bpm=0)
    with pytest.raises(ValueError):
        synthesize_ecg(bpm=60, irregularity=1.0)
    with pytest.raises(ValueError):
        synthesize_ecg(bpm=60, noise=-0.1)
    with pytest.raises(ValueError):
        synthesize_ecg(bpm=60, duration=0)


def test_synthesis_refuses_work_beyond_its_bounds():
    # Each call is cheap even without the bounds, so a missing bound fails here instead of hanging.
    for kwargs in (dict(bpm=1e9, duration=0.01), dict(bpm=60, duration=3601, rate=1), dict(bpm=60, duration=0.01, rate=2001)):
        with pytest.raises(ValueError):
            synthesize_ecg(**kwargs)
    for kwargs in (dict(bpm=1000, duration=1), dict(bpm=60, duration=3600, rate=1), dict(bpm=60, duration=0.1, rate=2000)):
        synthesize_ecg(**kwargs)


# -- beat detection --------------------------------------------------------------


def test_detect_beats_recovers_planted_instants():
    bpm, rate = 60, 250.0
    signal = synthesize_ecg(bpm=bpm, duration=10, rate=rate)
    beats = detect_beats(signal)
    expected = np.arange(1.0, 10.0, 1.0)
    assert len(beats) == len(expected)
    assert np.max(np.abs(beats - expected)) <= 1.0 / rate


def test_detect_beats_needs_positive_peaks():
    with pytest.raises(NoBeatsDetected):
        detect_beats(EcgSignal(values=np.zeros(100), rate=100.0))
    with pytest.raises(NoBeatsDetected):
        detect_beats(EcgSignal(values=np.full(100, -1.0), rate=100.0))


def test_detect_beats_needs_two_beats():
    signal = synthesize_ecg(bpm=30, duration=3.5)  # single beat at t=2
    with pytest.raises(NoBeatsDetected):
        detect_beats(signal)


# -- spectral scan -----------------------------------------------------------------


def test_dominant_frequency_recovers_pure_tone():
    rate = 250.0
    t = np.arange(int(30 * rate)) / rate
    for f in (0.5, 2.0, 3.7, 9.9):
        signal = EcgSignal(values=np.cos(2 * math.pi * f * t), rate=rate)
        assert dominant_frequency(signal) == pytest.approx(f, abs=1e-9)


def test_dominant_frequency_tie_prefers_lowest():
    # constant signal: mean removal zeroes it, every power ties at 0
    signal = EcgSignal(values=np.ones(1000), rate=100.0)
    assert dominant_frequency(signal) == pytest.approx(0.5)


def test_dominant_frequency_tracks_heart_rate():
    signal = synthesize_ecg(bpm=120, duration=30)
    assert dominant_frequency(signal) == pytest.approx(2.0, abs=0.05 + 1e-9)


# -- features -----------------------------------------------------------------------


def test_features_of_clean_regular_rhythm():
    # 72 bpm puts the fundamental exactly on the 0.1 Hz scan grid
    features = extract_features(synthesize_ecg(bpm=72, duration=30))
    assert features.rr_mean == pytest.approx(60.0 / 72.0, abs=0.01)
    assert features.rr_std <= 0.01
    assert features.dominant_freq == pytest.approx(1.2, abs=1e-9)
    assert abs(features.st_deviation) < 0.01


def test_off_grid_rhythm_locks_to_an_on_grid_harmonic():
    # 75 bpm is 1.25 Hz, between scan points; the 2.5 Hz harmonic wins
    features = extract_features(synthesize_ecg(bpm=75, duration=30))
    assert features.dominant_freq == pytest.approx(2.5, abs=1e-9)


def test_features_recover_baseline_shift():
    features = extract_features(synthesize_ecg(bpm=60, st_offset=0.25, duration=30))
    assert features.st_deviation == pytest.approx(0.25, abs=0.01)


def test_feature_irregularity_raises_rr_spread():
    steady = extract_features(synthesize_ecg(bpm=70, duration=60, seed=3))
    jittery = extract_features(synthesize_ecg(bpm=70, irregularity=0.3, duration=60, seed=3))
    assert jittery.rr_std / jittery.rr_mean > 0.12
    assert steady.rr_std / steady.rr_mean < 0.02


# -- diagnosis -----------------------------------------------------------------------


def test_rule_order_first_match_wins():
    thresholds = Thresholds()
    racing = EcgFeatures(rr_mean=0.2, rr_std=0.1, dominant_freq=5.0, st_deviation=0.4)
    assert estimate_disease(racing, thresholds) == "fibrillation"
    shifted = EcgFeatures(rr_mean=1.0, rr_std=0.3, dominant_freq=1.0, st_deviation=-0.2)
    assert estimate_disease(shifted, thresholds) == "ischemia"
    jittery = EcgFeatures(rr_mean=1.0, rr_std=0.2, dominant_freq=1.0, st_deviation=0.0)
    assert estimate_disease(jittery, thresholds) == "arrhythmia"
    clean = EcgFeatures(rr_mean=1.0, rr_std=0.01, dominant_freq=1.0, st_deviation=0.01)
    assert estimate_disease(clean, thresholds) == "normal"
    assert DISEASES == ("fibrillation", "ischemia", "arrhythmia", "normal")


def test_rule_boundaries_are_strict():
    thresholds = Thresholds()
    assert estimate_disease(EcgFeatures(1.0, 0.0, 4.0, 0.0), thresholds) == "normal"
    assert estimate_disease(EcgFeatures(1.0, 0.0, 1.0, 0.15), thresholds) == "normal"
    assert estimate_disease(EcgFeatures(1.0, 0.12, 1.0, 0.0), thresholds) == "normal"


def test_custom_thresholds_shift_the_rules():
    features = EcgFeatures(rr_mean=1.0, rr_std=0.0, dominant_freq=3.0, st_deviation=0.0)
    assert estimate_disease(features, Thresholds(fibrillation_freq=2.5)) == "fibrillation"


def diagnose(**kwargs):
    return estimate_disease(extract_features(synthesize_ecg(**kwargs)))


def test_synthetic_presets_reach_each_diagnosis():
    assert diagnose(bpm=330, noise=0.02, duration=30) == "fibrillation"
    assert diagnose(bpm=60, st_offset=0.25, noise=0.02, duration=30) == "ischemia"
    assert diagnose(bpm=60, irregularity=0.3, noise=0.02, duration=60) == "arrhythmia"
    assert diagnose(bpm=70, noise=0.02, duration=30) == "normal"


# -- distance ----------------------------------------------------------------------


def test_feature_distance_zero_for_identical():
    features = EcgFeatures(0.8, 0.05, 1.25, 0.1)
    assert feature_distance(features, features) == 0.0


def test_feature_distance_hand_computed():
    ref = EcgFeatures(rr_mean=1.0, rr_std=0.5, dominant_freq=2.0, st_deviation=0.0)
    cand = EcgFeatures(rr_mean=1.5, rr_std=0.25, dominant_freq=1.0, st_deviation=0.2)
    # scales: 1.0, 0.5, 2.0, floor 0.1
    expected = math.sqrt(0.5**2 + 0.5**2 + 0.5**2 + 2.0**2)
    assert feature_distance(cand, ref) == pytest.approx(expected, rel=1e-12)


def test_feature_distance_floor_prevents_blowup():
    ref = EcgFeatures(0.0, 0.0, 0.0, 0.0)
    cand = EcgFeatures(0.1, 0.1, 0.1, 0.1)
    assert feature_distance(cand, ref) == pytest.approx(2.0, rel=1e-12)


def test_feature_distance_is_asymmetric_in_reference():
    a = EcgFeatures(1.0, 0.1, 1.0, 0.0)
    b = EcgFeatures(2.0, 0.1, 1.0, 0.0)
    assert feature_distance(a, b) != feature_distance(b, a)


# -- oracles: the direct loop versions of the scan, the beat finder and the mask --


def oracle_scan(signal):
    """(frequency, powers): one cos/sin pair per grid step; strict ``>`` keeps the lowest on a tie."""
    x = signal.values - signal.values.mean()
    t = signal.times
    steps = int(round((FREQ_MAX - FREQ_MIN) / FREQ_STEP)) + 1
    best_f, best_p, powers = FREQ_MIN, -1.0, []
    for k in range(steps):
        f = FREQ_MIN + k * FREQ_STEP
        angle = -2.0 * math.pi * f * t
        power = float(np.dot(x, np.cos(angle)) ** 2 + np.dot(x, np.sin(angle)) ** 2)
        powers.append(power)
        if power > best_p:
            best_p, best_f = power, f
    return round(best_f, 10), np.array(powers)


def oracle_beats(signal):
    """Peaks of the runs above half the maximum, found one sample at a time."""
    values = signal.values
    peak = float(values.max(initial=0.0)) if len(values) else 0.0
    if peak <= 0:
        raise NoBeatsDetected("signal has no positive excursion")
    above = values >= 0.5 * peak
    beats, i, n = [], 0, len(values)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j < n and above[j]:
            j += 1
        beats.append((i + int(np.argmax(values[i:j]))) / signal.rate)
        i = j
    if len(beats) < 2:
        raise NoBeatsDetected(f"found {len(beats)} beat(s), need at least 2")
    return np.asarray(beats)


def oracle_st_deviation(signal, beats):
    """Mean of the samples further than 3 sigma from every beat, checking every beat."""
    times = signal.times
    outside = np.ones(len(times), dtype=bool)
    for beat in beats:
        outside &= np.abs(times - beat) > 3 * BEAT_SIGMA
    return float(signal.values[outside].mean()) if outside.any() else 0.0


def accepted_frequencies(signal):
    """The oracle's frequency, plus every grid frequency whose oracle power is
    within 1e-9 of the maximum, relative to the largest power any grid step can
    reach, ``(Σ|x|)²``: rounding may pick any member of such a near-tie. After
    mean removal a constant signal leaves a residual of a few ulps whose grid
    powers are all equal or all zero in exact arithmetic, so a near-tie can
    hold many frequencies, and its powers are rounding residue of any size."""
    best, powers = oracle_scan(signal)
    bound = np.abs(signal.values - signal.values.mean()).sum() ** 2
    near = np.flatnonzero(powers >= powers.max() - 1e-9 * bound)
    return {best} | {round(FREQ_MIN + int(k) * FREQ_STEP, 10) for k in near}


def bits(value):
    return struct.pack("<d", value)


def beats_or_error(find, signal):
    try:
        return find(signal)
    except NoBeatsDetected:
        return "no beats"


#: Rates of both scan paths: a whole number of FREQ_STEPs per second folds the
#: signal for one FFT, and most float rates take the phasor recurrence.
scan_rates = st.floats(100.0, 500.0) | st.integers(1000, 5000).map(lambda k: k / 10)

synthetic_ecgs = st.builds(
    synthesize_ecg,
    bpm=st.floats(30.0, 330.0),
    irregularity=st.floats(0.0, 0.4),
    st_offset=st.floats(-0.5, 0.5),
    noise=st.floats(0.0, 0.3),
    duration=st.floats(4.0, 90.0),
    rate=scan_rates,
    seed=st.integers(0, 2**31),
)


def spikes(n, rate, positions):
    """Unit spikes at ``positions`` on a sub-threshold baseline that varies, so
    that a sample taken into or out of the baseline mean changes its bits."""
    values = 0.1 + 0.05 * np.sin(np.arange(n))
    values[positions] = 1.0
    return EcgSignal(values=values, rate=rate)


@settings(max_examples=40, deadline=None)
@given(signal=synthetic_ecgs)
@example(signal=synthesize_ecg(bpm=60, duration=4.0, rate=100.0))
# baseline windows: samples exactly 3σ from a beat where 3σ·rate is whole (6 and 15), a
# sample exactly 3σ after a beat where 6σ·rate rounds to just under 52 (433⅓ Hz), beats on
# the first and the last sample, windows that overlap, and the lowest recorded rate
@example(signal=spikes(40, 100.0, [6, 30]))
@example(signal=spikes(100, 250.0, [15, 60]))
@example(signal=spikes(187, 1300 / 3, [127, 186]))
@example(signal=spikes(50, 100.0, [0, 49]))
@example(signal=spikes(50, 100.0, [10, 15, 40]))
@example(signal=spikes(60, 20.0, [3, 30]))
@example(signal=synthesize_ecg(bpm=200, irregularity=0.3, noise=0.3, duration=90.0, rate=500.0, seed=9))
@example(signal=synthesize_ecg(bpm=75, irregularity=0.1, noise=0.1, duration=20.0, rate=250.0, seed=3))  # fold path
@example(signal=synthesize_ecg(bpm=75, irregularity=0.1, noise=0.1, duration=20.0, rate=257.35, seed=3))  # phasor path
def test_fast_paths_match_the_oracles_on_synthetic_ecgs(signal):
    assert dominant_frequency(signal) in accepted_frequencies(signal)
    beats = beats_or_error(oracle_beats, signal)
    found = beats_or_error(detect_beats, signal)
    if isinstance(beats, str):
        assert found == beats
        return
    assert np.array_equal(found, beats)
    assert bits(extract_features(signal).st_deviation) == bits(oracle_st_deviation(signal, beats))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, int(round((FREQ_MAX - FREQ_MIN) / FREQ_STEP)) - 1),
    offset=st.floats(0.01, 0.99),
    phase=st.floats(0.0, 2 * math.pi),
    amplitude=st.floats(0.01, 10.0),
    duration=st.floats(4.0, 90.0),
    rate=st.sampled_from([100.0, 250.0, 360.0, 500.0]),
)
def test_scan_matches_the_oracle_on_tones_between_grid_points(k, offset, phase, amplitude, duration, rate):
    t = np.arange(int(duration * rate)) / rate
    f = FREQ_MIN + (k + offset) * FREQ_STEP
    signal = EcgSignal(values=amplitude * np.cos(2 * math.pi * f * t + phase), rate=rate)
    assert dominant_frequency(signal) in accepted_frequencies(signal)


@pytest.mark.parametrize(
    "k, duration, rate",
    # the last two rates are no whole number of FREQ_STEPs per second, so they take the phasor recurrence
    [(7, 10.0, 100.0), (40, 12.34, 250.0), (90, 30.0, 500.0), (40, 12.34, 257.35), (90, 30.0, 360.05)],
)
def test_scan_matches_the_oracle_on_close_calls(k, duration, rate):
    # a tone between grid steps k and k+1, 1e-8 of a step either side of where
    # their oracle powers tie: the gap (~1e-8 of the largest power) is no near-tie,
    # yet accumulated rounding in a weaker recurrence would flip it
    t = np.arange(int(duration * rate)) / rate

    def tone(offset):
        f = FREQ_MIN + (k + offset) * FREQ_STEP
        return EcgSignal(values=np.cos(2 * math.pi * f * t + 0.3), rate=rate)

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        powers = oracle_scan(tone(mid))[1]
        lo, hi = (mid, hi) if powers[k] >= powers[k + 1] else (lo, mid)
    for offset in (lo - 1e-8, hi + 1e-8):
        signal = tone(offset)
        assert accepted_frequencies(signal) == {oracle_scan(signal)[0]}
        assert dominant_frequency(signal) == oracle_scan(signal)[0]


@settings(max_examples=40, deadline=None)
@given(value=st.floats(-100.0, 100.0), n=st.integers(2, 20000), rate=scan_rates)
@example(value=1.799806078595907, n=999, rate=100.0)  # every grid power ties in exact arithmetic
@example(value=8.799806078595907, n=1000, rate=100.0)  # every grid power is 0 in exact arithmetic
@example(value=1.799806078595907, n=2501, rate=250.0)  # fold path, with a partial last period
@example(value=1.799806078595907, n=2501, rate=257.35)  # phasor path
def test_scan_matches_the_oracle_on_constant_signals(value, n, rate):
    signal = EcgSignal(values=np.full(n, value), rate=rate)
    assert dominant_frequency(signal) in accepted_frequencies(signal)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([-1.0, 0.0, 0.4, 0.5, 0.7, 1.0, 2.0]), min_size=1, max_size=40))
@example(values=[1.0, 0.0, 1.0])  # single-sample runs on the first and the last sample
@example(values=[2.0, 2.0, 0.0, 0.0, 1.0])
@example(values=[0.0, 1.0, 0.0, 1.0, 1.0])
def test_detect_beats_matches_the_oracle_on_arbitrary_runs(values):
    signal = EcgSignal(values=np.array(values), rate=100.0)
    beats = beats_or_error(oracle_beats, signal)
    found = beats_or_error(detect_beats, signal)
    assert (found == beats) if isinstance(beats, str) else np.array_equal(found, beats)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 2000),
    rate=st.floats(0.01, 2000.0) | st.just(100 / 3),  # synthesis rates and far lower recorded ones
    baseline=st.floats(-0.4, 0.4),
)
def test_st_deviation_matches_the_oracle_for_beats_anywhere(data, n, rate, baseline):
    # unit spikes on a sub-threshold noisy baseline, at any samples, the first and last included
    positions = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=40, unique=True))
    values = baseline + 0.05 * np.random.default_rng(n).standard_normal(n)
    values[positions] = 1.0
    signal = EcgSignal(values=values, rate=rate)
    beats = beats_or_error(oracle_beats, signal)
    if isinstance(beats, str):
        with pytest.raises(NoBeatsDetected):
            extract_features(signal)
        return
    assert bits(extract_features(signal).st_deviation) == bits(oracle_st_deviation(signal, beats))


# -- noise: one gauss call per sample is the oracle of the bulk replay -------------


def oracle_noise(rng, n, sigma):
    return np.array([rng.gauss(0.0, sigma) for _ in range(n)], dtype=float)


def same_bits(a, b):
    """Equal as bit patterns: 0.0 and -0.0 differ, and so would two NaNs' payloads."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # σ near 1.7e308 makes ±inf, as gauss does
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    draws=st.integers(0, 50),
    n=st.integers(0, 3) | st.integers(0, 5000),
    sigma=st.floats(0.0, 1e300) | st.sampled_from([5e-324, 1e-300, 1e-6, 1.0, 1.7e308]),
)
@example(seed=0, draws=0, n=0, sigma=1.0)
@example(seed=1, draws=3, n=1, sigma=0.05)
@example(seed=2, draws=50, n=4001, sigma=1e-300)
def test_noise_replays_the_gauss_loop_bit_for_bit(seed, draws, n, sigma):
    # the uniform draws stand in for the beat loop, which runs before the noise
    oracle, replay = random.Random(seed), random.Random(seed)
    for rng in (oracle, replay):
        for _ in range(draws):
            rng.uniform(-1.0, 1.0)
    assert same_bits(_gauss_noise(replay, n, sigma), oracle_noise(oracle, n, sigma))
    assert replay.getstate() == oracle.getstate()  # the stream and a pending second normal
    assert replay.random() == oracle.random()


def cis(angles):
    """numpy's complex ``exp`` of ``0 + i·angle`` per angle, as the noise replay
    and the cost grid call it."""
    z = np.zeros(len(angles), complex)
    z.imag = angles
    return np.exp(z)


# The premise of the noise replay and of the cost grid: numpy's complex exp calls
# the C library's cexp, which computes exp(ix) as exp(0)·cos(x) + i·exp(0)·sin(x)
# from libm's own cos and sin.
@settings(max_examples=500, deadline=None)
@given(x=st.floats(0.0, 2 * math.pi, exclude_max=True))
@example(x=0.0)
@example(x=5e-324)
@example(x=math.pi / 2)
@example(x=math.pi)
@example(x=3 * math.pi / 2)
@example(x=2 * math.pi * (1 - 2.0**-53))  # the largest angle gauss draws
def test_numpy_complex_exp_gives_the_cos_and_sin_that_gauss_calls(x):
    unit = cis([x])
    assert (bits(unit.real[0]), bits(unit.imag[0])) == (bits(math.cos(x)), bits(math.sin(x)))


@settings(max_examples=500, deadline=None)
@given(x=st.floats(-1e300, 1e300))
@example(x=-0.0)
@example(x=-5e-324)
@example(x=2.0**-1022)  # the smallest normal
@example(x=1e300)
@example(x=-1e300)
@example(x=2 * math.pi * 86400 / 1e-3)  # 2π·t / period at t = 24 h and the shortest period
def test_numpy_complex_exp_gives_libm_cos_and_sin_on_the_cost_grids_angles(x):
    unit = cis([x])
    assert (bits(unit.real[0]), bits(unit.imag[0])) == (bits(math.cos(x)), bits(math.sin(x)))


def test_numpy_complex_exp_gives_libm_cos_and_sin_over_a_long_array():
    # long enough for a vectorized main loop, should a numpy version add one
    rng = np.random.default_rng(32)
    angles = np.concatenate(
        (
            rng.uniform(0.0, 2 * math.pi, 100_000),
            rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-320.0, 300.0, 20_000),
        )
    )
    unit = cis(angles)
    assert same_bits(unit.real, np.array([math.cos(x) for x in angles.tolist()]))
    assert same_bits(unit.imag, np.array([math.sin(x) for x in angles.tolist()]))


def oracle_beat_stream(bpm, irregularity, duration, seed):
    """(generator, planted beat instants): the generator as the beat loop leaves
    it, one uniform per planted beat."""
    rng = random.Random(seed)
    rr_base = 60.0 / bpm
    beats, t = [], rr_base
    while t < duration:
        beats.append(t)
        t += rr_base * (1.0 + irregularity * rng.uniform(-1.0, 1.0))
    return rng, beats


def oracle_beat_train(bpm, irregularity, st_offset, duration, rate, seed):
    """The noiseless signal, one beat's window at a time: each Gaussian is added
    over [lo, hi) after the beats before it."""
    beats = oracle_beat_stream(bpm, irregularity, duration, seed)[1]
    n = int(round(duration * rate))
    times = np.arange(n) / rate
    values = np.full(n, st_offset, dtype=float)
    for beat in beats:
        lo = max(0, int((beat - 4 * BEAT_SIGMA) * rate))
        hi = min(n, int((beat + 4 * BEAT_SIGMA) * rate) + 1)
        values[lo:hi] += np.exp(-((times[lo:hi] - beat) ** 2) / (2 * BEAT_SIGMA**2))
    return values


@settings(max_examples=60, deadline=None)
@given(
    bpm=st.floats(20.0, 1000.0),
    irregularity=st.floats(0.0, 0.99),
    st_offset=st.floats(-0.5, 0.5),
    duration=st.floats(0.01, 30.0),
    rate=st.floats(100.0, 2000.0) | st.integers(1000, 20000).map(lambda k: k / 10),
    seed=st.integers(0, 2**31),
)
@example(bpm=1000.0, irregularity=0.0, st_offset=0.0, duration=0.1, rate=500.0, seed=0)  # one window clipped at both ends
@example(bpm=1000.0, irregularity=0.99, st_offset=0.2, duration=5.0, rate=250.0, seed=1)  # overlapping windows
@example(bpm=60.0, irregularity=0.0, st_offset=0.0, duration=0.01, rate=100.0, seed=0)  # one sample, no beat
def test_beat_placement_matches_a_per_beat_loop_bit_for_bit(bpm, irregularity, st_offset, duration, rate, seed):
    shape = dict(bpm=bpm, irregularity=irregularity, st_offset=st_offset, duration=duration, rate=rate, seed=seed)
    assert same_bits(synthesize_ecg(**shape).values, oracle_beat_train(**shape))


@settings(max_examples=40, deadline=None)
@given(
    bpm=st.floats(30.0, 330.0),
    irregularity=st.floats(0.0, 0.4),
    st_offset=st.floats(-0.5, 0.5),
    noise=st.floats(1e-9, 0.3),
    duration=st.floats(0.01, 30.0),
    rate=st.floats(100.0, 500.0),
    seed=st.integers(0, 2**31),
)
@example(bpm=60.0, irregularity=0.0, st_offset=0.0, noise=0.05, duration=0.01, rate=100.0, seed=0)  # one sample
def test_noisy_signal_is_its_noiseless_twin_plus_the_oracle_noise(bpm, irregularity, st_offset, noise, duration, rate, seed):
    shape = dict(bpm=bpm, irregularity=irregularity, st_offset=st_offset, duration=duration, rate=rate, seed=seed)
    noisy = synthesize_ecg(noise=noise, **shape).values
    clean = synthesize_ecg(**shape).values
    clean += oracle_noise(oracle_beat_stream(bpm, irregularity, duration, seed)[0], len(clean), noise)
    assert same_bits(noisy, clean)


def test_importing_ecg_loads_no_numpy_random_of_its_own():
    # numpy 1.x imports numpy.random itself; the replay must add no generator beyond it
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; import hybridwms.ecg; "
        "assert ('numpy.random' in sys.modules) == before, sorted(m for m in sys.modules if m.startswith('numpy.random'))"
    )
    package_root = Path(importlib.resources.files("hybridwms")).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package_root), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
