"""The run configuration, and the parser of its document: the patient signal,
the VHS candidate grid, the diagnosis thresholds and the user inputs.

Each record checks its rules when it is built, parsed or in code, and raises
``SchemaError`` at the document path of a bad value: numbers finite, seeds
integers, values in their domains, signals able to show two beats. A checked
``RunConfig`` holds read-only candidates and user inputs, a ``Thresholds``, and
a patient: ``PatientParams``, or a checked, read-only copy of an ``EcgSignal``.
``candidate_signal``, which the candidate check and the engine's loop call,
alone decides how a VHS candidate is synthesized. numpy is imported only to
load or check a recorded sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from . import documents as doc
from .errors import NoBeatsDetected

#: Width of one synthetic beat bump, seconds.
BEAT_SIGMA = 0.02

#: The domain of each signal parameter; ``synthesize_ecg`` refuses values outside it.
#: Upper bounds on bpm, duration (s) and rate (Hz) bound synthesis work, and the one
#: on noise keeps every feature finite (1e200 overflows the spectral scan); none is physiology.
SIGNAL_DOMAINS = {
    "bpm": (lambda v: 0 < v <= 1000, "must be in (0, 1000]"),
    "irregularity": (lambda v: 0 <= v < 1, "must be in [0, 1)"),
    "noise": (lambda v: 0 <= v <= 10, "must be in [0, 10]"),
    "duration": (lambda v: 0 < v <= 3600, "must be in (0, 3600]"),
    "rate": (lambda v: 0 < v <= 2000, "must be in (0, 2000]"),
}

#: The largest magnitude a recorded sample value may hold. The spectral scan squares
#: sums of n values, and (n * 1e100) ** 2 stays finite for any n below 1e54.
MAX_SAMPLE_MAGNITUDE = 1e100

#: The domain of each diagnosis threshold; ``Thresholds`` refuses values outside it.
THRESHOLD_DOMAINS = {
    "fibrillation_freq": (lambda v: v > 0, "must be positive"),
    "ischemia_st": (lambda v: v >= 0, "must be non-negative"),
    "arrhythmia_rr": (lambda v: v >= 0, "must be non-negative"),
}

#: The largest baseline shift ``detectability_problem`` allows, in beat heights.
MAX_ST_OFFSET = 0.35

#: What a VHS candidate is synthesized with for each key it leaves out; ``bpm`` is required.
CANDIDATE_DEFAULTS = {"irregularity": 0.0, "st_offset": 0.0, "seed": 0}


def detectability_problem(bpm, irregularity, st_offset, duration, rate) -> tuple[str, str] | None:
    """The parameter, and why, for which a noiseless ``synthesize_ecg`` signal
    with these (in-domain) parameters might show ``detect_beats`` fewer than two
    beats; ``None`` when it cannot.

    At two samples per ``BEAT_SIGMA`` each beat has a sample above 0.969 of its
    height. Beats at least ``4 * BEAT_SIGMA`` apart never rise above 0.30
    between them, at the sample nearest the midpoint. A baseline within
    ``MAX_ST_OFFSET`` then stays below half the peak, so does every dip, and
    every beat rises above it. Two beats fit when the second, at most
    ``(2 + irregularity)`` mean RR intervals in, still has its bump inside.
    """
    if not abs(st_offset) <= MAX_ST_OFFSET:
        return "st_offset", f"must be in [-{MAX_ST_OFFSET}, {MAX_ST_OFFSET}]"
    if not rate >= 2 / BEAT_SIGMA:
        return "rate", f"must be >= {2 / BEAT_SIGMA:g}: two samples per beat width"
    rr = 60.0 / bpm
    if not rr * (1.0 - irregularity) >= 4 * BEAT_SIGMA:
        limit = 60 / (4 * BEAT_SIGMA)
        return "bpm", f"beats closer than {4 * BEAT_SIGMA:g} s merge: needs bpm * (1 - irregularity) <= {limit:g}"
    need = rr * (2.0 + irregularity) + 4 * BEAT_SIGMA
    if not duration >= need:
        return "duration", f"{duration:g} s holds fewer than two beats at bpm {bpm:g}: needs at least {need:.6g} s"
    return None


def _number(record, key: str, path: str, domains: dict) -> float:
    """``record[key]`` as a finite float, inside its domain when ``domains`` states one."""
    value = doc.get_number(record, key, path)
    domain = domains.get(key)
    if domain is not None and not domain[0](value):
        raise doc.SchemaError(f"{path}.{key}", domain[1])
    return value


@dataclass(frozen=True)
class Thresholds:
    fibrillation_freq: float = 4.0
    ischemia_st: float = 0.15
    arrhythmia_rr: float = 0.12

    def __post_init__(self):
        fields = self.__dict__  # written directly: each check may turn an int into a float
        for key in THRESHOLD_DOMAINS:
            fields[key] = _number(fields, key, "run_config.thresholds", THRESHOLD_DOMAINS)


@dataclass(frozen=True)
class PatientParams:
    bpm: float
    irregularity: float = 0.0
    st_offset: float = 0.0
    noise: float = 0.0
    duration: float = 30.0
    rate: float = 250.0
    seed: int | None = None  # falls back to the run seed

    def __post_init__(self):
        path = "run_config.patient"
        fields = self.__dict__  # written directly: each check may turn an int into a float
        for key in _PATIENT_NUMBERS:
            fields[key] = _number(fields, key, path, SIGNAL_DOMAINS)
        if self.seed is not None:
            doc.get_int(fields, "seed", path)
        problem = detectability_problem(self.bpm, self.irregularity, self.st_offset, self.duration, self.rate)
        if problem:
            raise doc.SchemaError(f"{path}.{problem[0]}", problem[1])


#: The number fields of a patient, in the order they are checked; ``seed`` is checked last.
_PATIENT_NUMBERS = tuple(key for key in PatientParams.__dataclass_fields__ if key != "seed")
_PATIENT_KEYS = frozenset(PatientParams.__dataclass_fields__)
_CANDIDATE_KEYS = frozenset({"bpm", *CANDIDATE_DEFAULTS})


def candidate_signal(candidate, patient) -> tuple:
    """``synthesize_ecg``'s arguments for a VHS candidate: its fields over ``CANDIDATE_DEFAULTS``,
    no noise, and the patient signal's duration and rate, bit for bit as its ``EcgSignal`` has them."""
    c, rate = {**CANDIDATE_DEFAULTS, **candidate}, float(patient.rate)
    duration = round(patient.duration * rate) / rate if isinstance(patient, PatientParams) else patient.duration
    return c["bpm"], c["irregularity"], c["st_offset"], 0.0, duration, rate, c["seed"]


def _candidate(record, index: int, patient) -> MappingProxyType:
    """A read-only copy of a checked VHS candidate: known keys, a ``bpm``, each
    field in its domain, and a noiseless signal (``candidate_signal``) whose
    duration is in its domain and which shows two beats."""
    path = f"run_config.vhs_grid[{index}]"
    doc.reject_unknown(doc.require_mapping(record, path), _CANDIDATE_KEYS, path)
    checked = {"bpm": _number(record, "bpm", path, SIGNAL_DOMAINS)}  # then the rest, as listed
    for key in record:
        if key == "seed":
            checked[key] = doc.get_int(record, key, path)
        elif key != "bpm":
            checked[key] = _number(record, key, path, SIGNAL_DOMAINS)
    bpm, irregularity, st_offset, _, duration, rate, _ = candidate_signal(checked, patient)
    problem = detectability_problem(bpm, irregularity, st_offset, duration, rate)
    if not (problem or SIGNAL_DOMAINS["duration"][0](duration)):  # the rate was checked with the patient
        problem = "duration", SIGNAL_DOMAINS["duration"][1]
    if problem:
        name, message = problem
        if name in ("duration", "rate"):
            raise doc.SchemaError(path, f"with the patient signal's {name}: {message}")
        raise doc.SchemaError(f"{path}.{name}", message)
    return MappingProxyType(checked)


class _Checked(tuple):
    """Candidates a ``RunConfig`` checked and copied read-only: a config rebuilt
    from them (``dataclasses.replace``) checks them again but shares them."""


@dataclass(frozen=True)
class RunConfig:
    seed: int
    patient: PatientParams | EcgSignal  # synthesis parameters, or a recorded ecg.EcgSignal loaded at parse time
    candidates: tuple = ()  # each a mapping with a bpm and any of CANDIDATE_DEFAULTS' keys
    thresholds: Thresholds = Thresholds()
    user_inputs: dict = field(default_factory=dict)  # read-only once checked

    def __post_init__(self):
        doc.get_int(self.__dict__, "seed", "run_config")
        if not isinstance(self.patient, PatientParams):
            object.__setattr__(self, "patient", _recorded(self.patient))
        candidates = _Checked([_candidate(c, i, self.patient) for i, c in enumerate(self.candidates)])
        if type(self.candidates) is not _Checked:
            object.__setattr__(self, "candidates", candidates)
        if not isinstance(self.thresholds, Thresholds):
            raise doc.SchemaError("run_config.thresholds", f"expected Thresholds, got {type(self.thresholds).__name__}")
        user_inputs = doc.require_mapping(self.user_inputs, "run_config.user_inputs")
        if type(user_inputs) is not MappingProxyType:  # a read-only view is kept: no rule reads a user input's value
            object.__setattr__(self, "user_inputs", MappingProxyType(dict(user_inputs)))


def _recorded(signal):
    """Refuse a patient that is neither ``PatientParams`` nor an ``ecg.EcgSignal``
    with a rate in its domain and at least the spectral scan's Nyquist rate, and
    values a non-empty 1-D float array of finite numbers within
    ``MAX_SAMPLE_MAGNITUDE`` in which ``ecg.detect_beats`` finds two beats.
    Return it with its values copied into immutable bytes; a signal whose values
    already live in bytes is returned as it is, so rebuilt configs share it."""
    import numpy as np  # here, not at module top: only a recorded signal needs it
    from .ecg import FREQ_MAX, EcgSignal, detect_beats

    path = "run_config.patient"
    if not isinstance(signal, EcgSignal):
        raise doc.SchemaError(path, f"expected PatientParams or EcgSignal, got {type(signal).__name__}")
    rate = _number({"rate": signal.rate}, "rate", path, SIGNAL_DOMAINS)
    if not rate >= 2 * FREQ_MAX:
        raise doc.SchemaError(f"{path}.rate", f"must be >= {2 * FREQ_MAX:g}: the spectral scan's Nyquist rate")
    values = signal.values
    if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "f" and values.size):
        raise doc.SchemaError(f"{path}.values", "expected a non-empty 1-D float array")
    if not np.isfinite(values).all():
        raise doc.SchemaError(f"{path}.values", "expected finite numbers")
    if not (np.abs(values) <= MAX_SAMPLE_MAGNITUDE).all():
        raise doc.SchemaError(f"{path}.values", f"expected magnitudes <= {MAX_SAMPLE_MAGNITUDE:g}")
    try:
        detect_beats(signal)
    except NoBeatsDetected as exc:
        raise doc.SchemaError(f"{path}.values", str(exc)) from None
    if isinstance(values.base, bytes):
        return signal
    return EcgSignal(np.frombuffer(values.tobytes(), values.dtype), signal.rate)


def _load_sample(file: str):
    """A recorded signal, an ``EcgSignal``: a JSON file with a ``rate`` in its
    signal domain and a non-empty list of finite ``values``."""
    import numpy as np  # here, not at module top: only a recorded sample needs it
    from .ecg import EcgSignal

    root = doc.require_mapping(doc.load_json(file), "patient_sample")
    doc.reject_unknown(root, _SAMPLE_KEYS, "patient_sample")
    rate = _number(root, "rate", "patient_sample", SIGNAL_DOMAINS)
    values = doc.require_list(doc.get_required(root, "values", "patient_sample"), "patient_sample.values")
    if not values:
        raise doc.SchemaError("patient_sample.values", "must not be empty")
    for i, value in enumerate(values):
        if not doc.is_finite_number(value):
            raise doc.SchemaError(f"patient_sample.values[{i}]", "expected a finite number")
    return EcgSignal(values=np.asarray(values, dtype=float), rate=rate)


_SAMPLE_KEYS = frozenset({"rate", "values"})
_RUN_CONFIG_KEYS = frozenset({"seed", "patient", "user_inputs", "vhs_grid", "thresholds"})
_FILE_KEYS = frozenset({"file"})
_THRESHOLD_KEYS = frozenset(Thresholds.__dataclass_fields__)


def parse_run_config(document, base_dir: str | None = None) -> RunConfig:
    """Decode a run configuration document into records that check their own
    values. A relative sample-file path is read from ``base_dir``, by default
    the working directory."""
    root = doc.require_mapping(document, "run_config")
    doc.reject_unknown(root, _RUN_CONFIG_KEYS, "run_config")
    seed = doc.get_required(root, "seed", "run_config")

    raw_patient = doc.require_mapping(doc.get_required(root, "patient", "run_config"), "run_config.patient")
    if "file" in raw_patient:
        doc.reject_unknown(raw_patient, _FILE_KEYS, "run_config.patient")
        file = doc.get_str(raw_patient, "file", "run_config.patient")
        patient = _load_sample(str(Path(base_dir or ".") / file))
    else:
        doc.reject_unknown(raw_patient, _PATIENT_KEYS, "run_config.patient")
        doc.get_required(raw_patient, "bpm", "run_config.patient")
        if "seed" in raw_patient:  # a document's null is a value, not the default that falls back to the run seed
            doc.get_int(raw_patient, "seed", "run_config.patient")
        patient = PatientParams(**raw_patient)

    candidates = doc.require_list(root.get("vhs_grid", []), "run_config.vhs_grid")
    thresholds = RunConfig.thresholds  # the default, built and checked once
    if "thresholds" in root:
        raw_thresholds = doc.require_mapping(root["thresholds"], "run_config.thresholds")
        doc.reject_unknown(raw_thresholds, _THRESHOLD_KEYS, "run_config.thresholds")
        thresholds = Thresholds(**raw_thresholds)
    return RunConfig(seed, patient, candidates, thresholds, root.get("user_inputs", {}))
