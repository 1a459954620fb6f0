"""Workloads of the hybridwms benchmark.

Each workload goes through three steps:

* ``generate`` writes the documents the program reads into a work directory,
  as a pure function of the seed and of the parameters in ``workloads.json``;
* ``parse`` reads them with the package's own loaders and parsers; this is
  the set-up that ``setup_s`` times in a fresh interpreter;
* ``build`` turns the parsed documents into warm-up and measured ops, each
  with an output check that reads only the benchmark's own copy of the
  documents.

Ops call the package through module attributes (``engine.run_workflow``,
``documents.dump_json``...) at call time, so the traced run sees the same
calls through its wrappers.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from hybridwms import documents, engine, experiments, policy, resources

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "hybridwms" / "data"
GOLDEN = ROOT / "tests" / "golden" / "comparison_summary.csv"
PARAMS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    context: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Ops plus the checks that judge their outputs.

    ``check(op, output)`` returns (digest text, problems, fact); ``final_check``
    receives the (op, fact) pairs of every op that ran and returns problems.
    """

    name: str
    warmup: list[Op]
    ops: list[Op]
    check: Callable[[Op, object], tuple[str, list[str], object]]
    speed_reference: str
    min_ops: int = 1
    block: int = 1  # a run stops only after a whole block of this many ops
    final_check: Callable[[list], list[str]] = lambda results: []


def _rng(name: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"hybridwms-bench:{name}:{seed}:{stream}")


def _write(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _uniform(rng: random.Random, bounds, digits: int) -> float:
    return round(rng.uniform(*bounds), digits)


def _copy_packaged(work: Path, names) -> None:
    for name in names:
        target = work / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(DATA / name, target)


_BUNDLE_FILES = ("workflows/heart-disease.json", "workflows/ecg-analysis.json", "workflows/vhs-simulation.json")


# --------------------------------------------------------------------------
# Document generators


def _pool(rng: random.Random, size: int, n_sites: int) -> list[dict]:
    p = PARAMS["pool_traces"]
    sites = [f"site{j}" for j in range(n_sites)]
    bandwidth = {s: rng.choice(p["site_bandwidth"]) for s in sites}
    latency = {s: _uniform(rng, p["site_latency"], 4) for s in sites}

    def trace() -> dict:
        return {
            "base": _uniform(rng, p["base"], 4),
            "amplitude": _uniform(rng, p["amplitude"], 4),
            "period": _uniform(rng, p["period"], 1),
            "phase": _uniform(rng, (0.0, 2 * math.pi), 4),
            "noise_sigma": _uniform(rng, p["noise_sigma"], 4),
            "seed": rng.randrange(1, 2**31),
        }

    pool = []
    for i in range(size):
        site = sites[i % n_sites]
        pool.append(
            {
                "id": f"{site}-{i:02d}",
                "site": site,
                "cpu_rate": _uniform(rng, p["cpu_rate"], 1),
                "bandwidth": bandwidth[site],
                "latency": latency[site],
                "net_trace": trace(),
                "sys_trace": trace(),
            }
        )
    return pool


def _dag(rng: random.Random, sub_id: str, n_tasks: int, transformations: list[str]) -> dict:
    """Layered random DAG: each task after the first layer reads from 1-3
    tasks of the two layers above it; first-layer tasks stage in one file."""
    g = PARAMS["grid"]
    ids = [f"t{i:03d}" for i in range(n_tasks)]
    layers, start = [], 0
    while start < n_tasks:
        width = min(n_tasks - start, rng.randint(*g["layer_width"]))
        layers.append(ids[start : start + width])
        start += width
    tasks = [
        {"id": t, "work": _uniform(rng, g["work"], 1), "transformation": rng.choice(transformations)} for t in ids
    ]
    deps = []
    for depth in range(1, len(layers)):
        above = [t for layer in layers[max(0, depth - 2) : depth] for t in layer]
        for t in layers[depth]:
            for producer in rng.sample(above, min(len(above), rng.randint(*g["producers_per_task"]))):
                deps.append([producer, t, rng.randint(*g["edge_bytes"])])
    inputs = [{"file": f"in-{t}", "bytes": rng.randint(*g["input_bytes"]), "consumer": t} for t in layers[0]]
    return {"id": sub_id, "tasks": tasks, "data_deps": deps, "inputs": inputs}


_DISEASES = ("normal", "arrhythmia", "fibrillation", "ischemia")


def _patient(rng: random.Random, disease: str, duration: float, rate: float) -> dict:
    """Patient parameters whose rule-table diagnosis is ``disease``."""
    p = PARAMS["patients"]
    patient = {
        "bpm": _uniform(rng, (55.0, 100.0), 2),
        "irregularity": _uniform(rng, (0.0, 0.04), 3),
        "st_offset": _uniform(rng, (-0.04, 0.04), 3),
        "noise": _uniform(rng, p["noise"], 4),
        "duration": duration,
        "rate": rate,
    }
    if disease == "arrhythmia":
        patient["irregularity"] = _uniform(rng, (0.3, 0.5), 3)
    elif disease == "fibrillation":
        patient["bpm"] = _uniform(rng, (300.0, 380.0), 2)
    elif disease == "ischemia":
        patient["st_offset"] = rng.choice((-1, 1)) * _uniform(rng, (0.22, 0.35), 3)
    return patient


def _candidates(rng: random.Random, bpm: float, factors: list[float], count: int) -> list[dict]:
    """Candidates whose rate differs from the patient's by at least 25%, so
    the VHS loop never matches and always runs every candidate."""
    return [
        {
            "bpm": round(bpm * factor, 2),
            "irregularity": _uniform(rng, (0.0, 0.1), 3),
            "st_offset": _uniform(rng, (-0.1, 0.1), 3),
            "seed": rng.randrange(1, 2**31),
        }
        for factor in rng.sample(factors, count)
    ]


#: Multiples of this, modulo 1, form a low-discrepancy sequence: successive
#: blocks fill [0, 1) evenly, so every run of whole blocks has nearly the same
#: mix of sizes whatever the seed, and a longer run shifts its quantiles
#: smoothly. The seed changes everything else about each input.
_GOLDEN = 0.6180339887498949


def _spread(i: int, offset: float = 0.0) -> float:
    return (offset + i * _GOLDEN) % 1.0


def _patients_block(rng: random.Random, b: int) -> list[dict]:
    """Block ``b``: every (service, rate) pair once. Each pair's duration walks
    the duration range over successive blocks, offset per pair so one block
    also spans it."""
    p = PARAMS["patients"]
    lo, hi = p["duration_s"]
    pairs = [(s, r) for s in p["services"] for r in p["rates_hz"]]
    block = []
    for c, (service, rate) in enumerate(pairs):
        duration = round(lo + (hi - lo) * _spread(b, _spread(c)), 2)
        if service == "EcgVhs":
            disease = ("fibrillation", "ischemia")[(b + c) % 2]
        else:
            disease = _DISEASES[(b + c) % len(_DISEASES)]
        patient = _patient(rng, disease, duration, float(rate))
        block.append(
            {
                "sla": {
                    "user_id": "bench",
                    "resource_level": rng.choice(p["resource_levels"]),
                    "performance": rng.choice(p["performances"]),
                    "service_level": service,
                },
                "run_config": {
                    "seed": rng.randrange(1, 2**31),
                    "patient": patient,
                    "vhs_grid": _candidates(rng, patient["bpm"], p["candidate_bpm_factors"], p["candidates"]),
                },
            }
        )
    rng.shuffle(block)
    return block


def _grid_bundle_size(s: int, j: int) -> tuple[int, int]:
    """Task counts of bundle ``j`` of DAG size stratum ``s``: the VHS DAG is
    spaced evenly within the stratum, the ECG DAG over the whole range."""
    g = PARAMS["grid"]
    strata, per_stratum = g["task_strata"], g["bundles_per_stratum"]
    lo, hi = strata[0][0], strata[-1][1]
    s_lo, s_hi = strata[s]
    ecg = lo + round((hi - lo) * _spread(s * per_stratum + j))
    return ecg, s_lo + round((s_hi - s_lo) * (j + 0.5) / per_stratum)


def _grid_block(rng: random.Random, b: int) -> list[dict]:
    """Block ``b``: every SLA (level x performance) once, a third of them on
    each DAG size stratum, cycling through each stratum's bundles."""
    g = PARAMS["grid"]
    slas = [(lvl, perf) for lvl in g["resource_levels"] for perf in g["performances"]]
    n_strata = len(g["task_strata"])
    pt = g["patient"]
    block = []
    for c, (level, performance) in enumerate(slas):
        stratum = (b + c) % n_strata
        bundle = (b * (len(slas) // n_strata) + c // n_strata) % g["bundles_per_stratum"]
        bpm = _uniform(rng, pt["bpm"], 2)
        block.append(
            {
                "bundle": f"s{stratum}-{bundle}",
                "sla": {
                    "user_id": "bench",
                    "resource_level": level,
                    "performance": performance,
                    "service_level": "EcgVhs",
                },
                "run_config": {
                    "seed": rng.randrange(1, 2**31),
                    "patient": {
                        "bpm": bpm,
                        "irregularity": _uniform(rng, (0.0, 0.04), 3),
                        "st_offset": _uniform(rng, (-0.03, 0.03), 3),
                        "noise": pt["noise"],
                        "duration": pt["duration_s"],
                        "rate": pt["rate_hz"],
                    },
                    "vhs_grid": _candidates(rng, bpm, g["candidate_bpm_factors"], len(g["candidate_bpm_factors"])),
                },
            }
        )
    rng.shuffle(block)
    return block


def _cost_block(rng: random.Random, b: int) -> list[dict]:
    """Block ``b``: one pool per size stratum, each stratum's size walking
    its range over successive blocks."""
    c = PARAMS["cost_table"]
    lo, hi = c["pool_size"]
    strata = c["pool_strata"]
    pools = [
        _pool(rng, lo + round((hi - lo) * (k + _spread(b)) / strata), rng.randint(*c["sites"]))
        for k in range(strata)
    ]
    rng.shuffle(pools)
    return pools


def _blocks(make_block, rng: random.Random, count: int) -> list:
    return [item for b in range(count) for item in make_block(rng, b)]


def generate(name: str, seed: int, work: Path) -> None:
    """Write the documents of workload ``name`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    params = PARAMS[name]
    rng = _rng(name, seed, "measured")
    warm = _rng(name, seed, "warmup")
    if name == "study":
        _copy_packaged(work, ("comparison.json", "policies.json", "pool.json", "run_config.json") + _BUNDLE_FILES)
    elif name == "patients":
        _copy_packaged(work, ("policies.json", "pool.json") + _BUNDLE_FILES)
        _write(
            work / "ops.json",
            {
                "warmup": _patients_block(warm, 0)[: params["warmup_ops"]],
                "measured": _blocks(_patients_block, rng, params["blocks"]),
            },
        )
    elif name == "grid":
        _write(work / "pool.json", _pool(rng, params["resources"], params["sites"]))
        repo = json.loads((DATA / "policies.json").read_text(encoding="utf-8"))
        repo.append(
            {
                "id": "HWP-B",
                "kind": "AppService",
                "priority": 100,
                "condition": [{"key": "service_level", "op": "==", "value": "EcgVhs"}],
                "actions": [{"key": "app.workflow", "value": "EcgVhsAlways"}],
            }
        )
        _write(work / "policies.json", repo)
        transformations = params["transformations"]
        for s in range(len(params["task_strata"])):
            for j in range(params["bundles_per_stratum"]):
                bundle = work / "bundles" / f"s{s}-{j}"
                bundle.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(DATA / "workflows" / "heart-disease.json", bundle / "heart-disease.json")
                ecg_tasks, vhs_tasks = _grid_bundle_size(s, j)
                _write(bundle / "ecg-analysis.json", _dag(rng, "ecg-analysis", ecg_tasks, transformations["ecg-analysis"]))
                _write(
                    bundle / "vhs-simulation.json",
                    _dag(rng, "vhs-simulation", vhs_tasks, transformations["vhs-simulation"]),
                )
        _write(
            work / "ops.json",
            {
                "warmup": _grid_block(warm, 0)[: params["warmup_ops"]],
                "measured": _blocks(_grid_block, rng, params["blocks"]),
            },
        )
    elif name == "cost_table":
        _write(
            work / "pools.json",
            {
                "warmup": _cost_block(warm, 0)[: params["warmup_ops"]],
                "measured": _blocks(_cost_block, rng, params["blocks"]),
            },
        )
    else:
        raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# Parsing: what a user of the package does before the first run


def _parse_bundle_pool_repo(work: Path, bundle_dir: Path) -> dict:
    return {
        "bundle": experiments.load_workflow_bundle(bundle_dir / "heart-disease.json"),
        "pool": resources.parse_pool(documents.load_json(work / "pool.json")),
        "repo": policy.parse_repository(documents.load_json(work / "policies.json")),
    }


def _parse_runs(work: Path) -> dict:
    raw = documents.load_json(work / "ops.json")
    return {
        key: [
            (policy.parse_sla(item["sla"]), engine.parse_run_config(item["run_config"], base_dir=str(work)))
            for item in raw[key]
        ]
        for key in ("warmup", "measured")
    }


def parse(name: str, work: Path) -> dict:
    """Parse every document of workload ``name`` with the package's parsers."""
    if name == "study":
        parsed = _parse_bundle_pool_repo(work, work / "workflows")
        parsed["run_config"] = engine.parse_run_config(
            documents.load_json(work / "run_config.json"), base_dir=str(work)
        )
        parsed["spec"] = experiments.parse_experiment_spec(documents.load_json(work / "comparison.json"))
        return parsed
    if name == "patients":
        parsed = _parse_bundle_pool_repo(work, work / "workflows")
        parsed["runs"] = _parse_runs(work)
        return parsed
    if name == "grid":
        parsed = {
            "pool": resources.parse_pool(documents.load_json(work / "pool.json")),
            "repo": policy.parse_repository(documents.load_json(work / "policies.json")),
            "bundles": {
                d.name: experiments.load_workflow_bundle(d / "heart-disease.json")
                for d in sorted((work / "bundles").iterdir())
            },
        }
        parsed["runs"] = _parse_runs(work)
        return parsed
    if name == "cost_table":
        raw = documents.load_json(work / "pools.json")
        return {key: [resources.parse_pool(pool) for pool in raw[key]] for key in ("warmup", "measured")}
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# Ops and checks


def _pool_sites(raw_pool: list[dict]) -> dict:
    return {r["id"]: {"site": r["site"], "bandwidth": r["bandwidth"], "latency": r["latency"]} for r in raw_pool}


def _subworkflows(directory: Path) -> dict:
    subs = {}
    for sub_id in ("ecg-analysis", "vhs-simulation"):
        subs[sub_id] = _read(directory / f"{sub_id}.json")
    return subs


def _serialised_run_check(op: Op, text: str):
    """Check of an op whose output is the serialised run record."""
    doc = json.loads(text)
    return text, checks.check_record(doc, op.context["pool"], op.context["subworkflows"]), None


def _serialised_runs(name: str, parsed: dict, bundle_of, context_of, block: int) -> Workload:
    def make(key: str) -> list[Op]:
        ops = []
        for i, (sla, config) in enumerate(parsed["runs"][key]):
            bundle = bundle_of(key, i)

            def run(bundle=bundle, sla=sla, config=config):
                record = engine.run_workflow(bundle.graph, bundle.subworkflows, parsed["pool"], parsed["repo"], sla, config)
                return documents.dump_json(engine.record_document(record))

            ops.append(Op(f"{key}[{i}]", run, context_of(key, i)))
        return ops

    return Workload(
        name, make("warmup"), make("measured"), _serialised_run_check, PARAMS[name]["speed_reference"], block=block
    )


def _build_study(seed: int, work: Path, parsed: dict) -> Workload:
    p = PARAMS["study"]
    spec = parsed["spec"]
    bundle, pool, repo = parsed["bundle"], parsed["pool"], parsed["repo"]
    rng = _rng("study", seed, "passes")
    bases = [spec.base_seed] + [rng.randrange(*p["later_base_seed_range"]) for _ in range(p["passes"] - 1)]
    warm_base = _rng("study", seed, "warmup").randrange(*p["later_base_seed_range"])
    context = {"pool": _pool_sites(_read(work / "pool.json")), "subworkflows": _subworkflows(work / "workflows")}

    def make(pass_index: int, base: int) -> list[Op]:
        ops = []
        for config in spec.configs:
            config_repo = list(repo) + list(config.extra_policies)
            for replicate in range(1, spec.replicates + 1):
                run_config = engine.replace_seed(parsed["run_config"], base + replicate)
                run_id = f"{config.name}-r{replicate}"

                def run(config=config, config_repo=config_repo, run_config=run_config, run_id=run_id):
                    return engine.run_workflow(
                        bundle.graph, bundle.subworkflows, pool, config_repo, config.sla, run_config, run_id=run_id
                    )

                ops.append(Op(f"pass{pass_index}:{run_id}", run, dict(context, pass_index=pass_index, config=config.name)))
        return ops

    def check(op: Op, record):
        doc = engine.record_document(record)
        problems = checks.check_record(doc, op.context["pool"], op.context["subworkflows"])
        return documents.dump_json(doc), problems, round(doc["completion_time"], 6)

    pass_length = len(spec.configs) * spec.replicates
    golden = GOLDEN.read_bytes()

    def final_check(results) -> list[str]:
        rows = [(op.context["config"], fact) for op, fact in results if op.context["pass_index"] == 0]
        if len(rows) != pass_length:
            return [f"golden pass incomplete: {len(rows)} of {pass_length} runs"]
        if checks.summary_csv(rows).encode("utf-8") != golden:
            return ["golden pass summary differs from tests/golden/comparison_summary.csv"]
        return []

    ops = [op for i, base in enumerate(bases) for op in make(i, base)]
    warmup = make(-1, warm_base)[: p["warmup_ops"]]
    return Workload(
        "study", warmup, ops, check, p["speed_reference"], min_ops=pass_length, final_check=final_check
    )


def _build_patients(seed: int, work: Path, parsed: dict) -> Workload:
    p = PARAMS["patients"]
    context = {"pool": _pool_sites(_read(work / "pool.json")), "subworkflows": _subworkflows(work / "workflows")}
    block = len(p["services"]) * len(p["rates_hz"])
    return _serialised_runs("patients", parsed, lambda key, i: parsed["bundle"], lambda key, i: context, block)


def _build_grid(seed: int, work: Path, parsed: dict) -> Workload:
    raw = _read(work / "ops.json")
    pool = _pool_sites(_read(work / "pool.json"))
    subs = {name: _subworkflows(work / "bundles" / name) for name in parsed["bundles"]}
    p = PARAMS["grid"]
    return _serialised_runs(
        "grid",
        parsed,
        lambda key, i: parsed["bundles"][raw[key][i]["bundle"]],
        lambda key, i: {"pool": pool, "subworkflows": subs[raw[key][i]["bundle"]]},
        len(p["resource_levels"]) * len(p["performances"]),
    )


def _build_cost_table(seed: int, work: Path, parsed: dict) -> Workload:
    raw = _read(work / "pools.json")

    def make(key: str) -> list[Op]:
        return [
            Op(f"{key}[{i}]", lambda pool=pool: experiments.run_cost_study(pool), {"pool": pool, "raw": raw[key][i]})
            for i, pool in enumerate(parsed[key])
        ]

    params = resources.AllocationCostParams()

    def check(op: Op, study):
        quorums = {
            level: resources.generate_arq(op.context["pool"], level, 0.0, params).members for level in resources.LEVELS
        }
        problems = checks.check_cost_study(
            study.table_csv, study.quorum_csv, study.level_means, op.context["raw"], quorums, (params.alpha, params.beta)
        )
        return study.table_csv + study.quorum_csv, problems, None

    p = PARAMS["cost_table"]
    return Workload("cost_table", make("warmup"), make("measured"), check, p["speed_reference"], block=p["pool_strata"])


def build(name: str, seed: int, work: Path, parsed: dict) -> Workload:
    """Turn parsed documents into the workload's warm-up and measured ops."""
    by_name = {
        "study": _build_study,
        "patients": _build_patients,
        "grid": _build_grid,
        "cost_table": _build_cost_table,
    }
    return by_name[name](seed, work, parsed)
