"""Command-line surface.

Subcommands: ``run`` (one workflow end to end), ``experiment cost-table``,
``experiment policy-comparison``, and ``validate`` (documents only). Every
document flag defaults to the packaged example documents, so each command
works out of the box. ``validate`` runs the same document loaders as ``run``
and ``experiment policy-comparison``, for every document in ``DOCUMENTS``,
then decides and enforces the policy set for ``--sla`` from ``--repo`` on
``--pool`` as ``run`` does, and the one for each ``--spec`` configuration
from ``--repo`` plus its extra policies as ``experiment policy-comparison``
does. A command that fails exits 2 and writes nothing. The commands that write files check
``--out-dir`` before any document is loaded. A stdout that cannot be written
(closed or full) also exits 2, ``--help`` included: a command's output is
written once it is done, after its files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from importlib import resources
from pathlib import Path

from . import documents as doc
from .engine import enforce_run_policy, node_timings_csv, record_document, run_workflow
from .errors import WmsError
from .experiments import (
    comparison_csv,
    load_workflow_bundle,
    parse_experiment_spec,
    run_cost_study,
    run_policy_comparison,
    summary_csv,
)
from .policy import parse_repository, parse_sla
from .resources import parse_pool
from .runconfig import parse_run_config


#: Each document flag: its packaged default under ``data/`` and the parser of
#: its raw document, given the file's directory. The workflow is read with its
#: sub-workflow files by ``load_workflow_bundle``. Every command, ``validate``
#: included, loads its documents through ``_load``, so all run the same checks.
DOCUMENTS = {
    "workflow": ("workflows/heart-disease.json", None),
    "sla": ("slas/high_performance.json", lambda raw, base: parse_sla(raw)),
    "pool": ("pool.json", lambda raw, base: parse_pool(raw)),
    "repo": ("policies.json", lambda raw, base: parse_repository(raw)),
    "run-config": ("run_config.json", lambda raw, base: parse_run_config(raw, base_dir=base)),
    "spec": ("comparison.json", lambda raw, base: parse_experiment_spec(raw)),
}


def _doc_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        default = str(resources.files("hybridwms") / "data" / DOCUMENTS[name][0])
        parser.add_argument(f"--{name}", default=default, metavar="FILE")


def _load(args, name: str, **overrides):
    """Load and check the document of flag ``name``. Overrides that are not
    None are written into the raw document before it is parsed."""
    path = getattr(args, name.replace("-", "_"))
    if name == "workflow":
        return load_workflow_bundle(path)
    raw = doc.load_json(path)
    if isinstance(raw, dict):
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    return DOCUMENTS[name][1](raw, str(Path(path).parent))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridwms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one workflow run")
    _doc_flags(run_p, "workflow", "sla", "pool", "repo", "run-config")
    run_p.add_argument("--out-dir", default="out", metavar="DIR")
    run_p.add_argument("--seed", type=int, default=None, help="override the run seed")

    exp_p = sub.add_parser("experiment", help="run a study and emit CSVs")
    exp_sub = exp_p.add_subparsers(dest="experiment", required=True)

    ct_p = exp_sub.add_parser("cost-table", help="hourly allocation-cost table")
    _doc_flags(ct_p, "pool")
    ct_p.add_argument("--out-dir", default="out", metavar="DIR")

    pc_p = exp_sub.add_parser("policy-comparison", help="completion times under policy sets")
    _doc_flags(pc_p, "workflow", "pool", "repo", "run-config", "spec")
    pc_p.add_argument("--out-dir", default="out", metavar="DIR")
    pc_p.add_argument("--seed", type=int, default=None, help="override the base seed")
    pc_p.add_argument("--replicates", type=int, default=None, help="override the replicate count")

    val_p = sub.add_parser("validate", help="parse and validate documents")
    _doc_flags(val_p, *DOCUMENTS)

    return parser


def _out_dir(args) -> Path:
    """``--out-dir``, refused before any work unless the nearest part of it
    that exists is a directory this process may write into. Creates nothing."""
    out = Path(args.out_dir)
    try:
        nearest = next(p for p in (out.absolute(), *out.absolute().parents) if p.exists())  # "/" always exists
    except OSError as exc:  # such as a name too long
        raise WmsError(f"cannot write to {out}: {exc.strerror or exc}") from exc
    if not nearest.is_dir():
        raise WmsError(f"cannot write to {out}: {nearest} is not a directory")
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise WmsError(f"cannot write to {out}: {nearest} is not writable")
    return out


def _write(out: Path, texts: dict[str, str]) -> list[Path]:
    """Write each named text into ``out``; returns the paths written."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            doc.write_text(out / name, text)
    except OSError as exc:
        raise WmsError(f"cannot write to {exc.filename or out}: {exc.strerror or exc}") from exc
    return [out / name for name in texts]


def cmd_run(args) -> int:
    out = _out_dir(args)
    bundle, sla, pool, repo = (_load(args, name) for name in ("workflow", "sla", "pool", "repo"))
    config = _load(args, "run-config", seed=args.seed)

    record = run_workflow(bundle.graph, bundle.subworkflows, pool, repo, sla, config)
    paths = _write(out, {"run_record.json": doc.dump_json(record_document(record)), "node_timings.csv": node_timings_csv(record)})
    print(
        f"run {record.run_id}: diagnosis={record.diagnosis or 'none'} "
        f"completion={record.completion_time:.6f}s nodes={len(record.nodes)} "
        f"dispatches={len(record.dispatches)}"
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_cost_table(args) -> int:
    out = _out_dir(args)
    study = run_cost_study(_load(args, "pool"))
    paths = _write(out, {"cost_table.csv": study.table_csv, "quorum_means.csv": study.quorum_csv})
    for level, mean in study.level_means:
        print(f"{level} quorum mean allocation cost: {mean:.6f}")
    print(f"lowest-mean level: {study.best_level}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_policy_comparison(args) -> int:
    out = _out_dir(args)
    bundle, pool, repo, run_config = (_load(args, name) for name in ("workflow", "pool", "repo", "run-config"))
    spec = _load(args, "spec", base_seed=args.seed, replicates=args.replicates)
    result = run_policy_comparison(spec, bundle, pool, repo, run_config)
    paths = _write(out, {"comparison.csv": comparison_csv(result), "comparison_summary.csv": summary_csv(result)})
    for s in result.summaries:
        print(f"{s.config}: mean={s.mean:.6f} stddev={s.stddev:.6f} min={s.min:.6f} max={s.max:.6f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    loaded = {}
    for name in DOCUMENTS:
        try:
            loaded[name] = _load(args, name)
        except WmsError as exc:
            print(f"{name}: error: {exc}")
        else:
            print(f"{name}: ok ({getattr(args, name.replace('-', '_'))})")
    failures = len(DOCUMENTS) - len(loaded)
    policy_sets = []  # (label, SLA, repository) of every policy set a command decides
    if "repo" in loaded and "pool" in loaded:  # a pool that failed to load has already failed validate
        repo = loaded["repo"]
        if "sla" in loaded:
            policy_sets.append(("sla", loaded["sla"], repo))
        if "spec" in loaded:
            policy_sets += [(f"spec {c.name}", c.sla, repo + list(c.extra_policies)) for c in loaded["spec"].configs]
    for label, sla, repository in policy_sets:
        try:
            enforce_run_policy(sla, repository, loaded["pool"])
        except WmsError as exc:
            failures += 1
            print(f"{label} + repo: error: {exc}")
    return 2 if failures else 0


def _command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.experiment == "cost-table":
            return cmd_cost_table(args)
        return cmd_policy_comparison(args)
    except WmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    text = io.StringIO()  # stdout is written in one place below, so one handler meets every fault on it
    try:
        with contextlib.redirect_stdout(text):
            status = _command(argv)
    except SystemExit as exc:  # argparse exits after --help (0) and after a usage error (2)
        status = exc.code
    output = text.getvalue()
    try:
        if output:  # writing even "" can fail on a full device
            sys.stdout.write(output)
            sys.stdout.flush()  # a closed or full stdout fails here, not in the interpreter's exit flush
    except OSError as exc:
        with contextlib.suppress(OSError):  # a stdout with no descriptor leaves nothing for the exit flush
            stdout_fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout_fd)  # what is still buffered goes nowhere
        print(f"error: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
