"""Command-line runner: configure, run, and report discovery experiments.

Outputs are plot-ready: ``curves.csv`` holds one row per round with the
metric trajectory, ``clusters.csv`` one row per evaluated cluster, and
``report.json`` the full record including the resolved config and every seed,
so any run can be re-executed exactly from its own report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import engine
from .config import ConfigError, ExperimentConfig, class_count_config, config_to_dict
from .config import load_config, validate_config
from .dataset import Dataset
from .engine import DiscoveryState

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

REPORT_SCHEMA = "classdisco-report/v1"

CURVES_COLUMNS = ("round", "dra", "mean_cluster_accuracy", "ood_pool_size", "train_loss")
CLUSTERS_COLUMNS = (
    "round",
    "source",
    "cluster_id",
    "size",
    "accuracy",
    "mapped_label",
    "weight",
    "learnability",
    "density",
    "accepted",
)
CLASSCOUNT_COLUMNS = ("class_count", "mean_cluster_accuracy")
ACCEPTED_KEYS = ("round", "new_label", "plurality_label", "size", "learnability")
WORKERS_HELP = "accepted and ignored: k-means restarts run in lockstep in one thread"
WORKERS_NOTE = "note: --workers is ignored: the thread pool is retired, restarts run in lockstep"


def _none_if_nan(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def _csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _scalars(obj) -> dict:
    """The non-tuple dataclass fields of ``obj`` in declaration order, NaN as null."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {name: _none_if_nan(v) for name, v in values if not isinstance(v, tuple)}


def _out_dir(path: str) -> str:
    """Create the output directory before the run, so a bad ``--out`` costs no training."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _write(out: str, name: str, text: str) -> str:
    """Write ``out/name`` through a temporary file, so it is never left half-written."""
    path = os.path.join(out, name)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        # a RuntimeError (exit 2): the run's output failed, not its input
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    return path


def _report(mode: str, cfg: ExperimentConfig, **body) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "mode": mode,
        "config": config_to_dict(cfg),
        "seed_registry": {
            "master": cfg.seed,
            "split": cfg.split.seed,
            "adam": cfg.adam.seed,
            "kmeans": cfg.kmeans.seed,
            "policy": cfg.policy.seed,
            "data": getattr(cfg.data, "seed", None),
        },
        **body,
    }
    return json.dumps(doc, indent=2) + "\n"


def _curve_rows(state: DiscoveryState):
    return [[getattr(rec, c) for c in CURVES_COLUMNS] for rec in state.history]


def _overlap(row) -> list:
    """The ClusterOverlap attributes that clusters.csv names, in column order."""
    return [getattr(row, c) for c in CLUSTERS_COLUMNS[2:7]]


def _cluster_rows(state: DiscoveryState):
    """One row per evaluated cluster; learnability/density/accepted are filled
    from the following round's acceptance pass when one happened."""
    rows = []
    for rec, nxt in zip(state.history, [*state.history[1:], None]):
        scores = {f.cluster_id: f for f in nxt.cluster_features} if nxt else {}
        accepted_id = nxt.accepted_cluster if nxt else None
        for row in rec.report.clusters:
            f = scores.get(row.cluster_id)
            learn, density = (f.learnability, f.density) if f else (math.nan, math.nan)
            accepted = int(row.cluster_id == accepted_id)
            rows.append((rec.round, "cluster", *_overlap(row), learn, density, accepted))
        for j, row in enumerate(rec.report.frozen):  # a prefix of state.accepted
            learn = float(state.accepted[j].learnability)
            rows.append((rec.round, "frozen", *_overlap(row), learn, math.nan, 1))
    return rows


def _rounds(state: DiscoveryState) -> list[dict]:
    return [
        {
            **{c: _none_if_nan(getattr(rec, c)) for c in CURVES_COLUMNS},
            "report": _scalars(rec.report),
            "scored_clusters": [_scalars(f) for f in rec.cluster_features],
            "accepted_cluster": rec.accepted_cluster,
        }
        for rec in state.history
    ]


def _check_workers(args) -> None:
    """``--workers`` is still parsed, so old command lines run, but it selects
    nothing: k-means restarts run in lockstep in one thread. A value below 1
    stays an error."""
    if args.workers is None:
        return
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    print(WORKERS_NOTE, file=sys.stderr)


def cmd_discover(args, cfg: ExperimentConfig, data: Dataset | None = None) -> int:
    _check_workers(args)
    out = _out_dir(args.out)
    run = engine.run_static if args.mode == "static" else engine.run_dynamic
    start = time.perf_counter()
    state, _ = run(cfg, data=data)
    wall = time.perf_counter() - start

    last = state.history[-1]
    report = _report(
        args.mode,
        cfg,
        # accepted clusters keep their acceptance-time labels; the residual
        # pool is re-clustered at every evaluation
        dra_accounting="frozen-accepted-plus-reclustered-residual",
        rounds=_rounds(state),
        accepted=[
            {k: _none_if_nan(getattr(a, k)) for k in ACCEPTED_KEYS} for a in state.accepted
        ],
        detector=_scalars(last.detector) if last.detector is not None else None,
        final_dra=last.dra,
        stopped_early=state.stopped_early,
        wall_clock_seconds=wall,
    )
    report_path = _write(out, "report.json", report)
    _write(out, "curves.csv", _csv(CURVES_COLUMNS, _curve_rows(state)))
    _write(out, "clusters.csv", _csv(CLUSTERS_COLUMNS, _cluster_rows(state)))

    final = state.history[-1]
    print(f"{args.mode} run finished: rounds={final.round} dra={final.dra:.4f}")
    if state.stopped_early:
        print(f"stopped early: {state.stopped_early}")
    print(f"report: {report_path}")
    return EXIT_OK


def _parse_counts(raw: str) -> list[int]:
    try:
        counts = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid --counts value {raw!r}: {exc}") from exc
    if not counts:
        raise ConfigError("--counts is empty")
    deduped = list(dict.fromkeys(counts))
    if len(deduped) != len(counts):
        print("warning: duplicate counts de-duplicated", file=sys.stderr)
    return deduped


def cmd_classcount(args, cfg: ExperimentConfig, data: Dataset | None = None) -> int:
    counts = args.counts  # parsed and checked against the data by main
    _check_workers(args)
    out = _out_dir(args.out)
    start = time.perf_counter()
    rows = engine.run_class_count_experiment(cfg, counts, data=data)
    wall = time.perf_counter() - start

    table_path = _write(out, "classcount.csv", _csv(CLASSCOUNT_COLUMNS, rows))
    report = _report(
        "classcount",
        cfg,
        counts=counts,
        rows=[dict(zip(CLASSCOUNT_COLUMNS, row)) for row in rows],
        wall_clock_seconds=wall,
    )
    _write(out, "report.json", report)
    for count, acc in rows:
        print(f"classes={count} cluster_accuracy={acc:.4f}")
    print(f"table: {table_path}")
    return EXIT_OK


def cmd_validate(args, cfg: ExperimentConfig, data: Dataset | None = None) -> int:
    print("config ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classdisco",
        description="Discover new classes in out-of-distribution data and report the quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discover", help="run a static or dynamic discovery experiment")
    d.set_defaults(run=cmd_discover)
    d.add_argument("--config", required=True, help="JSON config (or a previous report.json)")
    d.add_argument("--mode", choices=("static", "dynamic"), default="dynamic")
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)

    c = sub.add_parser("classcount", help="cluster accuracy vs number of training classes")
    c.set_defaults(run=cmd_classcount)
    c.add_argument("--config", required=True)
    c.add_argument("--counts", default="2,3,4,5", help="comma-separated training class counts")
    c.add_argument("--out", required=True)
    c.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)

    v = sub.add_parser("validate", help="check a config without running it")
    v.set_defaults(run=cmd_validate)
    v.add_argument("--config", required=True)
    return parser


def _read_data(cfg: ExperimentConfig, command: str):
    """The data (loaded unless validating) and its ``shape()``; a read failure, or data too
    large to allocate, is a config error."""
    try:
        data = None if command == "validate" else engine.load_data(cfg.data)
        return data, (cfg.data if data is None else data).shape()
    except FileNotFoundError as exc:
        raise ConfigError(f"data file missing: {exc.filename}") from exc
    except (OSError, ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot load data: {exc}") from exc


def _error(prefix: str, message) -> None:
    """Print a failure as one stderr line, with ``\\r`` and ``\\n`` (as in file names) escaped."""
    print(f"{prefix}: " + str(message).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)


def main(argv=None) -> int:
    """Load and validate the config, run the subcommand, and map failures to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        data, (width, counts) = _read_data(cfg, args.command)
        checked = cfg
        if args.command == "classcount":  # it runs its own split, so that is the one to check
            args.counts = _parse_counts(args.counts)
            checked = class_count_config(cfg, data, args.counts)
        problems = validate_config(checked, width, counts)
        for p in problems:
            _error("config error", p)
        if problems:
            return EXIT_CONFIG
        return args.run(args, cfg, data)
    except ConfigError as exc:
        _error("config error", exc)
        return EXIT_CONFIG
    except (RuntimeError, ValueError, MemoryError) as exc:
        # RuntimeError covers learner.TrainingDivergedError
        _error("runtime failure", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
