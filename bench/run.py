"""Run one classdisco benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload synth-dynamic --seed 0 --seconds 20 --trace 0

The workload (see ``workloads.py``) is generated from ``--seed``. Each CLI
invocation runs in a fresh child process (``child.py``), one at a time, with
one BLAS thread and without ``CLASSDISCO_WORKERS``. Full passes over the
workload's invocations repeat while one more is expected to end within
``--seconds``; there is always at least one.
Every invocation's outputs are checked, and every repetition of a workload
must give bit-identical quality, within the run and against earlier runs of
the same source and seed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
more, traced pass follows and the per-layer metrics are printed. The last
line of standard output is one JSON object; the lines before it are a table
with units, directions and sample counts. The full record, environment
included, is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import tracer  # noqa: E402
from workloads import CLASSCOUNT, CLASSCOUNT_COUNTS, HELD_OUT, WORKLOADS  # noqa: E402

# (metric, unit, better) reported with --trace 0.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("quality", "fraction", "higher"),
)

# Table-only: the unscaled times, for reading against other hosts.
RAW_TIMES = (("raw_wall_s", "s", "lower"), ("raw_setup_s", "s", "lower"))

SETUP_REPEATS = 7  # timed validate processes, after one untimed warm-up
CHILD_TIMEOUT_S = 150
MEASURE_BUDGET_S = 60  # untraced passes stop here whatever --seconds says
MIN_TRACE_COVERAGE = 0.9


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CLASSDISCO_WORKERS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # Peak RSS of one seed moved by 10% between runs. Both of these vary by
    # run unless pinned: whether numpy's large arrays get transparent huge
    # pages, and the string hash seed, which orders sets of strings.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONHASHSEED"] = "0"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def source_hash() -> str:
    """Digest of the program and workload sources: one commit's identity."""
    h = hashlib.sha256()
    for path in sorted((SRC / "classdisco").glob("*.py")) + [BENCH / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(config_path: Path, env: dict, cpu: int) -> tuple[list[float], int, float]:
    """Wall times of fresh ``validate`` processes, how many failed, and the
    calibration kernel's mean time while they ran."""
    cmd = [sys.executable, "-m", "classdisco.cli", "validate", "--config", str(config_path)]
    times, failed = [], 0
    with calibration.Sampler(cpu) as sampler:
        for i in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                failed += 1
                print(f"validate failed: {proc.stderr.decode(errors='replace').strip()}")
            if i > 0:
                times.append(elapsed)
    return times, failed, sampler.kernel_s


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_dynamic(out: Path) -> tuple[list[str], dict]:
    with open(out / "report.json") as f:
        report = json.load(f)
    curves = _read_csv(out / "curves.csv")
    clusters = _read_csv(out / "clusters.csv")
    problems = []
    if report["stopped_early"] is not None:
        problems.append(f"stopped early: {report['stopped_early']}")
    rounds = [int(r["round"]) for r in report["rounds"]]
    if rounds != list(range(len(HELD_OUT) + 1)):
        problems.append(f"rounds {rounds}, expected 0..{len(HELD_OUT)}")
    if [int(c["round"]) for c in curves] != rounds:
        problems.append("curves.csv rounds differ from report.json")
    dra = [float(c["dra"]) for c in curves]
    if not dra or dra[-1] != report["final_dra"]:
        problems.append("final DRA in curves.csv differs from report.json")
    last = rounds[-1] if rounds else -1
    frozen = [float(r["accuracy"]) for r in clusters if int(r["round"]) == last and r["source"] == "frozen"]
    if len(frozen) != len(HELD_OUT):
        problems.append(f"{len(frozen)} accepted clusters in the final round, expected {len(HELD_OUT)}")
    quality = {
        "final_dra": float(report["final_dra"]),
        "accepted_purity": statistics.fmean(frozen) if frozen else math.nan,
        "round_dra": dra,
    }
    return problems, quality


def check_classcount(out: Path) -> tuple[list[str], dict]:
    with open(out / "report.json") as f:
        report = json.load(f)
    rows = _read_csv(out / "classcount.csv")
    problems = []
    counts = [int(r["class_count"]) for r in rows]
    if counts != list(CLASSCOUNT_COUNTS):
        problems.append(f"class counts {counts}, expected {list(CLASSCOUNT_COUNTS)}")
    accuracies = [float(r["mean_cluster_accuracy"]) for r in rows]
    if accuracies != [r["mean_cluster_accuracy"] for r in report["rows"]]:
        problems.append("classcount.csv differs from report.json")
    quality = {
        "classcount_accuracy": statistics.fmean(accuracies) if accuracies else math.nan,
        "accuracies": accuracies,
    }
    return problems, quality


def run_invocation(inv, inv_dir: Path, trace: bool, env: dict) -> dict:
    inv_dir.mkdir(parents=True)
    config_path = inv_dir / "config.json"
    config_path.write_text(json.dumps(inv.config, indent=2))
    out = inv_dir / "out"
    request = {
        "argv": inv.argv(str(config_path), str(out)),
        "trace": trace,
        "result": str(inv_dir / "result.json"),
        "spans": str(inv_dir / "spans.json"),
    }
    request_path = inv_dir / "request.json"
    request_path.write_text(json.dumps(request))
    record = {"problems": [], "quality": None, "spans": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(request_path)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        return record
    if proc.returncode != 0:
        record["problems"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return record
    with open(request["result"]) as f:
        record.update(json.load(f))
    check = check_classcount if inv.kind == CLASSCOUNT else check_dynamic
    try:
        problems, quality = check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record["problems"].append(f"outputs do not parse: {exc!r}")
        return record
    record["problems"].extend(problems)
    record["quality"] = quality
    if trace:
        with open(request["spans"]) as f:
            record["spans"] = json.load(f)
    return record


def run_pass(invocations, pass_dir: Path, trace: bool, env: dict) -> list[dict]:
    return [
        run_invocation(inv, pass_dir / f"inv{i}", trace, env) for i, inv in enumerate(invocations)
    ]


def pass_wall(records: list[dict], scaled: bool) -> float:
    """Summed main() time of one pass, raw or in reference seconds."""
    if not scaled:
        return sum(r.get("wall_s", 0.0) for r in records)
    return sum(calibration.scale(r["wall_s"], r["calibration_s"]) for r in records if "wall_s" in r)


def tail(samples: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it, if any has."""
    n = len(samples)
    if n < 11:
        return "-"
    rank = n - 10
    return f"p{100 * rank // n}={sorted(samples)[rank - 1]:.6g}"


def print_table(rows: list[tuple]) -> None:
    """Rows are (metric, unit, better, sample count, value, tail)."""
    print(f"{'metric':44} {'unit':9} {'better':7} {'n':>4} {'value':>14}  tail")
    for name, unit, better, n, value, spread in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44} {unit:9} {better:7} {n:>4} {shown:>14}  {spread}")


def count_quality_mismatches(name: str, seed: int, passes: list[list[dict]]) -> int:
    """Count invocations whose quality differs from the first pass or an earlier run."""
    reference = [r["quality"] for r in passes[0]]
    record_path = WORK / "quality" / f"{name}-seed{seed}-{source_hash()}.json"
    if record_path.exists() and all(q is not None for q in reference):
        with open(record_path) as f:
            earlier = json.load(f)
        if earlier != reference:
            print(f"quality differs from an earlier run of the same source: {record_path.name}")
            return len(reference)
    elif all(q is not None for q in reference):
        record_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference))
        os.replace(tmp, record_path)
    mismatched = 0
    for records in passes[1:]:
        for ref, rec in zip(reference, records):
            if rec["quality"] is not None and rec["quality"] != ref:
                mismatched += 1
    if mismatched:
        print(f"{mismatched} invocations gave different quality on a repeated pass")
    return mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Every process of the run shares one vCPU, which the calibration samples.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if not (SRC / "classdisco" / "cli.py").is_file():
        raise BenchError(f"no classdisco sources under {SRC}; run from a checkout of the repository")
    if args.trace:
        sys.path.insert(0, str(SRC))
        tracer.resolve()  # a missing wrap point stops the run here

    workload = WORKLOADS[args.workload]
    invocations = workload.invocations(args.seed)
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setup_config = run_dir / "setup-config.json"
        setup_config.write_text(json.dumps(invocations[0].config))
        setup_times, setup_failed, setup_calibration = measure_setup(setup_config, env, cpu)

        # Passes repeat while one more is expected to end within --seconds.
        passes: list[list[dict]] = []
        started = time.perf_counter()
        while True:
            passes.append(run_pass(invocations, run_dir / f"pass{len(passes)}", False, env))
            elapsed = time.perf_counter() - started
            if elapsed * (len(passes) + 1) / len(passes) > min(args.seconds, MEASURE_BUDGET_S):
                break
        traced = run_pass(invocations, run_dir / "traced", True, env) if args.trace else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_records = [r for p in passes for r in p] + (traced or [])
    for i, r in enumerate(all_records):
        for problem in r["problems"]:
            print(f"invocation {i % len(invocations)}: {problem}")
    failed = setup_failed + sum(1 for r in all_records if r["problems"])
    checked = passes + ([traced] if traced else [])
    failed += count_quality_mismatches(workload.name, args.seed, checked)
    attempted = SETUP_REPEATS + 1 + len(all_records)

    first = passes[0]
    walls = [pass_wall(p, scaled=True) for p in passes]
    raw_walls = [pass_wall(p, scaled=False) for p in passes]
    qualities = [r["quality"] for r in first if r["quality"] is not None]
    key = "classcount_accuracy" if workload.kind == CLASSCOUNT else "final_dra"
    per_quality = {
        name: [q[name] for q in qualities if name in q]
        for name in ("final_dra", "accepted_purity", "classcount_accuracy")
    }
    rss = [r["peak_rss_mb"] for p in passes for r in p if "peak_rss_mb" in r]
    samples = {
        "wall_s": walls,
        "raw_wall_s": raw_walls,
        "setup_s": [calibration.scale(t, setup_calibration) for t in setup_times],
        "raw_setup_s": setup_times,
        "peak_rss_mb": rss,
        "quality": per_quality[key],
    }
    values = {
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "setup_s": statistics.median(samples["setup_s"]),
        "raw_setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(rss, default=0.0),
        "quality": statistics.fmean(per_quality[key]) if per_quality[key] else 0.0,
    }
    environment = next((r["environment"] for r in all_records if "environment" in r), {})
    print(
        f"workload {workload.name} seed {args.seed}: {len(invocations)} invocations x "
        f"{len(passes)} passes{' + 1 traced' if traced else ''}"
    )
    print("environment " + json.dumps(environment, sort_keys=True))

    correct = failed == 0
    rows = [
        (m, u, b, len(samples[m]), values[m], tail(samples[m]) if u == "s" else "-")
        for m, u, b in END_TO_END + RAW_TIMES
    ]
    rows += [
        (name, "fraction", "higher", len(s), statistics.fmean(s) if s else None, "-")
        for name, s in per_quality.items()
    ]
    rows.append(("error_rate", "fraction", "lower", attempted, failed / attempted, "-"))
    layer = None
    dumps = [r["spans"] for r in traced or [] if r["spans"]]
    if traced:
        layer = tracer.layer_metrics(dumps, values["raw_wall_s"])
        rows += [(m, u, b, len(dumps), layer[m], "-") for m, u, b in tracer.LAYER_METRICS]
        coverage = layer["trace.coverage"]
        if coverage < MIN_TRACE_COVERAGE:
            print(f"layer spans cover {coverage:.3f} of traced wall, below {MIN_TRACE_COVERAGE}")
            # Smoke data is too small for the layers to outweigh orchestration.
            correct = correct and workload.smoke
    print_table(rows)

    if traced:
        units = {m: u for m, u, _ in tracer.LAYER_METRICS}
        metrics = {m: {"value": layer[m], "unit": units[m]} for m in units}
    else:
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in END_TO_END}
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "source": source_hash(),
        "environment": environment,
        "samples": samples,
        "quality": [r["quality"] for r in first],
        "invocation_wall_s": [[r.get("wall_s") for r in p] for p in checked],
        "invocation_cpu_s": [[r.get("cpu_s") for r in p] for p in checked],
        "calibration_s": [[r.get("calibration_s") for r in p] for p in checked],
        "setup_calibration_s": setup_calibration,
        "per_layer": layer,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2))
    if dumps:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(dumps))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, tracer.TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
