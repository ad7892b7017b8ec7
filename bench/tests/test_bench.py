"""Tests of the benchmark itself, on the smoke-sized variant of each workload.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import FULL  # noqa: E402

SMOKE = [f"{w.name}-smoke" for w in FULL]


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def test_wrap_points_resolve_and_uninstall_restores():
    found = tracer.resolve()
    assert len(found) == len(tracer.WRAP_POINTS)
    t = tracer.Tracer()
    t.install()
    try:
        for module, attr, fn in found:
            assert getattr(module, attr) is not fn
    finally:
        t.uninstall()
    for module, attr, fn in found:
        assert getattr(module, attr) is fn


def test_missing_wrap_point_fails_loudly(monkeypatch):
    bogus = tracer.WRAP_POINTS + (("classdisco.clustering", "no_such_kernel", "x.y", None),)
    monkeypatch.setattr(tracer, "WRAP_POINTS", bogus)
    with pytest.raises(tracer.TraceError, match="no_such_kernel"):
        tracer.Tracer().install()


def test_sampler_times_the_kernel_until_the_block_ends():
    with calibration.Sampler(max(os.sched_getaffinity(0))) as sampler:
        time.sleep(3 * calibration.PERIOD_S)
    assert sampler.policy in ("fifo", "other")
    assert len(sampler.samples) >= 2
    assert sampler.kernel_s > 0


def test_declared_metrics_match_the_runner():
    declared = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        tracer.LAYER_METRICS
    )
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in FULL]


@pytest.mark.parametrize("workload", SMOKE)
def test_end_to_end_metrics_emitted_with_units(workload):
    proc = _bench(workload, seed=0, trace=0)
    result = _result(proc)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m: u for m, u, _ in run.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = {line.split()[0]: line.split()[1:3] for line in proc.stdout.splitlines()[:-1] if line}
    for name in ("final_dra", "accepted_purity", "classcount_accuracy"):
        assert table[name] == ["fraction", "higher"]
    assert table["error_rate"] == ["fraction", "lower"]
    for name, unit, better in run.RAW_TIMES:
        assert table[name] == [unit, better]


@pytest.mark.parametrize("workload", SMOKE)
def test_traced_counts_repeat(workload):
    first = _result(_bench(workload, seed=1, trace=1))["metrics"]
    second = _result(_bench(workload, seed=1, trace=1))["metrics"]
    assert {m: v["unit"] for m, v in first.items()} == {m: u for m, u, _ in tracer.LAYER_METRICS}
    for metric in tracer.COUNT_METRICS:
        assert first[metric]["value"] == second[metric]["value"], metric
    assert first["clustering.fits"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _bench(SMOKE[0], seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
