"""The opt-in micro-benches still run: each is called once, untimed, so a
change to the private kernels they call (``learner._workspace``,
``learner._adam_update``, ``clustering._sq_dists`` and the like) cannot
break them silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_microbenches_run_once():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "pytest", "microbench", "--benchmark-disable", "-q"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
