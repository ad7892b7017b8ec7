"""Host-speed calibration: a fixed numpy kernel timed alongside every measurement.

The vCPUs this benchmark was built on change speed by up to half again over
tens of seconds, for reasons outside the guest. Timing a fixed kernel on
the same vCPU tells how fast the host ran, and scaling a time by
``REFERENCE_S / kernel time`` expresses it in seconds of a host on which
the kernel takes ``REFERENCE_S``. The kernel is shaped like the program's
hot loops: a point-to-centroid distance block, its argmin, and a small ReLU
layer.

``Sampler`` runs the kernel every ``PERIOD_S`` in a separate process
pinned to the vCPU of the measured processes, for as long as the
measurement lasts. It asks for real-time priority, so the kernel is not
time-sliced with the measured process and only the host's speed moves it.
Sampling throughout, not just before and after, matters because the host's
speed changes within a 25-second invocation.

Usage as a script (what ``Sampler`` starts): python3 calibration.py CPU
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.002  # about the kernel's time on the 2-vCPU host of the baseline
PERIOD_S = 0.2


def _inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return np, rng.standard_normal((256, 128)), rng.standard_normal((128, 32))


def _kernel(np, x, w) -> float:
    c = x[:15].copy()
    start = time.perf_counter()
    for _ in range(8):
        d = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
        a = d.argmin(axis=1)
        h = np.maximum(x @ w, 0.0)
        c = x[a[:15]] + 1e-3 * h[:15, :1]
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    """Express ``seconds`` measured while the kernel took ``kernel_s`` in reference seconds."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Times the kernel periodically on ``cpu`` until the ``with`` block ends.

    ``kernel_s`` is then the mean kernel time and ``policy`` the scheduling
    policy the sampler got ("fifo", or "other" where real-time priority is
    refused).
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.kernel_s: float | None = None
        self.samples: list[float] = []
        self.policy = ""

    def __enter__(self) -> "Sampler":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        self.policy = self._proc.stdout.readline().strip()  # ready once numpy is loaded
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.wait(timeout=30)
        self.samples = [float(line) for line in out.split()]
        self.kernel_s = statistics.fmean(self.samples) if self.samples else None


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        policy = "fifo"
    except OSError:
        policy = "other"
    np, x, w = _inputs()
    _kernel(np, x, w)
    print(policy, flush=True)
    while True:  # one last sample when stdin closes, so there is always one
        done = select.select([sys.stdin], [], [], PERIOD_S)[0]
        print(f"{_kernel(np, x, w):.9f}", flush=True)
        if done:
            return


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
