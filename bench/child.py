"""Run one classdisco CLI invocation in this process and record what it cost.

Usage: python3 bench/child.py REQUEST.json

The request names the CLI arguments, whether to trace, and where to write
the result. The result holds the exit code, the wall and CPU time of
``main()`` alone (imports excluded), the mean time of the calibration kernel
sampled on the same vCPU while ``main()`` ran, the process's peak RSS and
the versions that produced them. With tracing on, the span dump goes to the
request's ``spans`` path. The exit code is the CLI's own.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
from tracer import Tracer  # noqa: E402


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "CLASSDISCO_WORKERS": os.environ.get("CLASSDISCO_WORKERS"),
    }


def main(request_path: str) -> int:
    with open(request_path) as f:
        request = json.load(f)

    from classdisco import cli

    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    # One vCPU for the program and the calibration sampler, so the sampler
    # sees the speed the program ran at.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    with calibration.Sampler(cpu) as sampler:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli.main(request["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.uninstall()
        with open(request["spans"], "w") as f:
            json.dump(tracer.dump(), f)

    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "calibration_s": sampler.kernel_s,
        "calibration_samples": len(sampler.samples),
        "calibration_policy": sampler.policy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }
    with open(request["result"], "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
