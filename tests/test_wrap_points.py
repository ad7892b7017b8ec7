"""The benchmark's tracer wraps functions by name; every name must still resolve."""

import importlib.util
from pathlib import Path

import numpy as np

from classdisco import clustering

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_wrap_points_resolve():
    tracer = load_tracer()
    assert len(tracer.resolve()) == len(tracer.WRAP_POINTS)


def test_tracer_sees_the_kmeans_stages():
    # fit_with_restarts calls both stages once per fit, through the module
    # attributes, points first, and lloyd_fit returns a Clustering, as the
    # count hook reads; so the benchmark's fit count counts fits
    points = np.random.default_rng(0).standard_normal((60, 8))
    traced = load_tracer().Tracer()
    traced.install()
    try:
        for k in (3, 5):  # k=5 at d=8: a block larger than the points
            clustering.fit_with_restarts(points, clustering.KMeansConfig(k=k, restarts=4, seed=0))
    finally:
        traced.uninstall()
    names = [span[0] for span in traced.spans]
    assert names.count("clustering.kmeanspp_init") == names.count("clustering.lloyd_fit") == 2
    assert traced.counts["clustering.lloyd_iterations"] > 0
