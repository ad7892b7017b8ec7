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
    # fit_with_restarts calls both stages through the module attributes,
    # points first, and lloyd_fit returns a Clustering, as the count hook reads
    points = np.random.default_rng(0).standard_normal((60, 8))
    traced = load_tracer().Tracer()
    traced.install()
    try:
        clustering.fit_with_restarts(points, clustering.KMeansConfig(k=3, restarts=4, seed=0))
    finally:
        traced.uninstall()
    names = {span[0] for span in traced.spans}
    assert {"clustering.kmeanspp_init", "clustering.lloyd_fit"} <= names
    assert traced.counts["clustering.lloyd_iterations"] > 0
