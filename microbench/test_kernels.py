"""Opt-in micro-benches of the k-means and Adam kernels (pytest-benchmark).

They sit outside the tier-1 ``testpaths``, so a plain ``pytest`` run never
collects them. Run them from the root of a checkout, one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m pytest microbench

Shapes: Lloyd kernels at 5000x128 and 1000x128 points with k=15 (the pool
sizes of the ``mnist784-dynamic`` workload), Adam at 16-128-15 and 784-128-15.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from classdisco import clustering, learner  # noqa: E402

K = 15
POOLS = [pytest.param(5000, 128, id="5000x128"), pytest.param(1000, 128, id="1000x128")]
NETS = [pytest.param(16, id="16-128-15"), pytest.param(784, id="784-128-15")]


def pool(n, d):
    """Points, k centroids drawn from them, and the nearest-centroid assignment."""
    rng = np.random.default_rng(0)
    points = rng.standard_normal((n, d))
    centroids = points[rng.choice(n, K, replace=False)].copy()
    norms = (points * points).sum(axis=1)
    assign = clustering._sq_dists(points, norms, centroids).argmin(axis=1)
    return points, norms, centroids, assign


@pytest.mark.parametrize("n,d", POOLS)
def test_sq_dists(benchmark, n, d):
    points, norms, centroids, _ = pool(n, d)
    benchmark(clustering._sq_dists, points, norms, centroids)


@pytest.mark.parametrize("n,d", POOLS)
def test_class_means(benchmark, n, d):
    points, _, centroids, assign = pool(n, d)
    benchmark(clustering._class_means, points, assign, K, centroids)


@pytest.mark.parametrize("n,d", POOLS)
def test_inertia(benchmark, n, d):
    points, _, centroids, assign = pool(n, d)
    benchmark(clustering._inertia, points, centroids, assign, np.empty(points.shape))


@pytest.mark.parametrize("input_dim", NETS)
def test_adam_update(benchmark, input_dim):
    net = learner.NetworkConfig(input_dim=input_dim, output_classes=K, hidden_dims=(128,))
    model = learner.init_model(net, seed=0)
    grads = [np.full_like(p, 1e-3) for p in model.params]
    benchmark(learner._adam_update, model, grads, learner.AdamConfig())
