"""Opt-in micro-benches of the k-means, Adam and scorer kernels (pytest-benchmark).

They sit outside the tier-1 ``testpaths``, so a plain ``pytest`` run never
collects them. Run them from the root of a checkout, one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m pytest microbench

Shapes: the stacked ``_sq_dists`` and ``_class_means`` kernels at 5000x128
and 1000x128 points with k=15 (the pool sizes of the ``mnist784-dynamic``
workload) for a group of 5 restarts in lockstep (the group size
``fit_with_restarts`` takes for 10 restarts at that k and width), a whole
``lloyd_fit`` of 10 iterations of such a group at 5000x128, a whole
``fit_with_restarts`` (10 restarts, k=15) on 15 Gaussian blobs at
5000x128 and 1000x128, Adam at 16-128-15 and 784-128-15, and one whole
training step (gradients plus Adam) at batch 32 on the learnability
scorer's 16-32-15 and 784-32-6 networks. Adam and the step run in float64,
as the main classifier does, and in float32, as the scorer does. The step
gathers its batch by row index from a shared float64 10000-row matrix into
the model's dtype, as ``train_epochs`` does with ``rows``.
A whole ``learnability_scores`` call runs at the ``mnist784-dynamic`` round-0
shape: 5000 pool rows of a shared, read-only 10000x784 matrix in 15 clusters,
under the default ``LearnabilityConfig``. ``embed`` of the same 5000 pool rows
by row index, through the 784-128-5 network that shape embeds with.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from classdisco import clustering, learner, selection  # noqa: E402

K = 15
POOLS = [pytest.param(5000, 128, id="5000x128"), pytest.param(1000, 128, id="1000x128")]
NETS = [pytest.param(16, id="16-128-15"), pytest.param(784, id="784-128-15")]
SCORER_NETS = [pytest.param(16, 15, id="16-32-15"), pytest.param(784, 6, id="784-32-6")]
LLOYD_ITERS = 10
GROUP = 5  # restarts per lockstep group for 10 restarts at k=15 and d=128
DTYPES = [pytest.param(np.float64, id="float64"), pytest.param(np.float32, id="float32")]
SHARED_ROWS = 10000  # the train step gathers its batch by row index from a matrix this tall


def pool(n, d):
    """Centered points (in ``center``'s layout), their norms, each restart's K
    centroids drawn from them, the nearest-centroid assignments and the
    (GROUP, K, n) block."""
    rng = np.random.default_rng(0)
    _, points, norms = clustering.center(rng.standard_normal((n, d)))
    centroids = np.stack([points[rng.choice(n, K, replace=False)] for _ in range(GROUP)])
    block = np.empty((GROUP, K, n))
    assign = clustering._nearest(clustering._sq_dists(points, norms, centroids, block))
    return points, norms, centroids, assign, block


@pytest.mark.parametrize("n,d", POOLS)
def test_sq_dists(benchmark, n, d):
    points, norms, centroids, _, block = pool(n, d)
    benchmark(clustering._sq_dists, points, norms, centroids, block)


@pytest.mark.parametrize("n,d", POOLS)
def test_class_means(benchmark, n, d):
    points, _, centroids, assign, block = pool(n, d)
    benchmark(clustering._class_means, points, assign, centroids, block)


def test_lloyd_fit(benchmark):
    points, _, centroids, _, _ = pool(5000, 128)
    result = benchmark(clustering.lloyd_fit, points, centroids, max_iters=LLOYD_ITERS, tol=0.0)
    assert result.iterations_run == LLOYD_ITERS  # no early stop: every round times the same work


@pytest.mark.parametrize("n,d", POOLS)
def test_fit_with_restarts(benchmark, n, d):
    rng = np.random.default_rng(0)
    centers = 3.0 * rng.standard_normal((K, d))
    points = centers[rng.integers(K, size=n)] + rng.standard_normal((n, d))
    cfg = clustering.KMeansConfig(k=K, restarts=10, seed=0)
    benchmark(clustering.fit_with_restarts, points, cfg)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("input_dim", NETS)
def test_adam_update(benchmark, input_dim, dtype):
    net = learner.NetworkConfig(input_dim=input_dim, output_classes=K, hidden_dims=(128,))
    model = learner.init_model(net, seed=0, dtype=dtype)
    work, _ = learner._workspace(model)
    work[0] = 1e-3
    benchmark(learner._adam_update, model, work, learner.AdamConfig())


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("input_dim,classes", SCORER_NETS)
def test_train_step(benchmark, input_dim, classes, dtype):
    net = learner.NetworkConfig(input_dim=input_dim, output_classes=classes, hidden_dims=(32,))
    model = learner.init_model(net, seed=0, dtype=dtype)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SHARED_ROWS, input_dim))
    y = rng.integers(0, classes, SHARED_ROWS)
    rows = rng.permutation(SHARED_ROWS)[:32]
    adam = learner.AdamConfig(batch_size=32)
    work, grads = learner._workspace(model)

    def step():
        learner.loss_and_gradients(model, x[rows].astype(dtype, copy=False), y[rows], grads)
        learner._adam_update(model, work, adam)

    benchmark(step)


def shared_pool():
    """A read-only 10000x784 matrix, as the engine's Dataset holds it, and its even rows."""
    rng = np.random.default_rng(0)
    shared = rng.standard_normal((SHARED_ROWS, 784))
    shared.flags.writeable = False
    return rng, shared, np.arange(0, SHARED_ROWS, 2)


def test_learnability_scores(benchmark):
    rng, shared, pool = shared_pool()
    assign = rng.integers(K, size=len(pool))
    benchmark.pedantic(
        selection.learnability_scores,
        args=(shared, assign),
        kwargs={"seed": 0, "rows": pool},
        rounds=3,
    )


def test_embed_pool_rows(benchmark):
    _, shared, pool = shared_pool()
    net = learner.NetworkConfig(input_dim=784, output_classes=5, hidden_dims=(128,))
    model = learner.init_model(net, seed=0)
    benchmark(learner.embed, model, shared, rows=pool)
