"""Opt-in micro-benches of the k-means, Adam and scorer kernels (pytest-benchmark).

They sit outside the tier-1 ``testpaths``, so a plain ``pytest`` run never
collects them. Run them from the root of a checkout, one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m pytest microbench

Shapes: the stacked ``_sq_dists`` and ``_class_means`` kernels at 5000x128
and 1000x128 points with k=15 (the pool sizes of the ``mnist784-dynamic``
workload) for a stack of 5 restarts in lockstep (half the 10 that a default
``fit_with_restarts`` stacks), and in float32 for the whole stack of 10
(``test_*_fused10``); in float32 each of these products runs as one GEMM
over the stacked restarts (``clustering._fused``), in float64 as one GEMM
per restart. Then a whole
``lloyd_fit`` of 10 iterations of a 5-restart stack at 5000x128, a whole
``fit_with_restarts`` (10 restarts, k=15) on 15 Gaussian blobs at
5000x128 and 1000x128, each k-means case in float32, the dtype of the
embeddings it clusters, and in float64; Adam at 16-128-15, 784-128-15, the
learnability scorer's 784-32-15 (its 25,615 parameters on ``mnist784-dynamic``)
and the main classifier's 784-128-10, on the model block's and ``_workspace``'s
rows as training allocates them; and one whole training step (gradients plus Adam)
at batch 32 on the learnability scorer's 16-32-15 and 784-32-6 networks and
at batch 128 on the main classifier's 784-128-10. Adam and the step run in
float32, the ``TRAIN_DTYPE`` of both models, and in float64 for comparison.
The step gathers its batch by row index from a shared ``TRAIN_DTYPE``
10000-row matrix, as the engine's Dataset holds it, into the model's dtype,
as ``train_epochs`` does with ``rows``.
A whole ``learnability_scores`` call runs at the ``mnist784-dynamic`` round-0
shape: 5000 pool rows of a shared, read-only 10000x784 matrix in 15 clusters,
under the default ``LearnabilityConfig``. ``embed`` of the same 5000 pool rows
by row index, through the ``TRAIN_DTYPE`` 784-128-5 network that shape embeds with.
``dataset.load_csv`` of a 3000x100 CSV of ``repr`` floats, written once per session.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from classdisco import clustering, dataset, learner, selection  # noqa: E402

K = 15
POOLS = [pytest.param(5000, 128, id="5000x128"), pytest.param(1000, 128, id="1000x128")]
# input width, hidden width and classes of an Adam step's model
NETS = [
    pytest.param(16, 128, K, id="16-128-15"),
    pytest.param(784, 128, K, id="784-128-15"),
    pytest.param(784, 32, K, id="784-32-15"),
    pytest.param(784, 128, 10, id="784-128-10"),
]
# input width, hidden width, classes and batch size of one training step
STEP_NETS = [
    pytest.param(16, 32, 15, 32, id="16-32-15"),
    pytest.param(784, 32, 6, 32, id="784-32-6"),
    pytest.param(784, 128, 10, 128, id="784-128-10-batch128"),
]
LLOYD_ITERS = 10
GROUP = 5  # restarts in the kernels' lockstep stack; a default fit stacks 10
DTYPES = [pytest.param(np.float64, id="float64"), pytest.param(np.float32, id="float32")]
SHARED_ROWS = 10000  # the train step gathers its batch by row index from a matrix this tall


def pool(n, d, dtype, restarts=GROUP):
    """Centered points (in ``center``'s layout) of ``dtype``, their norms, each
    restart's K centroids drawn from them, the nearest-centroid assignments and
    the (restarts, K, n) block."""
    rng = np.random.default_rng(0)
    _, points, norms = clustering.center(rng.standard_normal((n, d)).astype(dtype))
    centroids = np.stack([points[rng.choice(n, K, replace=False)] for _ in range(restarts)])
    block = np.empty((restarts, K, n), dtype)
    assign = clustering._nearest(clustering._sq_dists(points, norms, centroids, block))
    return points, norms, centroids, assign, block


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,d", POOLS)
def test_sq_dists(benchmark, n, d, dtype):
    points, norms, centroids, _, block = pool(n, d, dtype)
    benchmark(clustering._sq_dists, points, norms, centroids, block)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,d", POOLS)
def test_class_means(benchmark, n, d, dtype):
    points, _, centroids, assign, block = pool(n, d, dtype)
    benchmark(clustering._class_means, points, assign, centroids, block)


@pytest.mark.parametrize("n,d", POOLS)
def test_sq_dists_fused10(benchmark, n, d):
    points, norms, centroids, _, block = pool(n, d, np.float32, restarts=10)
    assert clustering._fused(points, K)
    benchmark(clustering._sq_dists, points, norms, centroids, block)


@pytest.mark.parametrize("n,d", POOLS)
def test_class_means_fused10(benchmark, n, d):
    points, _, centroids, assign, block = pool(n, d, np.float32, restarts=10)
    assert clustering._fused(points, K)
    benchmark(clustering._class_means, points, assign, centroids, block)


@pytest.mark.parametrize("dtype", DTYPES)
def test_lloyd_fit(benchmark, dtype):
    points, _, centroids, _, _ = pool(5000, 128, dtype)
    result = benchmark(clustering.lloyd_fit, points, centroids, max_iters=LLOYD_ITERS, tol=0.0)
    assert result.iterations_run == LLOYD_ITERS  # no early stop: every round times the same work


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,d", POOLS)
def test_fit_with_restarts(benchmark, n, d, dtype):
    rng = np.random.default_rng(0)
    centers = 3.0 * rng.standard_normal((K, d))
    points = (centers[rng.integers(K, size=n)] + rng.standard_normal((n, d))).astype(dtype)
    cfg = clustering.KMeansConfig(k=K, restarts=10, seed=0)
    benchmark(clustering.fit_with_restarts, points, cfg)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("input_dim,hidden,classes", NETS)
def test_adam_update(benchmark, input_dim, hidden, classes, dtype):
    net = learner.NetworkConfig(
        input_dim=input_dim, output_classes=classes, hidden_dims=(hidden,)
    )
    model = learner.init_model(net, seed=0, dtype=dtype)
    work, _ = learner._workspace(model)
    work[0] = 1e-3
    benchmark(learner._adam_update, model, work, learner.AdamConfig())


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("input_dim,hidden,classes,batch", STEP_NETS)
def test_train_step(benchmark, input_dim, hidden, classes, batch, dtype):
    net = learner.NetworkConfig(
        input_dim=input_dim, output_classes=classes, hidden_dims=(hidden,)
    )
    model = learner.init_model(net, seed=0, dtype=dtype)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((SHARED_ROWS, input_dim)).astype(learner.TRAIN_DTYPE)
    y = rng.integers(0, classes, SHARED_ROWS)
    rows = rng.permutation(SHARED_ROWS)[:batch]
    adam = learner.AdamConfig(batch_size=batch)
    work, grads = learner._workspace(model)

    def step():
        learner.loss_and_gradients(model, x[rows].astype(dtype, copy=False), y[rows], grads)
        learner._adam_update(model, work, adam)

    benchmark(step)


def shared_pool():
    """A read-only 10000x784 matrix, as the engine's Dataset holds it, and its even rows."""
    rng = np.random.default_rng(0)
    shared = rng.standard_normal((SHARED_ROWS, 784)).astype(learner.TRAIN_DTYPE)
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
    model = learner.init_model(net, seed=0, dtype=learner.TRAIN_DTYPE)
    benchmark(learner.embed, model, shared, rows=pool)


@pytest.fixture(scope="session")
def repr_csv(tmp_path_factory):
    """A 3000x100 CSV of ``repr`` floats and five classes."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    values = np.random.default_rng(0).standard_normal((3000, 100))
    with open(path, "w") as f:
        f.write(",".join(f"f{i}" for i in range(100)) + ",label\n")
        for i, row in enumerate(values.tolist()):
            f.write(",".join(map(repr, row)) + f",{i % 5}\n")
    return str(path)


def test_load_csv(benchmark, repr_csv):
    benchmark.pedantic(dataset.load_csv, args=(repr_csv,), rounds=5)
