from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from classdisco import clustering
from classdisco.clustering import (
    KMeansConfig,
    _class_means,
    _inertia,
    _sq_dists,
    fit_with_restarts,
    kmeanspp_init,
    lloyd_fit,
)
from conftest import blobs


def brute_force_two_partition_inertia(points):
    """Exhaustive optimum over all 2-partitions (both parts nonempty)."""
    n = len(points)
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):  # point 0 pinned to part 0, no empty parts
        part = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        sse = 0.0
        for side in (part, ~part):
            member = points[side]
            center = member.mean(axis=0)
            sse += ((member - center) ** 2).sum()
        best = min(best, sse)
    return best


class TestKmeansPlusPlus:
    def test_two_points_get_both(self):
        points = np.array([[0.0], [100.0]])
        for seed in range(10):
            centroids = kmeanspp_init(points, 2, seed=seed)
            assert sorted(centroids[:, 0].tolist()) == [0.0, 100.0]

    def test_k_equals_n_is_permutation(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((8, 3))
        centroids = kmeanspp_init(points, 8, seed=5)
        matched = sorted(tuple(c) for c in centroids)
        assert matched == sorted(tuple(p) for p in points)

    def test_blob_coverage(self):
        points, labels = blobs([[0, 0], [50, 0], [0, 50]], n_per=30, noise=1.0, seed=2)
        hits = 0
        for seed in range(100):
            centroids = kmeanspp_init(points, 3, seed=seed)
            nearest_blob = np.linalg.norm(
                centroids[:, None, :] - np.array([[0, 0], [50, 0], [0, 50]])[None], axis=2
            ).argmin(1)
            if sorted(nearest_blob.tolist()) == [0, 1, 2]:
                hits += 1
        assert hits >= 95

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((40, 4))
        a = kmeanspp_init(points, 5, seed=9)
        b = kmeanspp_init(points, 5, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeanspp_init(np.zeros((3, 2)), 4, seed=0)

    def test_all_duplicate_points(self):
        points = np.zeros((6, 2))
        centroids = kmeanspp_init(points, 3, seed=0)
        assert np.array_equal(centroids, np.zeros((3, 2)))


class TestLloyd:
    def test_exact_centroids_converge_in_one_iteration(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        result = lloyd_fit(points, points.copy())
        assert result.inertia == 0.0
        assert result.iterations_run == 1
        assert np.array_equal(np.sort(result.assignments), [0, 1, 2])

    def test_single_centroid_analytic(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0]])
        result = lloyd_fit(points, np.array([[0.5, 0.5]]))
        assert np.allclose(result.centroids, [[1.0, 0.0]])
        assert result.inertia == pytest.approx(2.0)

    def test_matches_exhaustive_two_partition(self):
        points, _ = blobs([[0, 0], [8, 0]], n_per=6, noise=1.0, seed=4)
        oracle = brute_force_two_partition_inertia(points)
        result = fit_with_restarts(points, KMeansConfig(k=2, restarts=10, seed=0))
        assert result.inertia == pytest.approx(oracle, rel=1e-9)

    def test_inertia_trace_non_increasing(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            points = rng.standard_normal((60, 3))
            init = kmeanspp_init(points, 4, seed=seed)
            result = lloyd_fit(points, init)
            trace = result.inertia_trace
            assert len(trace) >= 1
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier * (1 + 1e-12) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        points=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 4)),
            elements=st.floats(-100.0, 100.0),
        ),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inertia_trace_never_increases(self, points, k, seed):
        # any points, duplicates and collinear sets included; the trace covers
        # every Lloyd iteration plus the final reconciliation
        init = kmeanspp_init(points, min(k, len(points)), seed=seed)
        trace = lloyd_fit(points, init, max_iters=50).inertia_trace
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier * (1 + 1e-12) + 1e-12

    def test_assignments_point_to_nearest_centroid(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            points = rng.standard_normal((80, 5))
            result = lloyd_fit(points, kmeanspp_init(points, 6, seed=seed))
            d2 = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
            assert np.array_equal(d2.argmin(axis=1), result.assignments)

    def test_empty_cluster_repair_keeps_k(self):
        points, _ = blobs([[0, 0], [10, 0], [0, 10]], n_per=20, noise=0.5, seed=3)
        init = np.array([[0.0, 0.0], [10.0, 0.0], [1e6, 1e6]])  # third starts empty
        result = lloyd_fit(points, init)
        assert len(np.unique(result.assignments)) == 3
        assert (result.cluster_sizes() > 0).all()

    def test_inertia_consistent_with_assignments(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((50, 2))
        result = lloyd_fit(points, kmeanspp_init(points, 3, seed=1))
        recomputed = ((points - result.centroids[result.assignments]) ** 2).sum()
        assert result.inertia == pytest.approx(recomputed, rel=1e-6)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            lloyd_fit(np.zeros((0, 2)), np.zeros((1, 2)))


class TestRestarts:
    def test_single_restart_equals_lloyd(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((40, 3))
        cfg = KMeansConfig(k=3, restarts=1, seed=17)
        via_restarts = fit_with_restarts(points, cfg)
        direct = lloyd_fit(points, kmeanspp_init(points, 3, seed=17))
        assert via_restarts.inertia == direct.inertia
        assert np.array_equal(via_restarts.assignments, direct.assignments)

    def test_returns_minimum_inertia_trial(self):
        rng = np.random.default_rng(3)
        points = np.concatenate(
            [rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + [6, 0]]
        )
        cfg = KMeansConfig(k=4, restarts=10, seed=100)
        result = fit_with_restarts(points, cfg)
        trials = [
            lloyd_fit(points, kmeanspp_init(points, 4, seed=cfg.seed + i)) for i in range(10)
        ]
        inertias = [t.inertia for t in trials]
        assert result.inertia == min(inertias)
        best_index = int(np.argmin(inertias))  # argmin takes the first, the tie rule
        assert np.array_equal(result.assignments, trials[best_index].assignments)

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((60, 3))
        cfg = KMeansConfig(k=5, restarts=8, seed=0)
        serial = fit_with_restarts(points, cfg, workers=1)
        parallel = fit_with_restarts(points, cfg, workers=4)
        assert serial.inertia == parallel.inertia
        assert np.array_equal(serial.assignments, parallel.assignments)
        assert serial.centroids.tobytes() == parallel.centroids.tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((50, 2))
        cfg = KMeansConfig(k=3, restarts=5, seed=42)
        a = fit_with_restarts(points, cfg)
        b = fit_with_restarts(points, cfg)
        assert a.centroids.tobytes() == b.centroids.tobytes()


# Reference kernels: the straightforward formulas the fast kernels must match
# bit for bit (np.add.at sums, an allocating inertia, norms on every call).


def reference_sq_dists(points, centroids):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * points @ centroids.T
    )
    return np.maximum(d2, 0.0)


def reference_class_means(points, assign, k, fallback):
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, assign, points)
    counts = np.bincount(assign, minlength=k)
    means = fallback.copy()
    nonempty = counts > 0
    means[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    return means


def reference_inertia(points, centroids, assign):
    return float(((points - centroids[assign]) * (points - centroids[assign])).sum())


def reference_repair_empty(points, centroids, assign, k):
    for _ in range(k):
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            break
        d2 = reference_sq_dists(points, centroids)
        dist_to_own = d2[np.arange(len(assign)), assign]
        centroids[empties[0]] = points[int(dist_to_own.argmax())]
        assign = reference_sq_dists(points, centroids).argmin(axis=1)
    return centroids, assign


def reference_lloyd(points, init_centroids, max_iters=300, tol=1e-4):
    """Lloyd's loop built from the reference kernels; returns (centroids, assign, trace)."""
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    k = centroids.shape[0]
    trace, prev = [], None
    for _ in range(max_iters):
        assign = reference_sq_dists(points, centroids).argmin(axis=1)
        centroids, assign = reference_repair_empty(points, centroids, assign, k)
        new_centroids = reference_class_means(points, assign, k, fallback=centroids)
        inertia = reference_inertia(points, new_centroids, assign)
        trace.append(inertia)
        converged = np.array_equal(new_centroids, centroids)
        centroids = new_centroids
        if converged or (prev is not None and (prev - inertia) < tol * prev):
            break
        prev = inertia
    final = reference_sq_dists(points, centroids).argmin(axis=1)
    if not np.array_equal(final, assign):
        centroids, assign = reference_repair_empty(points, centroids, final, k)
        trace.append(reference_inertia(points, centroids, assign))
    return centroids, assign, trace


@st.composite
def labelled_points(draw, max_n=40, max_d=5, max_k=8):
    """Points (zeros of both signs included), k, and in-range assignments.

    k often exceeds the labels drawn, so some clusters are empty.
    """
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    k = draw(st.integers(1, max_k))
    points = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-100.0, 100.0)))
    assign = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return points, assign, k


class TestKernelsBitIdentical:
    @settings(max_examples=80, deadline=None)
    @given(data=labelled_points(), seed=st.integers(0, 2**32 - 1))
    def test_class_means_match_add_at(self, data, seed):
        points, assign, k = data
        fallback = np.random.default_rng(seed).standard_normal((k, points.shape[1]))
        means = _class_means(points, assign, k, fallback)
        assert means.tobytes() == reference_class_means(points, assign, k, fallback).tobytes()
        empty = np.bincount(assign, minlength=k) == 0
        assert means[empty].tobytes() == fallback[empty].tobytes()

    def test_class_means_match_add_at_at_embedding_width(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((3000, 128)) * 10
        assign = rng.integers(0, 14, 3000)  # cluster 14 of 15 stays empty
        fallback = rng.standard_normal((15, 128))
        expected = reference_class_means(points, assign, 15, fallback)
        assert _class_means(points, assign, 15, fallback).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=labelled_points(), seed=st.integers(0, 2**32 - 1))
    def test_inertia_matches_allocating_form(self, data, seed):
        points, assign, k = data
        centroids = np.random.default_rng(seed).standard_normal((k, points.shape[1]))
        buf = np.full(points.shape, np.nan)  # a reused buffer holds stale values
        assert _inertia(points, centroids, assign, buf) == reference_inertia(
            points, centroids, assign
        )

    @settings(max_examples=80, deadline=None)
    @given(data=labelled_points(), seed=st.integers(0, 2**32 - 1))
    def test_sq_dists_with_precomputed_norms(self, data, seed):
        points, _, k = data
        centroids = np.random.default_rng(seed).standard_normal((k, points.shape[1])) * 50
        norms = (points * points).sum(axis=1)
        expected = reference_sq_dists(points, centroids)
        assert _sq_dists(points, norms, centroids).tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        points=hnp.arrays(
            np.float64,
            st.tuples(st.integers(4, 40), st.integers(1, 4)),
            elements=st.floats(-100.0, 100.0),
        ),
        k=st.integers(2, 4),
    )
    def test_lloyd_from_duplicate_centroids_matches_reference(self, points, k):
        init = points[:k].copy()
        init[-1] = init[0]  # argmin ties go to the lower index, so cluster k-1 starts empty
        with mock.patch.object(
            clustering, "_repair_empty", wraps=clustering._repair_empty
        ) as spy:
            result = lloyd_fit(points, init, max_iters=50)
        assert any(
            (np.bincount(call.args[3], minlength=k) == 0).any() for call in spy.call_args_list
        )
        centroids, assign, trace = reference_lloyd(points, init, max_iters=50)
        assert result.centroids.tobytes() == centroids.tobytes()
        assert np.array_equal(result.assignments, assign)
        assert result.inertia_trace == tuple(trace)
        assert result.inertia == trace[-1]

