import numpy as np
import pytest

from classdisco.clustering import (
    KMeansConfig,
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

