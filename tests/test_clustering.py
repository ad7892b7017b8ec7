import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from classdisco import clustering
from classdisco.clustering import (
    KMeansConfig,
    _class_means,
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

    @pytest.mark.parametrize("shift", [0.0, 1e9])
    def test_blob_coverage_survives_translation(self, shift):
        # D^2 on uncentered points is rounding noise at 1e9: 43 of these 100
        # seeds covered all three blobs there, against 96 at the origin
        points, labels = blobs([[0, 0], [10, 0], [0, 10]], n_per=30, noise=1.0, seed=0)
        moved = points + shift
        hits = 0
        for seed in range(100):
            centroids = kmeanspp_init(moved, 3, seed=seed)
            rows = [np.flatnonzero((moved == c).all(axis=1))[0] for c in centroids]
            hits += len(set(labels[rows].tolist())) == 3
        assert hits >= 90

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

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k=0 is below 1"):
            kmeanspp_init(np.zeros((3, 2)), 0, seed=0)

    def test_empty_seed_sequence(self):
        with pytest.raises(ValueError, match="seed must be"):
            kmeanspp_init(np.zeros((3, 2)), 2, seed=[])


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

    def test_one_distance_block_per_iteration(self):
        # without empty clusters, one block for the initial centroids and one
        # per iteration serve every argmin, every inertia and the reconcile;
        # a stack of restarts shares each iteration's block
        for seed in range(10):
            points = np.random.default_rng(seed).standard_normal((200, 4))
            for init in (
                kmeanspp_init(points, 5, seed=seed),
                kmeanspp_init(points, 5, seed=range(seed, seed + 3)),
            ):
                empty = []

                def repair(ctr, norms, cents, d2, assign, which):
                    empty.append((clustering._counts(assign, 5) == 0).any())
                    return real_repair(ctr, norms, cents, d2, assign, which)

                real_repair = clustering._repair_empty
                with (
                    mock.patch.object(clustering, "_sq_dists", wraps=clustering._sq_dists) as spy,
                    mock.patch.object(clustering, "_repair_empty", side_effect=repair),
                ):
                    result = lloyd_fit(points, init)
                assert not any(empty)
                iterations = max(
                    lloyd_fit(points, one).iterations_run for one in init.reshape(-1, 5, 4)
                )
                assert iterations > 1
                assert spy.call_count == iterations + 1
                assert result.iterations_run <= iterations

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
    def test_inertia_matches_direct_form(self, points, k, seed):
        result = lloyd_fit(points, kmeanspp_init(points, min(k, len(points)), seed=seed))
        direct = ((points - result.centroids[result.assignments]) ** 2).sum()
        spread = ((points - points.mean(axis=0)) ** 2).sum()
        tiny = np.finfo(np.float64).tiny  # subnormal sums carry no relative precision
        assert result.inertia == pytest.approx(direct, rel=1e-9, abs=1e-12 * spread + tiny)

    def test_fewer_distinct_rows_than_k_stops_at_the_rounding_floor(self):
        # two distinct rows and k=3: the true inertia is 0, and an inertia
        # summed from |c|^2 - 2 c.x + |x|^2 is rounding noise that can rise
        points = np.zeros((17, 16))
        points[:6, :2] = [45.0, 84.5]
        floor = 4 * 18 * np.finfo(np.float64).eps * clustering.center(points)[2].sum()
        for seed in range(20):
            result = lloyd_fit(points, kmeanspp_init(points, 3, seed=seed))
            assert result.inertia <= floor
            assert len(set(zip(result.assignments.tolist(), points[:, 0].tolist()))) == 3
        assert fit_with_restarts(points, KMeansConfig(k=3, restarts=10)).inertia <= floor

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2, 2), (0, 2, 2), (0, 2)])
    def test_init_centroids_must_be_one_set_or_a_stack(self, shape):
        # a 1-D row, a 4-D stack, an empty stack and k = 0 are each named up front
        with pytest.raises(ValueError, match=r"init_centroids \(.*\) must be \(k, 2\) or \(R, k, 2\)"):
            lloyd_fit(np.ones((5, 2)), np.zeros(shape))

    def test_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            lloyd_fit(np.ones((5, 2)), np.zeros((2, 2)), max_iters=0)

    def test_zero_points_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning comes before the error
            with pytest.raises(ValueError, match="zero points"):
                lloyd_fit(np.zeros((0, 2)), np.zeros((1, 2)))
            with pytest.raises(ValueError, match="zero points"):
                fit_with_restarts(np.zeros((0, 2)), KMeansConfig(k=1, restarts=2))


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

    @pytest.mark.parametrize("dim", [3, 8, 12, 24])
    def test_centers_once_and_matches_self_centering_trials(self, dim):
        # every restart runs in one stack, whether its (R, k, n) block is
        # larger than the centered points (R * k > d) or not
        rng = np.random.default_rng(6)
        points = rng.standard_normal((75, dim)) + 8.0 * rng.integers(0, 3, (75, 1)) + 1e3
        cfg = KMeansConfig(k=4, restarts=6, seed=9)
        with (
            mock.patch.object(clustering, "center", wraps=clustering.center) as center,
            mock.patch.object(clustering, "kmeanspp_init", wraps=kmeanspp_init) as seed_spy,
            mock.patch.object(clustering, "lloyd_fit", wraps=lloyd_fit) as lloyd_spy,
        ):
            result = fit_with_restarts(points, cfg)
        # one seeding and one Lloyd call, through the module attributes, points first
        assert center.call_count == seed_spy.call_count == lloyd_spy.call_count == 1
        for call in seed_spy.call_args_list + lloyd_spy.call_args_list:
            assert call.args[0] is center.call_args.args[0]
        assert seed_spy.call_args.kwargs["seed"] == range(cfg.seed, cfg.seed + cfg.restarts)
        trials = [
            lloyd_fit(points, kmeanspp_init(points, 4, seed=cfg.seed + i))
            for i in range(cfg.restarts)
        ]
        best = trials[int(np.argmin([t.inertia for t in trials]))]
        assert result.centroids.tobytes() == best.centroids.tobytes()
        assert result.assignments.tobytes() == best.assignments.tobytes()
        assert result.inertia_trace == best.inertia_trace

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e6, 1e9])
    def test_partition_survives_translation(self, shift):
        # on uncentered points the distances' rounding grows with the offset,
        # and at 1e9 it exceeds the clusters' spread
        points, labels = blobs([[0, 0], [10, 0], [0, 10]], n_per=30, noise=1.0, seed=0)
        result = fit_with_restarts(points + shift, KMeansConfig(k=3, restarts=10, seed=0))
        pairs = set(zip(result.assignments.tolist(), labels.tolist()))
        assert len(pairs) == 3  # a bijection between clusters and blobs

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((50, 2))
        cfg = KMeansConfig(k=3, restarts=5, seed=42)
        a = fit_with_restarts(points, cfg)
        b = fit_with_restarts(points, cfg)
        assert a.centroids.tobytes() == b.centroids.tobytes()


@st.composite
def restart_problems(draw):
    """Points with duplicate rows (few distinct rows is common), k up to n
    (k = n often), and 1-12 restarts."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 40))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    distinct = draw(st.integers(1, n))
    base = draw(hnp.arrays(np.float64, (distinct, d), elements=st.floats(-100.0, 100.0)))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
    restarts = draw(st.integers(1, 12))
    return base[rows], k, restarts


def assert_same_clustering(result, expected):
    assert result.centroids.tobytes() == expected.centroids.tobytes()
    assert result.assignments.tobytes() == expected.assignments.tobytes()
    assert np.float64(result.inertia).tobytes() == np.float64(expected.inertia).tobytes()
    assert np.array(result.inertia_trace).tobytes() == np.array(expected.inertia_trace).tobytes()
    assert result.iterations_run == expected.iterations_run


def best_single(trials):
    """The lowest-inertia trial; argmin takes the first, the lowest sub-seed."""
    return trials[int(np.argmin([t.inertia for t in trials]))]


class TestLockstep:
    """Restarts run in lockstep give what each gives alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        problem=restart_problems(),
        seed=st.integers(0, 2**32 - 1),
        max_iters=st.integers(1, 30),
    )
    def test_fit_equals_best_single_restart(self, problem, seed, max_iters):
        points, k, restarts = problem
        cfg = KMeansConfig(k=k, restarts=restarts, seed=seed, max_iters=max_iters)
        trials = [
            lloyd_fit(points, kmeanspp_init(points, k, seed=seed + i), max_iters=max_iters)
            for i in range(restarts)
        ]
        assert_same_clustering(fit_with_restarts(points, cfg), best_single(trials))

    @settings(max_examples=60, deadline=None)
    @given(
        problem=restart_problems(),
        seed=st.integers(0, 2**32 - 1),
        emptied=st.integers(0, 11),
    )
    def test_stack_with_an_empty_cluster_equals_single_restarts(self, problem, seed, emptied):
        points, k, restarts = problem
        init = kmeanspp_init(points, k, seed=range(seed, seed + restarts))
        for i, one in enumerate(init):  # each restart seeds from its own stream
            assert one.tobytes() == kmeanspp_init(points, k, seed=seed + i).tobytes()
        if k > 1:  # argmin ties go to the lower index, so the last cluster starts empty
            init[emptied % restarts, -1] = init[emptied % restarts, 0]
        trials = [lloyd_fit(points, one, max_iters=50) for one in init]
        assert_same_clustering(lloyd_fit(points, init, max_iters=50), best_single(trials))

    def test_equal_inertia_goes_to_the_lowest_sub_seed(self):
        # every restart reaches the same partition of two far pairs, in its
        # own centroid order; the lowest sub-seed's order is returned
        points = np.array([[0.0], [1.0], [100.0], [101.0]])
        trials = [lloyd_fit(points, kmeanspp_init(points, 2, seed=i)) for i in range(8)]
        assert len({t.inertia for t in trials}) == 1
        assert len({t.assignments.tobytes() for t in trials}) == 2
        result = fit_with_restarts(points, KMeansConfig(k=2, restarts=8, seed=0))
        assert_same_clustering(result, trials[0])

    def test_equal_inertia_goes_to_the_lower_position_that_stops_later(self):
        # restart 1 starts at restart 0's converged centroids, so it reaches
        # the same inertia in fewer iterations; position 0 still wins
        points, _ = blobs([[0, 0], [8, 0]], n_per=30, noise=1.0, seed=3)
        start = np.array([[0.0, 0.0], [0.5, 0.5]])
        first = lloyd_fit(points, start)
        fit = lloyd_fit(points, np.stack([start, first.centroids]))
        assert fit.restart_inertias[0].tobytes() == fit.restart_inertias[1].tobytes()
        assert fit.restart_iterations.tolist() == [3, 1]
        assert_same_clustering(fit, first)

    def test_peak_memory_is_the_points_and_one_block(self):
        # 10 restarts at k=15, d=128 run as one stack: the centered points,
        # one (10, 15, n) block and a few (10, n) rows (assignments, their
        # reconciliation, minima), and nothing else that large
        rng = np.random.default_rng(0)
        centers = 3.0 * rng.standard_normal((15, 128))
        points = centers[rng.integers(15, size=5000)] + rng.standard_normal((5000, 128))
        tracemalloc.start()
        try:
            fit_with_restarts(points, KMeansConfig(k=15, restarts=10, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = 10 * 5000 * 8
        assert peak < points.nbytes + 15 * row + 6 * row


# Reference kernels: one restart at a time, in the straightforward formulas
# the stacked kernels must match bit for bit (a fresh one-hot matrix for the
# class sums, point norms per call, a fresh block per use). A product's bits
# depend on its operands' memory layout, so each reference gets the points in
# the layout the kernel reads.


def reference_sq_dists(points, centroids):
    """One restart's (k, n) block; doubling the points instead of the centroids
    gives the same products, so the same bits."""
    d2 = (
        centroids @ (-2.0 * points).T + (centroids * centroids).sum(axis=1)[:, None]
    ) + np.einsum("ij,ij->i", points, points)[None, :]
    return np.maximum(d2, 0.0)


def reference_class_means(points, assign, k, fallback):
    onehot = (np.arange(k)[:, None] == assign[None, :]).astype(np.float64)
    sums = onehot @ points
    counts = np.bincount(assign, minlength=k)
    means = fallback.copy()
    nonempty = counts > 0
    means[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    return means


def reference_repair_empty(points, centroids, assign, dists):
    k = centroids.shape[0]
    for _ in range(k):
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            break
        dist_to_own = dists(centroids)[assign, np.arange(len(assign))]
        centroids[empties[0]] = points[int(dist_to_own.argmax())]
        assign = dists(centroids).argmin(axis=0)
    return centroids, assign


def reference_lloyd(points, init_centroids, max_iters=300, tol=1e-4):
    """One restart of Lloyd's loop from the reference kernels; returns
    (centroids, assign, trace).

    Distances and means are taken on the points and centroids both shifted
    by the points' mean; the centroids are shifted back at the end. An
    inertia is the sum of each point's distance to its assigned centroid in
    the block of the centroids it is measured against.
    """
    mu = points.mean(axis=0)
    ctr = np.ascontiguousarray((points - mu).T).T  # center() stores the points transposed

    def dists(centroids):
        return reference_sq_dists(ctr, centroids)

    def inertia_of(centroids, assign):
        return float(dists(centroids)[assign, np.arange(len(points))].sum())

    centroids = np.asarray(init_centroids, dtype=np.float64) - mu
    k = centroids.shape[0]
    trace, prev = [], None
    norms = clustering.center(points)[2]
    floor = 4 * (points.shape[1] + 2) * np.finfo(np.float64).eps * norms.sum()
    assign = dists(centroids).argmin(axis=0)
    centroids, assign = reference_repair_empty(ctr, centroids, assign, dists)
    for it in range(max_iters):
        new_centroids = reference_class_means(ctr, assign, k, fallback=centroids)
        inertia = inertia_of(new_centroids, assign)
        trace.append(inertia)
        converged = np.array_equal(new_centroids, centroids)
        centroids = new_centroids
        final = dists(centroids).argmin(axis=0)
        # at or below the floor, an inertia is rounding noise and may rise
        stop = converged or inertia <= floor or (
            prev is not None and (prev - inertia) < tol * prev
        )
        if stop or it == max_iters - 1:
            if not np.array_equal(final, assign):
                centroids, assign = reference_repair_empty(ctr, centroids, final, dists)
                trace.append(inertia_of(centroids, assign))
            break
        centroids, assign = reference_repair_empty(ctr, centroids, final, dists)
        prev = inertia
    return centroids + mu, assign, trace


@st.composite
def labelled_points(draw, max_n=40, max_d=5, max_k=8, max_restarts=4):
    """Points (zeros of both signs included), k, and each of R restarts' in-range
    assignments, (R, n).

    k often exceeds the labels drawn, so some clusters are empty.
    """
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    k = draw(st.integers(1, max_k))
    restarts = draw(st.integers(1, max_restarts))
    points = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-100.0, 100.0)))
    assign = draw(hnp.arrays(np.int64, (restarts, n), elements=st.integers(0, k - 1)))
    return points, assign, k


def stacked_class_means(points, assign, fallback):
    block = np.empty((assign.shape[0], fallback.shape[1], points.shape[0]))
    return _class_means(points, assign, fallback, block)


def stacked_sq_dists(points, centroids):
    norms = np.einsum("ij,ij->i", points, points)
    block = np.empty((centroids.shape[0], centroids.shape[1], points.shape[0]))
    return _sq_dists(points, norms, centroids, block)


class TestKernelsBitIdentical:
    @settings(max_examples=80, deadline=None)
    @given(data=labelled_points(), seed=st.integers(0, 2**32 - 1))
    def test_class_means_match_one_hot_reference(self, data, seed):
        points, assign, k = data
        fallback = np.random.default_rng(seed).standard_normal((len(assign), k, points.shape[1]))
        means = stacked_class_means(points, assign, fallback)
        for r in range(len(assign)):
            expected = reference_class_means(points, assign[r], k, fallback[r])
            assert means[r].tobytes() == expected.tobytes()
            empty = np.bincount(assign[r], minlength=k) == 0
            assert means[r][empty].tobytes() == fallback[r][empty].tobytes()

    def test_class_means_match_one_hot_reference_at_embedding_width(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((3000, 128)) * 10
        assign = rng.integers(0, 14, (5, 3000))  # cluster 14 of 15 stays empty
        fallback = rng.standard_normal((5, 15, 128))
        means = stacked_class_means(points, assign, fallback)
        for r in range(5):
            expected = reference_class_means(points, assign[r], 15, fallback[r])
            assert means[r].tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=labelled_points(), seed=st.integers(0, 2**32 - 1))
    def test_sq_dists_with_precomputed_norms(self, data, seed):
        points, assign, k = data
        rng = np.random.default_rng(seed)
        centroids = rng.standard_normal((len(assign), k, points.shape[1])) * 50
        d2 = stacked_sq_dists(points, centroids)
        for r in range(len(assign)):
            assert d2[r].tobytes() == reference_sq_dists(points, centroids[r]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 3000),
        d=st.integers(1, 200),
        k=st.integers(1, 19),
        restarts=st.integers(1, 3),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5000, d=128, k=1, restarts=2, scale=1.0, seed=0)
    @example(n=5000, d=128, k=15, restarts=2, scale=1.0, seed=1)
    def test_sq_dists_match_doubled_points_form(self, n, d, k, restarts, scale, seed):
        """Doubling the centroids gives the bits of doubling the points, restart by restart."""
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, d)) * scale
        centroids = points[rng.integers(0, n, (restarts, k))]
        centroids += rng.standard_normal((restarts, k, d)) * scale
        d2 = stacked_sq_dists(points, centroids)
        for r in range(restarts):
            assert d2[r].tobytes() == reference_sq_dists(points, centroids[r]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        block=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 30)),
            elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]),  # ties everywhere
        )
    )
    def test_nearest_matches_argmin(self, block):
        assert np.array_equal(clustering._nearest(block), block.argmin(axis=1))

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
        empty = []

        def repair(ctr, norms, cents, d2, assign, which):
            empty.append((clustering._counts(assign, k) == 0).any())
            return real_repair(ctr, norms, cents, d2, assign, which)

        real_repair = clustering._repair_empty
        with mock.patch.object(clustering, "_repair_empty", side_effect=repair):
            result = lloyd_fit(points, init, max_iters=50)
        assert any(empty)
        centroids, assign, trace = reference_lloyd(points, init, max_iters=50)
        assert result.centroids.tobytes() == centroids.tobytes()
        assert np.array_equal(result.assignments, assign)
        assert result.inertia_trace == tuple(trace)
        assert result.inertia == trace[-1]


@st.composite
def float32_pools(draw):
    """float32 points with duplicate rows (often fewer distinct rows than k),
    at a scale from 1 down to 1e-15, some offset by 1e4; k and 1-4 restarts."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 6))
    distinct = draw(st.integers(1, n))
    base = draw(hnp.arrays(np.float32, (distinct, d), elements=st.floats(-1, 1, width=32)))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-8, 1e-15]))
    offset = draw(st.sampled_from([0.0, 1e4]))
    points = base[rows] * np.float32(scale) + np.float32(offset)
    return points, draw(st.integers(1, min(n, 8))), draw(st.integers(1, 4))


def float32_distances(points, centroids):
    """The squared distances in float64, ``(n, k)``, and per point how far
    float32 rounding can move them: the expanded distance's error on the
    centered points and centroids, underflow's, and the centroids' rounding
    when they are shifted back by the mean."""
    eps, sub = np.finfo(np.float32).eps, np.finfo(np.float32).smallest_subnormal
    x, c = points.astype(np.float64), centroids.astype(np.float64)
    mu = x.mean(axis=0)
    d = x.shape[1]
    d2 = ((x[:, None, :] - c[None]) ** 2).sum(axis=2)
    spread = ((x - mu) ** 2).sum(axis=1) + ((c - mu) ** 2).sum(axis=1).max()
    shift = 2 * eps * (np.sqrt(d2) * np.linalg.norm(c, axis=1)).max(axis=1)
    shift += (eps * c).max() ** 2 * d
    return d2, 2 * (4 * (d + 2) * (eps * spread + sub) + shift)


class TestFloat32:
    """float32 points are clustered in float32; any other input in float64."""

    @settings(max_examples=150, deadline=None)
    @given(problem=float32_pools(), seed=st.integers(0, 2**32 - 1))
    @example(problem=(np.zeros((17, 16), np.float32), 3, 4), seed=0)
    @example(problem=(np.full((9, 2), 1e4, np.float32), 4, 2), seed=1)
    def test_fit_stays_float32_and_keeps_its_checks(self, problem, seed):
        points, k, restarts = problem
        cfg = KMeansConfig(k=k, restarts=restarts, seed=seed, max_iters=50)
        fit = fit_with_restarts(points, cfg)  # an inertia rising past its slack raises
        trials = [
            lloyd_fit(points, kmeanspp_init(points, k, seed=seed + i), max_iters=50)
            for i in range(restarts)
        ]
        assert_same_clustering(fit, best_single(trials))  # lockstep holds in float32 too
        d = points.shape[1]
        norms = clustering.center(points)[2].sum(dtype=np.float64)
        eps, sub = np.finfo(np.float32).eps, np.finfo(np.float32).smallest_subnormal
        slack = 4 * (d + 2) * (eps * norms + len(points) * sub)  # lloyd_fit's own
        for result in trials:
            assert result.centroids.dtype == np.float32
            trace = result.inertia_trace
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + slack
            d2, error = float32_distances(points, result.centroids)
            mine = d2[np.arange(len(points)), result.assignments]
            assert (mine <= d2.min(axis=1) + error).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int32, np.float16])
    def test_other_points_are_clustered_in_float64(self, dtype):
        points = blobs([[0, 0], [10, 0], [0, 10]], n_per=10, noise=1.0, seed=0)[0].astype(dtype)
        init = kmeanspp_init(points, 3, seed=0)
        fit = fit_with_restarts(points, KMeansConfig(k=3, restarts=3))
        assert init.dtype == lloyd_fit(points, init).centroids.dtype == np.float64
        assert fit.centroids.dtype == np.float64
        wide = points.astype(np.float64)
        assert_same_clustering(fit, fit_with_restarts(wide, KMeansConfig(k=3, restarts=3)))

    def test_peak_memory_is_under_six_tenths_of_float64(self):
        # the float32 fit holds float32 centered points and a float32 block,
        # and makes no float64 copy of its points
        rng = np.random.default_rng(0)
        centers = 3.0 * rng.standard_normal((15, 128))
        wide = centers[rng.integers(15, size=5000)] + rng.standard_normal((5000, 128))
        narrow = wide.astype(np.float32)
        wide = narrow.astype(np.float64)  # the same values
        cfg = KMeansConfig(k=15, restarts=10, seed=0)
        peaks = []
        for points in (narrow, wide):
            tracemalloc.start()
            try:
                fit_with_restarts(points, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.6 * peaks[1]


def float32_blobs(n, d, k, seed=0):
    """n float32 points around k Gaussian centers in d dimensions."""
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((k, d))
    return (centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))).astype(np.float32)


class TestRestartRecord:
    @settings(max_examples=40, deadline=None)
    @given(problem=restart_problems(), seed=st.integers(0, 2**32 - 1))
    def test_each_restart_is_recorded_as_it_runs_alone(self, problem, seed):
        points, k, restarts = problem
        fit = fit_with_restarts(points, KMeansConfig(k=k, restarts=restarts, seed=seed))
        trials = [lloyd_fit(points, kmeanspp_init(points, k, seed=seed + i)) for i in range(restarts)]
        assert fit.restart_iterations.tolist() == [t.iterations_run for t in trials]
        assert fit.restart_inertias.tobytes() == np.array([t.inertia for t in trials]).tobytes()
        winner = int(np.argmin(fit.restart_inertias))  # ties go to the lowest sub-seed
        assert fit.restart_iterations[winner] == fit.iterations_run
        assert fit.restart_inertias[winner] == fit.inertia


# (n, restarts) of the workloads' Lloyd stacks: k=15 on 128-d float32 embeddings
WORKLOAD_STACKS = [(n, r) for n in (600, 1000, 5000) for r in (2, 5, 10)]


class TestFusedRestarts:
    """Where ``_fused`` holds, one GEMM over the stacked restarts gives each
    restart the bits of its own GEMM, under the default BLAS thread count."""

    @pytest.mark.parametrize("n,restarts", WORKLOAD_STACKS)
    def test_fused_products_have_the_stacked_bits(self, n, restarts):
        k, d = 15, 128
        rng = np.random.default_rng(n + restarts)
        _, ctr, norms = clustering.center(rng.standard_normal((n, d)).astype(np.float32))
        assert clustering._fused(ctr, k)
        cents = ctr[rng.integers(0, n, (restarts, k))]
        cents += rng.standard_normal((restarts, k, d)).astype(np.float32)
        doubled = -2.0 * cents
        stacked = np.matmul(doubled, ctr.T)
        fused = doubled.reshape(restarts * k, d) @ ctr.T
        assert fused.tobytes() == stacked.tobytes()
        expected = np.maximum((stacked + (cents * cents).sum(axis=2)[:, :, None]) + norms, 0.0)
        block = np.empty((restarts, k, n), np.float32)
        assert _sq_dists(ctr, norms, cents, block).tobytes() == expected.tobytes()

        assign = rng.integers(0, k, (restarts, n))
        onehot = np.zeros((restarts, k, n), np.float32)
        np.put_along_axis(onehot, assign[:, None, :], 1.0, axis=1)
        stacked = np.matmul(onehot, ctr)
        assert (onehot.reshape(restarts * k, n) @ ctr).tobytes() == stacked.tobytes()
        counts = np.stack([np.bincount(a, minlength=k) for a in assign])[:, :, None]
        expected = stacked / counts.astype(np.float32)  # 15 of n >= 600: no cluster is empty
        assert _class_means(ctr, assign, cents, block).tobytes() == expected.tobytes()

    def test_only_products_measured_to_keep_their_bits_are_fused(self):
        def fused(dtype, k, d, n):
            return clustering._fused(np.empty((n, d), dtype), k)

        assert fused(np.float32, 15, 128, 600)
        assert fused(np.float32, 2, 32, 15626)
        assert not fused(np.float64, 15, 128, 5000)  # float64 bits differ
        assert not fused(np.float32, 1, 128, 8000)  # k-means++'s one-centroid gemv
        assert not fused(np.float32, 15, 128, 520)  # 998,400 multiply-adds: the small kernel
        assert not fused(np.float32, 10, 100, 1000)  # exactly 1e6
        assert not fused(np.float32, 15, 31, 5000)
        assert not fused(np.float32, 15, 16, 5000)

    def test_fit_equals_best_single_restart(self):
        points = float32_blobs(1000, 128, 15)
        assert clustering._fused(points, 15)
        fit = fit_with_restarts(points, KMeansConfig(k=15, restarts=10, seed=3))
        trials = [lloyd_fit(points, kmeanspp_init(points, 15, seed=3 + r)) for r in range(10)]
        assert_same_clustering(fit, best_single(trials))
        for r, trial in enumerate(trials):  # every restart, not just the winner
            assert fit.restart_iterations[r] == trial.iterations_run
            assert np.float64(fit.restart_inertias[r]).tobytes() == np.float64(trial.inertia).tobytes()

    def test_seeding_stack_equals_single_seeds_past_the_small_kernel(self):
        # the one-centroid product (1 x 128 x 8000 multiply-adds) passes the
        # small-matrix bound, and still runs restart by restart
        points = float32_blobs(8000, 128, 15, seed=1)
        stack = kmeanspp_init(points, 15, seed=range(7, 12))
        assert stack.dtype == np.float32
        for r, one in enumerate(stack):
            assert one.tobytes() == kmeanspp_init(points, 15, seed=7 + r).tobytes()
