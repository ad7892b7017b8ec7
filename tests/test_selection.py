import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from classdisco import learner, selection, seeds
from classdisco.clustering import Clustering
from classdisco.dataset import EXCLUDED, UNLABELED
from classdisco.learner import (
    AdamConfig,
    NetworkConfig,
    TrainingDivergedError,
    init_model,
    predict_proba,
    train_epochs,
)
from classdisco.selection import (
    ClusterFeatures,
    LearnabilityConfig,
    SelectionPolicy,
    density_score,
    learnability_scores,
    select,
)
from conftest import blobs


def features_row(cid, learn, size=10, density=1.0):
    return ClusterFeatures(cluster_id=cid, size=size, learnability=learn, density=density)


class TestLearnability:
    def test_separable_clusters_score_high(self):
        points, labels = blobs([[0, 0, 0, 0], [10, 0, 0, 0]], n_per=30, noise=0.5, seed=1)
        scores = learnability_scores(points, labels, seed=0)
        assert (scores > 0.95).all()

    def test_indistinguishable_split_scores_near_half(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((60, 4))
        per_cluster = [[], []]
        for seed in range(10):
            assignments = np.random.default_rng(500 + seed).integers(0, 2, size=60)
            if min(np.bincount(assignments)) < 5:
                continue
            scores = learnability_scores(points, assignments, seed=seed)
            per_cluster[0].append(scores[0])
            per_cluster[1].append(scores[1])
        for side in per_cluster:
            assert abs(float(np.mean(side)) - 0.5) <= 0.15

    def test_duplicated_points_score_one(self):
        points = np.concatenate([np.zeros((8, 2)), np.full((8, 2), 5.0)])
        assignments = np.array([0] * 8 + [1] * 8)
        scores = learnability_scores(points, assignments, seed=3)
        assert np.array_equal(scores, [1.0, 1.0])

    def test_relabeling_permutes_scores_exactly(self):
        points, labels = blobs([[0, 0], [6, 0], [0, 6]], n_per=12, noise=1.0, seed=4)
        base = learnability_scores(points, labels, seed=7)
        remap = {0: 5, 1: 0, 2: 9}
        relabeled = np.array([remap[int(a)] for a in labels])
        permuted = learnability_scores(points, relabeled, seed=7)
        # sorted new ids [0, 5, 9] correspond to old clusters [1, 0, 2]
        assert permuted[0] == base[1]
        assert permuted[1] == base[0]
        assert permuted[2] == base[2]

    def test_small_cluster_scores_zero(self):
        points, labels = blobs([[0, 0], [8, 0]], n_per=20, noise=0.5, seed=5)
        points = np.concatenate([points, [[0.0, 8.0], [0.2, 8.0], [0.1, 8.1]]])
        labels = np.concatenate([labels, [2, 2, 2]])  # 3 members: below the scoreable floor
        scores = learnability_scores(points, labels, seed=0)
        assert scores[2] == 0.0
        assert (scores[:2] > 0.9).all()

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            learnability_scores(np.zeros((10, 2)), np.zeros(10, dtype=int))

    def test_too_few_scoreable_rejected(self):
        points = np.zeros((8, 2))
        assignments = np.array([0] * 6 + [1, 1])  # one cluster of 6, one of 2
        with pytest.raises(ValueError, match="scoreable"):
            learnability_scores(points, assignments)

    def test_deterministic(self):
        points, labels = blobs([[0, 0], [5, 0]], n_per=15, noise=1.0, seed=6)
        a = learnability_scores(points, labels, seed=11)
        b = learnability_scores(points, labels, seed=11)
        assert np.array_equal(a, b)

    def test_existing_classes_as_distractors(self):
        # a cluster overlapping an established class stops being learnable
        # once that class joins the problem as labeled rows of the matrix
        points, assign = blobs([[0, 0], [9, 0]], n_per=25, noise=0.5, seed=8)
        existing, existing_labels = blobs([[0, 0]], n_per=25, noise=0.5, seed=9)
        shared = np.concatenate([points, existing])
        shared_labels = np.concatenate([np.full(len(points), UNLABELED), existing_labels])
        alone = learnability_scores(points, assign, seed=1)
        crowded = learnability_scores(shared, assign, seed=1, labels=shared_labels)
        assert alone[0] > 0.9
        assert crowded[0] < alone[0]
        assert crowded[1] > 0.9  # the far cluster is unaffected


class TestDensity:
    def test_singleton_cluster_zero(self):
        clustering = Clustering(
            centroids=np.array([[1.0, 1.0]]),
            assignments=np.array([0]),
            inertia=0.0,
            iterations_run=1,
        )
        assert density_score(np.array([[1.0, 1.0]]), clustering)[0] == 0.0

    def test_mean_of_member_distances(self):
        clustering = Clustering(
            centroids=np.array([[0.0, 0.0]]),
            assignments=np.array([0, 0]),
            inertia=10.0,
            iterations_run=1,
        )
        embeddings = np.array([[1.0, 0.0], [-3.0, 0.0]])  # distances 1 and 3
        assert density_score(embeddings, clustering)[0] == pytest.approx(2.0)

    def test_tight_blob_denser_than_diffuse(self):
        rng = np.random.default_rng(7)
        tight = rng.standard_normal((40, 3)) * 0.2
        diffuse = rng.standard_normal((40, 3)) * 3.0 + [20, 0, 0]
        points = np.concatenate([tight, diffuse])
        assignments = np.array([0] * 40 + [1] * 40)
        centroids = np.stack([tight.mean(0), diffuse.mean(0)])
        clustering = Clustering(
            centroids=centroids, assignments=assignments, inertia=0.0, iterations_run=1
        )
        dens = density_score(points, clustering)
        assert dens[0] < dens[1]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_add_at_form(self, n, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, 3)) * 10
        assignments = rng.integers(0, k, n)  # some clusters may stay empty
        centroids = rng.standard_normal((k, 3))
        clustering = Clustering(
            centroids=centroids, assignments=assignments, inertia=0.0, iterations_run=1
        )
        dists = np.linalg.norm(points - centroids[assignments], axis=1)
        totals = np.zeros(k)
        np.add.at(totals, assignments, dists)
        counts = np.bincount(assignments, minlength=k)
        expected = np.zeros(k)
        expected[counts > 0] = totals[counts > 0] / counts[counts > 0]
        assert density_score(points, clustering).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 90),
        d=st.integers(1, 40),
        k=st.integers(1, 8),
        block=st.integers(1, 32),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_blocks_match_the_whole_matrix_form(self, n, d, k, block, dtype, seed):
        """Blocks of any size, and float32 or float64 embeddings against the
        float32 centroids k-means returns, give the whole-matrix bits."""
        rng = np.random.default_rng(seed)
        points = (rng.standard_normal((n, d)) * 10).astype(dtype)
        assignments = rng.integers(0, k, n)
        centroids = rng.standard_normal((k, d)).astype(np.float32)
        clustering = Clustering(
            centroids=centroids, assignments=assignments, inertia=0.0, iterations_run=1
        )
        dists = np.linalg.norm(points.astype(np.float64) - centroids[assignments], axis=1)
        totals = np.bincount(assignments, weights=dists, minlength=k)
        counts = np.bincount(assignments, minlength=k)
        expected = np.zeros(k)
        expected[counts > 0] = totals[counts > 0] / counts[counts > 0]
        with mock.patch.object(selection, "_BLOCK_ROWS", block):
            assert density_score(points, clustering).tobytes() == expected.tobytes()

    def test_peaks_below_one_float64_copy_of_the_embeddings(self):
        import tracemalloc

        rng = np.random.default_rng(3)
        embeddings = rng.standard_normal((5000, 128), dtype=np.float32)
        clustering = Clustering(
            centroids=rng.standard_normal((15, 128), dtype=np.float32),
            assignments=rng.integers(0, 15, 5000),
            inertia=0.0,
            iterations_run=1,
        )
        density_score(embeddings, clustering)  # also the first-call imports
        tracemalloc.start()
        try:
            density_score(embeddings, clustering)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < embeddings.size * np.dtype(np.float64).itemsize

    @staticmethod
    def _norm_density(embeddings, clustering, block_rows):
        """The earlier ``density_score``: ``np.linalg.norm`` over each block's
        float64 difference, which also holds its ``conj`` and product."""
        pts = np.asarray(embeddings)
        assign, k = clustering.assignments, clustering.k
        dists = np.empty(len(assign))
        for start in range(0, len(assign), block_rows):
            block = slice(start, start + block_rows)
            diff = pts[block].astype(np.float64) - clustering.centroids[assign[block]]
            dists[block] = np.linalg.norm(diff, axis=1)
        totals = np.bincount(assign, weights=dists, minlength=k)
        counts = np.bincount(assign, minlength=k)
        out = np.zeros(k)
        out[counts > 0] = totals[counts > 0] / counts[counts > 0]
        return out

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2100),
        d=st.integers(1, 300),
        k=st.integers(1, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        centroid_dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_linalg_norm_form(self, n, d, k, dtype, centroid_dtype, seed):
        """Bit for bit, in blocks of the real size, and for a Fortran-ordered
        copy of the same points too."""
        rng = np.random.default_rng(seed)
        points = (rng.standard_normal((n, d)) * 10).astype(dtype)
        clustering = Clustering(
            centroids=rng.standard_normal((k, d)).astype(centroid_dtype),
            assignments=rng.integers(0, k, n),
            inertia=0.0,
            iterations_run=1,
        )
        expected = self._norm_density(points, clustering, selection._BLOCK_ROWS).tobytes()
        assert density_score(points, clustering).tobytes() == expected
        assert density_score(np.asfortranarray(points), clustering).tobytes() == expected

    @pytest.mark.parametrize("centroid_dtype", [np.float32, np.float64])
    def test_peaks_at_one_block_and_its_centroids(self, centroid_dtype):
        # one block's float64 cast, which becomes its difference, and its
        # gathered centroids; the earlier form also held norm's conj copy
        # and the previous block's difference while casting the next
        import tracemalloc

        rng = np.random.default_rng(4)
        embeddings = rng.standard_normal((5000, 128), dtype=np.float32)
        clustering = Clustering(
            centroids=rng.standard_normal((15, 128)).astype(centroid_dtype),
            assignments=rng.integers(0, 15, len(embeddings)),
            inertia=0.0,
            iterations_run=1,
        )
        density_score(embeddings, clustering)  # also the first-call imports
        tracemalloc.start()
        try:
            density_score(embeddings, clustering)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = selection._BLOCK_ROWS * 128
        gathered = block * np.dtype(centroid_dtype).itemsize
        assert peak <= block * np.dtype(np.float64).itemsize + gathered + 2**18


class TestSelect:
    def test_learnability_argmax(self):
        rows = [features_row(0, 0.6), features_row(1, 0.95), features_row(2, 0.7)]
        assert select(rows, SelectionPolicy(kind="learnability")) == 1

    def test_learnability_tie_prefers_larger_then_lower_id(self):
        rows = [features_row(0, 0.9, size=10), features_row(1, 0.9, size=20)]
        assert select(rows, SelectionPolicy(kind="learnability")) == 1
        rows = [features_row(2, 0.9, size=10), features_row(0, 0.9, size=10)]
        assert select(rows, SelectionPolicy(kind="learnability")) == 0

    def test_learnability_order_invariant(self):
        rows = [
            features_row(3, 0.7, size=5),
            features_row(1, 0.9, size=9),
            features_row(0, 0.9, size=9),
            features_row(2, 0.2, size=30),
        ]
        import itertools

        picks = {
            select(list(perm), SelectionPolicy(kind="learnability"))
            for perm in itertools.permutations(rows)
        }
        assert picks == {0}

    def test_threshold_returns_passing_set(self):
        rows = [features_row(0, 0.99), features_row(1, 0.96), features_row(2, 0.80)]
        out = select(rows, SelectionPolicy(kind="threshold", min_accuracy=0.95))
        assert out == 0

    def test_threshold_strict_inequality_and_empty(self):
        rows = [features_row(0, 0.95), features_row(1, 0.80)]
        assert select(rows, SelectionPolicy(kind="threshold", min_accuracy=0.95)) is None

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from([0.5, 0.9, 0.95, 0.96, 1.0]), st.integers(1, 4)),
            min_size=1,
            max_size=8,
        ),
        min_accuracy=st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0]),
    )
    def test_threshold_is_the_passing_sets_learnability_pick(self, rows, min_accuracy):
        features = [features_row(i, learn, size=size) for i, (learn, size) in enumerate(rows)]
        passing = [f for f in features if f.learnability > min_accuracy]
        expected = select(passing, SelectionPolicy(kind="learnability")) if passing else None
        policy = SelectionPolicy(kind="threshold", min_accuracy=min_accuracy)
        assert select(features, policy) == expected

    def test_random_deterministic(self):
        rows = [features_row(i, 0.5) for i in range(6)]
        picks = {select(rows, SelectionPolicy(kind="random", seed=13)) for _ in range(5)}
        assert len(picks) == 1

    def test_random_varies_with_seed(self):
        rows = [features_row(i, 0.5) for i in range(10)]
        picks = {select(rows, SelectionPolicy(kind="random", seed=s)) for s in range(20)}
        assert len(picks) > 1

    def test_density_argmin(self):
        rows = [
            features_row(0, 0.5, density=2.0),
            features_row(1, 0.5, density=0.5),
            features_row(2, 0.5, density=1.0),
        ]
        assert select(rows, SelectionPolicy(kind="density")) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no clusters"):
            select([], SelectionPolicy(kind="learnability"))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            SelectionPolicy(kind="best")


def test_density_rank_correlation_reported():
    """Density vs true cluster accuracy on synthetic candidates: reported, not asserted."""
    rng = np.random.default_rng(9)
    densities, accuracies = [], []
    for trial in range(12):
        spread = float(rng.uniform(0.3, 3.0))
        center = rng.standard_normal(4) * 10
        members = center + spread * rng.standard_normal((30, 4))
        purity = float(rng.uniform(0.5, 1.0))
        densities.append(float(np.linalg.norm(members - members.mean(0), axis=1).mean()))
        accuracies.append(purity)

    def ranks(v):
        order = np.argsort(v)
        out = np.empty(len(v))
        out[order] = np.arange(len(v))
        return out

    rd, ra = ranks(densities), ranks(accuracies)
    corr = float(np.corrcoef(rd, ra)[0, 1])
    print(f"density/accuracy rank correlation on synthetic candidates: {corr:.3f}")
    assert np.isfinite(corr)


def test_learnability_config_validation():
    with pytest.raises(ValueError):
        LearnabilityConfig(holdout_fraction=0.0)
    with pytest.raises(ValueError):
        LearnabilityConfig(holdout_fraction=1.0)
    with pytest.raises(ValueError):
        LearnabilityConfig(epochs=0)
    with pytest.raises(ValueError, match="hidden layer"):
        LearnabilityConfig(hidden_dims=())
    with pytest.raises(ValueError, match="hidden dims"):
        LearnabilityConfig(hidden_dims=(0,))


def reference_learnability_scores(features, assignments, cfg, seed, extra_classes=None):
    """The per-cluster-copy form of ``learnability_scores``: each class's rows are
    copied, permuted and concatenated, with the same RNG draws in the same order,
    and the model is built in the scorer's dtype."""
    x = np.asarray(features, dtype=np.float64)
    assign = np.asarray(assignments, dtype=np.int64)
    ids, first_member, dense = np.unique(assign, return_index=True, return_inverse=True)
    sizes = np.bincount(dense)
    scoreable = np.flatnonzero(sizes >= selection.MIN_SCOREABLE_SIZE)
    canon_order = scoreable[np.argsort(first_member[scoreable], kind="stable")]

    rng = seeds.spawn(seed)
    train_x, train_lbl, hold_x, hold_lbl = [], [], [], []

    def split_class(rows, label):
        n_hold = max(1, int(np.floor(cfg.holdout_fraction * len(rows))))
        perm = rng.permutation(len(rows))
        hold_x.append(rows[perm[:n_hold]])
        hold_lbl.append(np.full(n_hold, label, dtype=np.int64))
        train_x.append(rows[perm[n_hold:]])
        train_lbl.append(np.full(len(rows) - n_hold, label, dtype=np.int64))

    for canon, pos in enumerate(canon_order):
        split_class(x[np.flatnonzero(dense == pos)], canon)
    n_classes = len(canon_order)
    if extra_classes is not None:
        ex_x = np.asarray(extra_classes[0], dtype=np.float64)
        ex_y = np.asarray(extra_classes[1], dtype=np.int64)
        for extra_label in np.unique(ex_y):
            rows = ex_x[ex_y == extra_label]
            if len(rows) < 2:
                continue
            split_class(rows, n_classes)
            n_classes += 1

    tr_x, tr_y = np.concatenate(train_x), np.concatenate(train_lbl)
    ho_x, ho_y = np.concatenate(hold_x), np.concatenate(hold_lbl)
    net = NetworkConfig(input_dim=x.shape[1], output_classes=n_classes, hidden_dims=cfg.hidden_dims)
    sub_seed = int(rng.integers(2**32))
    model = init_model(net, seed=sub_seed, dtype=learner.TRAIN_DTYPE)
    adam = AdamConfig(batch_size=min(32, len(tr_y)), seed=sub_seed)
    batches_per_epoch = -(-len(tr_y) // adam.batch_size)
    run_epochs = max(cfg.epochs, -(-selection._MIN_SCORER_UPDATES // batches_per_epoch))
    model = train_epochs(model, tr_x, tr_y, adam, epochs=run_epochs)
    preds = predict_proba(model, ho_x).argmax(axis=1)
    scores = np.zeros(len(ids))
    for canon, pos in enumerate(canon_order):
        scores[pos] = float(np.mean(preds[ho_y == canon] == canon))
    return scores


class TestLearnabilityRelabeling:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(10, 40),
        dim=st.integers(1, 4),
        old_ids=st.lists(st.integers(0, 30), min_size=2, max_size=5, unique=True),
        new_ids=st.permutations(range(60)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relabeling_permutes_scores_exactly(self, n, dim, old_ids, new_ids, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim))
        assign = rng.choice(old_ids, size=n)
        ids, sizes = np.unique(assign, return_counts=True)
        assume(len(ids) >= 2 and (sizes >= selection.MIN_SCOREABLE_SIZE).sum() >= 2)
        relabel = dict(zip(ids.tolist(), new_ids))  # injective: a permutation's prefix
        relabeled = np.array([relabel[a] for a in assign.tolist()])
        cfg = LearnabilityConfig(hidden_dims=(3,), epochs=1)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 40):
            base = learnability_scores(x, assign, cfg, seed=seed % 1000)
            moved = learnability_scores(x, relabeled, cfg, seed=seed % 1000)
        new_order = np.unique(relabeled)
        for old_pos, old_id in enumerate(ids.tolist()):
            new_pos = int(np.searchsorted(new_order, relabel[old_id]))
            assert moved[new_pos].tobytes() == base[old_pos].tobytes()


class TestLearnabilityGather:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(10, 50),
        dim=st.integers(1, 5),
        id_pool=st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True),
        extra_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        holdout_fraction=st.sampled_from([0.2, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=20, dim=3, id_pool=[7, 2], extra_sizes=[1, 6], holdout_fraction=0.2, seed=0)
    def test_scores_equal_the_per_cluster_copy_form(
        self, n, dim, id_pool, extra_sizes, holdout_fraction, seed
    ):
        """Each of the engine's four calling shapes (use_embeddings and
        include_existing on or off) gives the reference's bytes."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim))
        assign = rng.choice(id_pool, size=n)
        ex_y = np.repeat(np.arange(len(extra_sizes)), extra_sizes)
        extra = (rng.standard_normal((len(ex_y), dim)), rng.permutation(ex_y))
        cfg = LearnabilityConfig(holdout_fraction=holdout_fraction, hidden_dims=(3,), epochs=1)
        ids, sizes = np.unique(assign, return_counts=True)
        assume(len(ids) >= 2 and (sizes >= selection.MIN_SCOREABLE_SIZE).sum() >= 2)
        # the raw features as the engine passes them: one shared matrix read
        # by row index, pool rows in any order, distractors in their order,
        # and unlabeled filler rows between them
        placed = rng.permutation(n + len(ex_y) + 7)
        shared = rng.standard_normal((len(placed), dim))
        shared_labels = np.full(len(placed), UNLABELED)
        shared[placed[:n]] = x
        extra_rows = np.sort(placed[n : n + len(ex_y)])
        shared[extra_rows], shared_labels[extra_rows] = extra
        scorer_seed = seed % 1000
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 40):
            for include_existing in (False, True):
                want = reference_learnability_scores(
                    x, assign, cfg, scorer_seed, extra if include_existing else None
                )
                # use_embeddings: the pool's embeddings whole, with the labeled
                # rows' embeddings stacked under them when they are distractors
                stacked, stacked_labels = x, None
                if include_existing:
                    stacked = np.concatenate([x, extra[0]])
                    stacked_labels = np.concatenate([np.full(n, UNLABELED), extra[1]])
                embedded = learnability_scores(
                    stacked, assign, cfg, seed=scorer_seed, labels=stacked_labels
                )
                by_row = learnability_scores(
                    shared,
                    assign,
                    cfg,
                    seed=scorer_seed,
                    labels=shared_labels if include_existing else None,
                    rows=placed[:n],
                )
                assert embedded.tobytes() == want.tobytes()
                assert by_row.tobytes() == want.tobytes()

    def test_distractors_overlapping_the_pool_match_a_separate_copy(self):
        # every pool row is also a labeled distractor row of the same matrix,
        # so one row belongs to two classes: reading it twice by index gives
        # the same bits as reading it from a separate copy
        points, labels = blobs([[0, 0], [6, 0], [0, 6]], n_per=12, noise=1.0, seed=4)
        assign = labels % 2
        cfg = LearnabilityConfig(hidden_dims=(3,), epochs=1)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 40):
            got = learnability_scores(points, assign, cfg, seed=5, labels=labels)
            want = reference_learnability_scores(points, assign, cfg, 5, (points.copy(), labels))
        assert got.tobytes() == want.tobytes()

    def test_excluded_rows_are_not_a_distractor_class(self):
        # rows outside the run (EXCLUDED) are left out like pool rows
        points, labels = blobs([[0, 0], [6, 0], [0, 6], [6, 6]], n_per=12, noise=1.0, seed=4)
        pool = np.flatnonzero(labels >= 2)
        shared_labels = np.where(labels < 2, labels, UNLABELED)
        outside = shared_labels.copy()
        outside[[0, 1, 12, 13]] = EXCLUDED
        marked = shared_labels.copy()
        marked[[0, 1, 12, 13]] = UNLABELED
        cfg = LearnabilityConfig(hidden_dims=(3,), epochs=1)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 40):
            got = learnability_scores(
                points, labels[pool] - 2, cfg, seed=5, labels=outside, rows=pool
            )
            want = learnability_scores(
                points, labels[pool] - 2, cfg, seed=5, labels=marked, rows=pool
            )
        assert got.tobytes() == want.tobytes()

    def test_duplicate_rows_rejected(self):
        x = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match="distinct"):
            learnability_scores(x, np.repeat([0, 1], 6), rows=[*range(11), 3])
        with pytest.raises(ValueError, match="distinct"):  # checked before the cluster count
            learnability_scores(x, np.zeros(6, dtype=int), rows=[*range(5), 3])

    def test_trains_without_copying_its_rows(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        shared = rng.standard_normal((2000, 128))
        shared.flags.writeable = False  # as the engine's Dataset holds it
        pool = np.arange(1, 2000, 2)
        assign = np.repeat(np.arange(4), 250)
        cfg = LearnabilityConfig(hidden_dims=(4,), epochs=1)
        train_rows_nbytes = (1 - cfg.holdout_fraction) * len(pool) * shared.shape[1] * 8
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 10):
            learnability_scores(shared, assign, cfg, seed=0, rows=pool)  # first-call imports
            tracemalloc.start()
            try:
                learnability_scores(shared, assign, cfg, seed=0, rows=pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < train_rows_nbytes

    def test_distractors_in_the_pool_are_read_without_copying_the_matrix(self):
        import tracemalloc

        # raw features with include_existing: every pool row is also a labeled
        # row, and both classes are read by row index from the one matrix
        rng = np.random.default_rng(0)
        shared = rng.standard_normal((2000, 128))
        shared.flags.writeable = False  # as the engine's Dataset holds it
        labels = np.arange(2000) % 3
        pool = np.arange(1, 2000, 2)
        assign = np.repeat(np.arange(4), 250)
        cfg = LearnabilityConfig(hidden_dims=(4,), epochs=1)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 10):
            learnability_scores(shared, assign, cfg, seed=0, labels=labels, rows=pool)
            tracemalloc.start()
            try:
                learnability_scores(shared, assign, cfg, seed=0, labels=labels, rows=pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < shared.nbytes


class TestLearnabilityFloat32:
    def test_model_workspace_and_activations_stay_float32(self):
        """Every array the scorer's model computes with is float32, from init to prediction."""
        points, labels = blobs([[0, 0], [6, 0], [0, 6]], n_per=20, noise=1.0, seed=4)
        seen = {}

        def recorder(name):
            real = getattr(learner, name)

            def record(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.setdefault(name, []).append((args, out))
                return out

            return record

        names = ("init_model", "_workspace", "loss_and_gradients", "_adam_update", "_dense_relu")
        with contextlib.ExitStack() as stack:
            for name in names:
                stack.enter_context(mock.patch.object(learner, name, recorder(name)))
            stack.enter_context(mock.patch.object(selection, "init_model", learner.init_model))
            stack.enter_context(
                mock.patch.object(selection, "predict_proba", recorder("predict_proba"))
            )
            stack.enter_context(mock.patch.object(selection, "_MIN_SCORER_UPDATES", 40))
            learnability_scores(points, labels, LearnabilityConfig(epochs=1), seed=5)

        f32 = np.dtype(np.float32)
        assert set(seen) == {*names, "predict_proba"}
        for _, model in seen["init_model"]:
            assert {model.flat_params.dtype, model.flat_m.dtype, model.flat_v.dtype} == {f32}
        for _, (work, grads) in seen["_workspace"]:
            assert {work.dtype, *(g.dtype for g in grads)} == {f32}
        for (model, x, _, _), (loss, grads) in seen["loss_and_gradients"]:
            assert {model.flat_params.dtype, x.dtype, *(g.dtype for g in grads)} == {f32}
        for (model, work, _), _ in seen["_adam_update"]:
            assert {model.flat_params.dtype, model.flat_m.dtype, work.dtype} == {f32}
        for (h, W, b, *_), out in seen["_dense_relu"]:
            assert {h.dtype, W.dtype, b.dtype, out.dtype} == {f32}
        assert [out.dtype for _, out in seen["predict_proba"]] == [f32]

    def test_non_finite_held_out_prediction_raises(self):
        """A feature that overflows float32 in a held-out row fails the call,
        instead of scoring its cluster through an argmax over NaN."""
        points, labels = blobs([[0, 0], [6, 0], [0, 6]], n_per=20, noise=1.0, seed=4)
        cfg = LearnabilityConfig(epochs=1)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 40):
            with mock.patch.object(
                selection, "predict_proba", wraps=selection.predict_proba
            ) as spy:
                clean = learnability_scores(points, labels, cfg, seed=5)
            held = spy.call_args.kwargs["rows"]
            # the split depends on the partition and the seed alone, so the
            # poisoned row is held out again
            poisoned = points.copy()
            poisoned[held[0], 0] = 1e308
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDivergedError, match=f"row {held[0]} of features"
            ):
                learnability_scores(poisoned, labels, cfg, seed=5)
        assert np.isfinite(clean).all()


    @pytest.mark.parametrize("distractors", [False, True])
    def test_float32_features_score_as_their_float64_widening(self, distractors):
        """A float32 matrix is read as it is; its float64 widening holds the
        same values, so every batch the scorer casts, and every score, is the
        same."""
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((400, 16)).astype(np.float32)
        rows = rng.permutation(400)[:300]
        assign = rng.integers(4, size=300)
        labels = rng.integers(-1, 3, size=400) if distractors else None
        cfg = LearnabilityConfig(hidden_dims=(8,), epochs=2)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 60):
            narrow, wide = (
                learnability_scores(x, assign, cfg, seed=7, labels=labels, rows=rows)
                for x in (feats, feats.astype(np.float64))
            )
        assert narrow.tobytes() == wide.tobytes()

    def test_float32_embeddings_are_scored_without_a_float64_copy(self):
        import tracemalloc

        # the engine's use_embeddings input: 5000 float32 pool embeddings
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((5000, 128)).astype(np.float32)
        assign = rng.integers(15, size=5000)
        cfg = LearnabilityConfig(epochs=1)
        with mock.patch.object(selection, "_MIN_SCORER_UPDATES", 10):
            learnability_scores(emb, assign, cfg, seed=0)  # first-call imports
            tracemalloc.start()
            try:
                learnability_scores(emb, assign, cfg, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < emb.size * 8  # one float64 copy of the embeddings


class TestLearnabilityInputs:
    @pytest.mark.parametrize("n_labels", [50, 301])
    def test_labels_must_have_one_per_feature_row(self, n_labels):
        x = np.random.default_rng(0).standard_normal((300, 2))
        labels = np.zeros(n_labels, dtype=np.int64)
        with pytest.raises(ValueError, match=f"{n_labels} labels for 300 rows of features"):
            learnability_scores(x, np.repeat([0, 1, 2], 10), labels=labels, rows=range(30))

    def test_rows_must_have_one_per_assignment(self):
        x = np.random.default_rng(0).standard_normal((300, 2))
        with pytest.raises(ValueError, match="29 rows for 30 assignments"):
            learnability_scores(x, np.repeat([0, 1, 2], 10), rows=range(29))

    @pytest.mark.parametrize("bad", [-1, 300])
    def test_a_row_of_an_unscoreable_cluster_is_checked(self, bad):
        x = np.random.default_rng(0).standard_normal((300, 2))
        assignments = np.repeat([0, 1, 2], [10, 10, 2])  # cluster 2 is below the scoreable size
        with pytest.raises(ValueError, match=f"^row {bad} is outside the 300 rows of features$"):
            learnability_scores(x, assignments, rows=[*range(21), bad])
