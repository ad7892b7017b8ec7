import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classdisco.clustering import Clustering
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
        # once that class joins the problem
        points, labels = blobs([[0, 0], [9, 0]], n_per=25, noise=0.5, seed=8)
        existing, existing_labels = blobs([[0, 0]], n_per=25, noise=0.5, seed=9)
        alone = learnability_scores(points, labels, seed=1)
        crowded = learnability_scores(
            points, labels, seed=1, extra_classes=(existing, existing_labels)
        )
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
