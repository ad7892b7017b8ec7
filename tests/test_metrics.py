from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classdisco.metrics import (
    FrozenCluster,
    cluster_accuracy,
    dataset_reconstruction_accuracy,
    plurality_label,
)


def plurality_oracle(values):
    """Explicit counting with ties to the lowest label; independent of production code."""
    counts = Counter(int(v) for v in values)
    best_count = max(counts.values())
    label = min(lbl for lbl, c in counts.items() if c == best_count)
    return label, best_count


def indicator_dra_oracle(ell, assignments, truths, frozen=()):
    """Per-point indicator sum: the paper-facing alternative route to DRA."""
    assignments = list(assignments)
    truths = list(truths)
    plur = {}
    for cid in set(assignments):
        members = [t for a, t in zip(assignments, truths) if a == cid]
        plur[cid], _ = plurality_oracle(members)
    correct = ell  # every human-labeled point scores correct
    for a, t in zip(assignments, truths):
        correct += int(t == plur[a])
    total = ell + len(assignments)
    for fc in frozen:
        for t in fc.true_labels:
            correct += int(int(t) == fc.plurality_label)
        total += fc.size
    return correct / total


def random_instance(rng):
    n = int(rng.integers(1, 41))
    k = int(rng.integers(1, 6))
    labels = int(rng.integers(1, 6))
    assignments = rng.integers(0, k, size=n)
    truths = rng.integers(0, labels, size=n)
    return assignments, truths


class TestClusterAccuracy:
    def test_six_nines_four_sevens(self):
        truths = np.array([9] * 6 + [7] * 4)
        mapping = cluster_accuracy(np.zeros(10, dtype=int), truths)
        row = mapping.clusters[0]
        assert row.mapped_label == 9
        assert row.accuracy == pytest.approx(0.6)
        assert row.overlap == 6

    def test_pure_cluster(self):
        mapping = cluster_accuracy(np.zeros(5, dtype=int), np.full(5, 3))
        assert mapping.clusters[0].accuracy == 1.0

    def test_plurality_tie_takes_lower_label(self):
        label, count = plurality_label([4, 4, 2, 2, 7])
        assert (label, count) == (2, 2)

    def test_matches_brute_force_on_small_instance(self):
        assignments = np.array([0, 0, 1, 1, 1, 2, 2, 2])
        truths = np.array([1, 1, 0, 0, 2, 2, 2, 1])
        mapping = cluster_accuracy(assignments, truths)
        for row in mapping.clusters:
            members = truths[assignments == row.cluster_id]
            label, count = plurality_oracle(members)
            assert row.mapped_label == label
            assert row.overlap == count

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        assignments, truths = random_instance(rng)
        mapping = cluster_accuracy(assignments, truths)
        assert sum(r.weight for r in mapping.clusters) == pytest.approx(1.0)

    def test_sample_order_invariant(self):
        rng = np.random.default_rng(1)
        assignments, truths = random_instance(rng)
        perm = rng.permutation(len(assignments))
        a = cluster_accuracy(assignments, truths)
        b = cluster_accuracy(assignments[perm], truths[perm])
        assert a.clusters == b.clusters

    def test_many_clusters_may_map_to_one_label(self):
        assignments = np.array([0, 0, 1, 1])
        truths = np.array([7, 7, 7, 7])
        mapping = cluster_accuracy(assignments, truths)
        assert [row.mapped_label for row in mapping.clusters] == [7, 7]
        assert all(row.accuracy == 1.0 for row in mapping.clusters)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cluster_accuracy(np.empty(0, dtype=int), np.empty(0, dtype=int))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cluster_accuracy(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestDatasetReconstructionAccuracy:
    def test_worked_formula_example(self):
        # ell=80, o=20, two clusters of 10 with accuracies 0.6 and 0.8
        assignments = np.array([0] * 10 + [1] * 10)
        truths = np.array([5] * 6 + [6] * 4 + [7] * 8 + [5] * 2)
        report = dataset_reconstruction_accuracy(80, assignments, truths)
        assert report.dra == pytest.approx(0.94, abs=1e-12)
        assert report.weighted_ood_accuracy == pytest.approx(0.7, abs=1e-12)
        assert report.o == 20
        assert report.n_total == 100

    def test_no_pool_gives_one(self):
        report = dataset_reconstruction_accuracy(50, np.empty(0, dtype=int), np.empty(0, dtype=int))
        assert report.dra == 1.0

    def test_pure_clusters_give_one(self):
        assignments = np.array([0, 0, 1, 1, 2, 2])
        truths = np.array([5, 5, 8, 8, 6, 6])
        report = dataset_reconstruction_accuracy(10, assignments, truths)
        assert report.dra == 1.0

    def test_matches_indicator_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            assignments, truths = random_instance(rng)
            ell = int(rng.integers(0, 100))
            report = dataset_reconstruction_accuracy(ell, assignments, truths)
            assert report.dra == indicator_dra_oracle(ell, assignments, truths)

    def test_frozen_clusters_keep_acceptance_labels(self):
        frozen = [
            FrozenCluster(plurality_label=7, true_labels=np.array([7, 7, 7, 5]), indices=np.array([0, 1, 2, 3])),
            FrozenCluster(plurality_label=9, true_labels=np.array([9, 9]), indices=np.array([4, 5])),
        ]
        assignments = np.array([0, 0, 0])
        truths = np.array([8, 8, 9])
        report = dataset_reconstruction_accuracy(
            10, assignments, truths, frozen=frozen, ood_indices=np.array([6, 7, 8])
        )
        # correct: 3 of 4 in first frozen, 2 of 2 in second, 2 of 3 in pool
        assert report.o == 9
        assert report.dra == pytest.approx((10 + 3 + 2 + 2) / 19)
        assert report.dra == indicator_dra_oracle(10, assignments, truths, frozen)

    def test_frozen_overlap_with_pool_rejected(self):
        frozen = [FrozenCluster(plurality_label=1, true_labels=np.array([1]), indices=np.array([2]))]
        with pytest.raises(ValueError, match="overlap"):
            dataset_reconstruction_accuracy(
                1, np.array([0]), np.array([1]), frozen=frozen, ood_indices=np.array([2])
            )

    def test_frozen_mutual_overlap_rejected(self):
        frozen = [
            FrozenCluster(plurality_label=1, true_labels=np.array([1]), indices=np.array([3])),
            FrozenCluster(plurality_label=2, true_labels=np.array([2]), indices=np.array([3])),
        ]
        with pytest.raises(ValueError, match="overlap"):
            dataset_reconstruction_accuracy(
                1, np.array([0]), np.array([1]), frozen=frozen, ood_indices=np.array([5])
            )

    def test_an_empty_frozen_cluster_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            FrozenCluster(plurality_label=1, true_labels=[])

    def test_routed_points_scored_by_prediction(self):
        report = dataset_reconstruction_accuracy(
            5,
            np.empty(0, dtype=int),
            np.empty(0, dtype=int),
            routed_predicted=np.array([1, 2, 3]),
            routed_true=np.array([1, 9, 9]),
        )
        assert report.o == 3
        assert report.routed_correct == 1
        assert report.dra == pytest.approx(6 / 8)

    def test_absent_routed_arrays_are_empty(self):
        frozen = (FrozenCluster(plurality_label=2, true_labels=np.array([2, 2, 3])),)
        args = (4, np.array([0, 0, 1]), np.array([1, 1, 2]), frozen)
        absent = dataset_reconstruction_accuracy(*args)
        empty = np.empty(0, dtype=np.int64)
        assert absent == dataset_reconstruction_accuracy(
            *args, routed_predicted=empty, routed_true=empty
        )
        assert absent.routed_total == absent.routed_correct == 0

    def test_cluster_renaming_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            assignments, truths = random_instance(rng)
            ids = np.unique(assignments)
            renamed = np.array([int(a) * 13 + 5 for a in assignments])
            a = dataset_reconstruction_accuracy(9, assignments, truths)
            b = dataset_reconstruction_accuracy(9, renamed, truths)
            assert a.dra == b.dra

    def test_monotone_in_cluster_accuracy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            assignments, truths = random_instance(rng)
            base = dataset_reconstruction_accuracy(5, assignments, truths)
            truths = np.array(truths)
            cid = int(assignments[0])
            members = np.flatnonzero(assignments == cid)
            plur, _ = plurality_oracle(truths[members])
            off = [i for i in members if truths[i] != plur]
            if not off:
                continue
            bumped = truths.copy()
            bumped[off[0]] = plur  # raises that cluster's accuracy, sizes unchanged
            improved = dataset_reconstruction_accuracy(5, assignments, bumped)
            assert improved.dra > base.dra

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            assignments, truths = random_instance(rng)
            ell = int(rng.integers(0, 30))
            report = dataset_reconstruction_accuracy(ell, assignments, truths)
            assert ell / report.n_total <= report.dra <= 1.0

    def test_nothing_to_score_rejected(self):
        with pytest.raises(ValueError, match="nothing to score"):
            dataset_reconstruction_accuracy(0, np.empty(0, dtype=int), np.empty(0, dtype=int))


@st.composite
def dra_instances(draw):
    """ell, pool assignments and truths, and frozen clusters with any acceptance label."""
    n = draw(st.integers(0, 30))
    assignments = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    truths = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    frozen = [
        FrozenCluster(plurality_label=label, true_labels=np.array(members, dtype=np.int64))
        for label, members in draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.lists(st.integers(0, 4), min_size=1, max_size=8)),
                max_size=3,
            )
        )
    ]
    ell = draw(st.integers(0 if n or frozen else 1, 50))
    return ell, np.array(assignments, dtype=np.int64), np.array(truths, dtype=np.int64), frozen


class TestDraForms:
    @settings(max_examples=200, deadline=None)
    @given(instance=dra_instances())
    def test_cluster_weighted_equals_per_point_exactly(self, instance):
        ell, assignments, truths, frozen = instance
        report = dataset_reconstruction_accuracy(ell, assignments, truths, frozen=frozen)
        assert report.dra == indicator_dra_oracle(ell, assignments, truths, frozen)
        # the weights cover the pool and the frozen clusters exactly once
        rows = report.clusters + report.frozen
        assert sum(c.size for c in rows) == report.o == report.n_total - ell

