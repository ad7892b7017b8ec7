import math
from collections import Counter

import numpy as np
import pytest

from classdisco.metrics import (
    FrozenCluster,
    cluster_accuracy,
    dataset_reconstruction_accuracy,
    nmi,
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


class TestNmi:
    def test_identical_is_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 2])
        assert nmi(labels, labels) == pytest.approx(1.0)

    def test_identical_up_to_renaming_is_one(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 3, 3, 9, 9])
        assert nmi(a, b) == pytest.approx(1.0)

    def test_independent_is_zero(self):
        # product construction: every (cluster, label) cell has identical count
        assignments = np.array([i % 2 for i in range(12)])
        labels = np.array([(i // 2) % 3 for i in range(12)])
        counts = np.zeros((2, 3))
        for a, l in zip(assignments, labels):
            counts[a, l] += 1
        assert (counts == 2).all()
        assert abs(nmi(assignments, labels)) < 1e-9

    def test_ten_point_hand_oracle(self):
        assignments = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        labels = np.array([0, 0, 1, 1, 1, 1, 2, 2, 2, 0])

        def entropy(values):
            _, counts = np.unique(values, return_counts=True)
            p = counts / len(values)
            return float(-(p * np.log(p)).sum())

        mi = 0.0
        n = len(assignments)
        for a in set(assignments.tolist()):
            for l in set(labels.tolist()):
                pij = np.mean((assignments == a) & (labels == l))
                if pij > 0:
                    pa = np.mean(assignments == a)
                    pl = np.mean(labels == l)
                    mi += pij * math.log(pij / (pa * pl))
        expected = mi / (0.5 * (entropy(assignments) + entropy(labels)))
        assert nmi(assignments, labels) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_single_cluster_is_zero(self):
        assert nmi(np.zeros(6, dtype=int), np.zeros(6, dtype=int)) == 0.0

    def test_range(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            assignments, truths = random_instance(rng)
            value = nmi(assignments, truths)
            assert 0.0 <= value <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            nmi(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_matches_add_at_contingency_table(self):
        def add_at_nmi(assignments, labels):
            _, u = np.unique(assignments, return_inverse=True)
            _, v = np.unique(labels, return_inverse=True)
            table = np.zeros((u.max() + 1, v.max() + 1))
            np.add.at(table, (u, v), 1.0)
            pij = table / len(assignments)
            pi, pj = pij.sum(axis=1), pij.sum(axis=0)
            nz = pij > 0
            mi = float((pij[nz] * np.log(pij[nz] / np.outer(pi, pj)[nz])).sum())
            hu = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
            hv = float(-(pj[pj > 0] * np.log(pj[pj > 0])).sum())
            denom = 0.5 * (hu + hv)
            return 0.0 if denom == 0.0 else min(1.0, max(0.0, mi / denom))

        rng = np.random.default_rng(11)
        for _ in range(50):
            assignments, truths = random_instance(rng)
            assert nmi(assignments, truths) == add_at_nmi(assignments, truths)
