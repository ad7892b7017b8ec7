import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from classdisco.dataset import PROV_HUMAN, Dataset
from classdisco.learner import AdamConfig, NetworkConfig, init_model, train_epochs
from classdisco.ood import OodDetector, calibrate, max_confidences, partition


def confidence_model():
    """Maps a non-negative scalar x to logits (x, 0), so max prob = 1/(1+exp(-x))."""
    model = init_model(NetworkConfig(input_dim=1, output_classes=2, hidden_dims=(1,)), seed=0)
    model.weights[0][:] = [[1.0]]
    model.weights[1][:] = [[1.0, 0.0]]
    for b in model.biases:
        b[:] = 0.0
    return model


def features_for_confidences(conf):
    c = np.asarray(conf, dtype=np.float64)
    return np.log(c / (1.0 - c)).reshape(-1, 1)


def as_dataset(features):
    n = len(features)
    return Dataset(
        features=features,
        labels=np.zeros(n, dtype=np.int64),
        true_labels=np.zeros(n, dtype=np.int64),
        provenance=np.full(n, PROV_HUMAN, dtype=np.int64),
        n_classes_visible=2,
    )


def sort_oracle(confidences, q):
    """Independent route: explicit sort and floor-index into the order statistics."""
    ordered = sorted(float(c) for c in confidences)
    idx = math.floor((1.0 - q) * (len(ordered) - 1))
    return ordered[idx]


class TestCalibrate:
    def test_matches_sort_oracle_on_distinct_values(self):
        model = confidence_model()
        rng = np.random.default_rng(11)
        conf = rng.uniform(0.55, 0.999, size=100)
        feats = features_for_confidences(conf)
        det = calibrate(model, as_dataset(feats), q=0.95)
        actual = max_confidences(model, feats)
        assert det.threshold == sort_oracle(actual, 0.95)
        # 100 distinct values at q=0.95: the threshold is the 5th smallest
        assert det.threshold == sorted(actual)[4]
        assert det.quantile == 0.95
        assert det.calibration_size == 100

    def test_ninety_five_percent_above_080(self):
        model = confidence_model()
        conf = np.concatenate([[0.55, 0.60, 0.65, 0.70, 0.80], np.linspace(0.81, 0.99, 95)])
        feats = features_for_confidences(conf)
        det = calibrate(model, as_dataset(feats), q=0.95)
        assert det.threshold == pytest.approx(0.80, abs=1e-12)
        actual = max_confidences(model, feats)
        assert (actual >= det.threshold).mean() >= 0.95

    def test_all_confidences_one(self):
        model = confidence_model()
        feats = np.full((20, 1), 800.0)  # exp(-800) underflows, max prob is exactly 1.0
        det = calibrate(model, as_dataset(feats), q=0.95)
        assert det.threshold == 1.0

    def test_empty_calibration_rejected(self):
        model = confidence_model()
        empty = as_dataset(np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            calibrate(model, empty, q=0.95)

    def test_quantile_bounds(self):
        model = confidence_model()
        data = as_dataset(np.ones((5, 1)))
        for bad_q in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                calibrate(model, data, q=bad_q)

    def test_calibration_guarantee(self):
        """On the calibration set itself, >= q - 1/n of points are in-distribution."""
        model = confidence_model()
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(5, 400))
            conf = rng.uniform(0.51, 0.999, size=n)
            if trial % 3 == 0:
                conf = np.clip(np.round(conf, 2), 0.51, 0.99)  # force ties
            q = float(rng.uniform(0.05, 0.99))
            data = as_dataset(features_for_confidences(conf))
            det = calibrate(model, data, q=q)
            part = partition(det, model, data)
            frac_in = len(part.in_dist_indices) / n
            assert frac_in >= q - 1.0 / n - 1e-12


class TestPartition:
    def test_threshold_zero_flags_nothing(self):
        model = confidence_model()
        data = as_dataset(features_for_confidences(np.linspace(0.51, 0.99, 50)))
        det = OodDetector(threshold=0.0, quantile=0.5, calibration_size=50)
        part = partition(det, model, data)
        assert len(part.ood_indices) == 0
        assert len(part.in_dist_indices) == 50

    def test_threshold_one_flags_everything_when_probs_below_one(self):
        model = confidence_model()
        data = as_dataset(features_for_confidences(np.linspace(0.51, 0.99, 50)))
        det = OodDetector(threshold=1.0, quantile=0.5, calibration_size=50)
        part = partition(det, model, data)
        assert len(part.ood_indices) == 50

    def test_exhaustive_and_disjoint(self):
        model = confidence_model()
        rng = np.random.default_rng(3)
        data = as_dataset(features_for_confidences(rng.uniform(0.51, 0.99, size=80)))
        det = OodDetector(threshold=0.8, quantile=0.9, calibration_size=80)
        part = partition(det, model, data)
        merged = np.sort(np.concatenate([part.in_dist_indices, part.ood_indices]))
        assert np.array_equal(merged, np.arange(80))

    @settings(max_examples=100, deadline=None)
    @given(
        features=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.just(3)),
            elements=st.floats(-50.0, 50.0),
        ),
        # confidences lie in [1/4, 1]; the edge values are drawn on purpose
        threshold=st.floats(0.0, 1.0) | st.sampled_from([math.nan, math.inf, -math.inf, 0.25]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exhaustive_and_disjoint_at_any_threshold(self, features, threshold, seed):
        net = NetworkConfig(input_dim=3, output_classes=4, hidden_dims=(5,))
        model = init_model(net, seed=seed)
        det = OodDetector(threshold=threshold, quantile=0.95, calibration_size=1)
        part = partition(det, model, as_dataset(features))
        n = len(features)
        assert len(part.in_dist_indices) + len(part.ood_indices) == n
        merged = np.sort(np.concatenate([part.in_dist_indices, part.ood_indices]))
        assert np.array_equal(merged, np.arange(n))
        assert len(part.in_dist_labels) == len(part.in_dist_indices)
        assert ((part.in_dist_labels >= 0) & (part.in_dist_labels < 4)).all()

    def test_tie_goes_in_distribution(self):
        model = confidence_model()
        conf = np.array([0.8])
        data = as_dataset(features_for_confidences(conf))
        tau = float(max_confidences(model, data.features)[0])
        det = OodDetector(threshold=tau, quantile=0.9, calibration_size=1)
        part = partition(det, model, data)
        assert len(part.in_dist_indices) == 1

    def test_raising_threshold_never_shrinks_ood(self):
        model = confidence_model()
        rng = np.random.default_rng(5)
        data = as_dataset(features_for_confidences(rng.uniform(0.51, 0.99, size=60)))
        previous: set[int] = set()
        for tau in np.linspace(0.0, 1.0, 21):
            det = OodDetector(threshold=float(tau), quantile=0.9, calibration_size=60)
            ood_set = set(partition(det, model, data).ood_indices.tolist())
            assert previous <= ood_set
            previous = ood_set

    def test_in_dist_labels_are_argmax(self):
        model = confidence_model()
        data = as_dataset(features_for_confidences(np.array([0.9, 0.7])))
        det = OodDetector(threshold=0.0, quantile=0.5, calibration_size=2)
        part = partition(det, model, data)
        assert np.array_equal(part.in_dist_labels, [0, 0])  # logit (x, 0) with x > 0


class TestSeparableGeometry:
    def test_held_out_class_flagged_ood(self):
        """Train on two blobs; a third blob near the decision boundary is mostly OOD,
        fresh in-distribution samples mostly are not."""
        rng = np.random.default_rng(12)
        n = 150
        a = rng.standard_normal((n, 4)) * 0.5
        a[:, 0] -= 3.0
        b = rng.standard_normal((n, 4)) * 0.5
        b[:, 0] += 3.0
        x = np.concatenate([a, b])
        y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        train = Dataset(
            features=x,
            labels=y,
            true_labels=y,
            provenance=np.full(2 * n, PROV_HUMAN, dtype=np.int64),
            n_classes_visible=2,
        )
        model = init_model(NetworkConfig(input_dim=4, output_classes=2, hidden_dims=(16,)), seed=1)
        model = train_epochs(model, train, AdamConfig(batch_size=8, seed=1), epochs=30)
        det = calibrate(model, train, q=0.95)

        held = rng.standard_normal((n, 4)) * 0.5  # blob between the classes: low confidence
        ood_rate = len(partition(det, model, as_dataset(held)).ood_indices) / n
        assert ood_rate >= 0.9

        fresh_a = rng.standard_normal((n, 4)) * 0.5
        fresh_a[:, 0] -= 3.0
        fresh_b = rng.standard_normal((n, 4)) * 0.5
        fresh_b[:, 0] += 3.0
        fresh = np.concatenate([fresh_a, fresh_b])
        in_rate = len(partition(det, model, as_dataset(fresh)).ood_indices) / (2 * n)
        assert in_rate <= 0.15
