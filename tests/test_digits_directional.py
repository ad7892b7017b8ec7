"""Directional checks on real digit images (the bundled 8x8 scikit-learn set).

This is not a substitute for the full-resolution MNIST acceptance runs (which
require the IDX files, see test_acceptance). It exercises the same protocol on
genuine image data that ships with scikit-learn: half the digit classes are
stripped, the pool is clustered in the learned embedding, and dynamic
discovery must beat the static baseline. The trained-vs-untrained embedding
gap is NOT asserted here: 8x8 digits cluster at ~0.96 accuracy from raw
pixels already, so there is no headroom for training to show through.
"""

from dataclasses import replace

import numpy as np
import pytest

from classdisco.clustering import KMeansConfig
from classdisco.dataset import CsvData, SplitSpec
from classdisco.engine import ExperimentConfig, run_dynamic, run_static
from classdisco.learner import AdamConfig, NetworkConfig
from classdisco.selection import SelectionPolicy

sklearn_datasets = pytest.importorskip("sklearn.datasets")


@pytest.fixture(scope="module")
def digits_csv(tmp_path_factory):
    bunch = sklearn_datasets.load_digits()
    x = bunch.data / 16.0
    y = bunch.target.astype(np.int64)
    path = tmp_path_factory.mktemp("digits") / "digits.csv"
    header = ",".join([f"p{i}" for i in range(x.shape[1])] + ["label"])
    lines = [header]
    for row, label in zip(x, y):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def digits_cfg(path, seed, epochs_initial):
    return ExperimentConfig(
        data=CsvData(path=path),
        split=SplitSpec(held_out_classes=frozenset({5, 6, 7, 8, 9}), seed=seed),
        net=NetworkConfig(hidden_dims=(128,)),
        adam=AdamConfig(seed=seed),
        kmeans=KMeansConfig(k=15, restarts=10, seed=seed),
        policy=SelectionPolicy(kind="learnability", seed=seed),
        epochs_initial=epochs_initial,
        epochs_per_round=2,
        seed=seed,
    )


def test_dynamic_beats_static_on_digits(digits_csv):
    gains = []
    for seed in range(3):
        _, static_report = run_static(digits_cfg(digits_csv, seed, epochs_initial=15))
        _, dynamic_reports = run_dynamic(digits_cfg(digits_csv, seed, epochs_initial=15))
        gains.append(dynamic_reports[-1].dra - static_report.dra)
    assert float(np.median(gains)) >= 0.001


def test_static_recovery_is_strong_on_digits(digits_csv):
    _, report = run_static(digits_cfg(digits_csv, 0, epochs_initial=15))
    assert report.dra >= 0.9


def test_accepted_digit_clusters_are_pure(digits_csv):
    state, _ = run_dynamic(digits_cfg(digits_csv, 1, epochs_initial=15))
    purities = [a.overlap / a.size for a in state.accepted]
    assert float(np.mean(purities)) >= 0.8


def test_detector_mode_runs_on_digits(digits_csv):
    cfg = replace(digits_cfg(digits_csv, 2, epochs_initial=15), ood_mode="detector")
    state, reports = run_dynamic(cfg)
    assert reports[-1].n_total == state.dataset.n_samples
    assert state.detector is not None


def test_supervised_accuracy_sanity_on_digits(digits_csv):
    """A few epochs on the visible classes clears the supervised sanity bar."""
    import numpy as np

    from classdisco.dataset import load_csv, make_split
    from classdisco.learner import init_model, predict_proba, train_epochs
    from classdisco.learner import NetworkConfig as Net

    data = make_split(load_csv(digits_csv), SplitSpec(held_out_classes=frozenset({5, 6, 7, 8, 9})))
    labeled = data.labeled_indices()
    rng = np.random.default_rng(0)
    order = rng.permutation(labeled)
    split_at = int(0.8 * len(order))
    train, test = data.select(order[:split_at]), data.select(order[split_at:])

    model = init_model(Net(input_dim=64, output_classes=5, hidden_dims=(128,)), seed=0)
    model = train_epochs(model, train, AdamConfig(batch_size=32, seed=0), epochs=20)
    acc = (predict_proba(model, test.features).argmax(1) == test.labels).mean()
    assert acc > 0.9
