"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). The two real-image-data criteria run against the MNIST IDX files
when present and skip with instructions otherwise; everything else is
self-contained.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from classdisco.cli import main
from classdisco.clustering import KMeansConfig, fit_with_restarts, kmeanspp_init, lloyd_fit
from classdisco.dataset import GaussianMixtureSpec, IdxData, SplitSpec
from classdisco.engine import (
    ExperimentConfig,
    run_class_count_experiment,
    run_dynamic,
    run_static,
)
from classdisco.learner import (
    AdamConfig,
    NetworkConfig,
    cross_entropy,
    init_model,
    loss_and_gradients,
)
from classdisco.metrics import cluster_accuracy, dataset_reconstruction_accuracy
from classdisco.ood import calibrate, max_confidences, partition
from classdisco.selection import SelectionPolicy
from conftest import MNIST_SKIP_REASON, mnist_train_paths
from test_metrics import indicator_dra_oracle, plurality_oracle, random_instance
from test_ood import confidence_model, features_for_confidences


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        assignments, truths = random_instance(rng)
        ell = int(rng.integers(0, 120))

        report = dataset_reconstruction_accuracy(ell, assignments, truths)
        assert report.dra == indicator_dra_oracle(ell, assignments, truths)

        mapping = cluster_accuracy(assignments, truths)
        for row in mapping.clusters:
            members = truths[assignments == row.cluster_id]
            label, count = plurality_oracle(members)
            assert row.mapped_label == label
            assert row.overlap == count
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report_line(1, ok, f"200 instances, both metric forms exact, {elapsed:.2f}s")
    assert ok


def test_criterion_2_dra_spot_checks():
    assignments = np.array([0] * 10 + [1] * 10)
    truths = np.array([5] * 6 + [6] * 4 + [7] * 8 + [5] * 2)  # accuracies 0.6 and 0.8
    worked = dataset_reconstruction_accuracy(80, assignments, truths)
    ok_worked = abs(worked.dra - 0.94) <= 1e-12

    no_pool = dataset_reconstruction_accuracy(37, np.empty(0, dtype=int), np.empty(0, dtype=int))
    ok_no_pool = no_pool.dra == 1.0

    pure = dataset_reconstruction_accuracy(
        4, np.array([0, 0, 1, 1]), np.array([9, 9, 5, 5])
    )
    ok_pure = pure.dra == 1.0

    ok = ok_worked and ok_no_pool and ok_pure
    report_line(2, ok, f"formula {worked.dra!r}, empty pool {no_pool.dra}, pure {pure.dra}")
    assert ok


def test_criterion_3_learner_and_clustering_numerics():
    # gradient check against central finite differences
    rng = np.random.default_rng(33)
    x = rng.standard_normal((10, 8))
    y = rng.integers(0, 2, size=10)
    model = init_model(NetworkConfig(input_dim=8, output_classes=2, hidden_dims=(4,)), seed=3)
    _, grads = loss_and_gradients(model, x, y)
    h = 1e-4
    worst = 0.0
    for param, grad in zip(model.params, grads):
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + h
            up = cross_entropy(model, x, y)
            param[idx] = orig - h
            down = cross_entropy(model, x, y)
            param[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    ok_grad = worst < 1e-4

    # Lloyd inertia non-increasing on every iteration of 50 seeded runs
    ok_lloyd = True
    for seed in range(50):
        gen = np.random.default_rng(1000 + seed)
        points = gen.standard_normal((70, 4))
        result = lloyd_fit(points, kmeanspp_init(points, 5, seed=seed))
        for earlier, later in zip(result.inertia_trace, result.inertia_trace[1:]):
            if later > earlier * (1 + 1e-12) + 1e-12:
                ok_lloyd = False

    # restart selection returns the minimum-inertia trial
    gen = np.random.default_rng(77)
    points = np.concatenate([gen.standard_normal((40, 3)), gen.standard_normal((40, 3)) + 5.0])
    cfg = KMeansConfig(k=6, restarts=10, seed=900)
    chosen = fit_with_restarts(points, cfg)
    trials = [lloyd_fit(points, kmeanspp_init(points, 6, seed=cfg.seed + i)) for i in range(10)]
    ok_restarts = chosen.inertia == min(t.inertia for t in trials)

    ok = ok_grad and ok_lloyd and ok_restarts
    report_line(
        3,
        ok,
        f"max gradient rel err {worst:.2e}, lloyd monotone over 50 runs: {ok_lloyd}, "
        f"restart min: {ok_restarts}",
    )
    assert ok


def test_criterion_4_ood_calibration():
    model = confidence_model()
    rng = np.random.default_rng(404)
    conf = rng.uniform(0.51, 0.999, size=1000)
    features = features_for_confidences(conf)
    detector = calibrate(model, features, q=0.95)

    actual = max_confidences(model, features)
    ordered = sorted(float(c) for c in actual)
    oracle = ordered[math.floor(0.05 * (len(ordered) - 1))]
    ok_oracle = detector.threshold == oracle

    part = partition(detector, model, features)
    frac_in = len(part.in_dist_indices) / 1000
    ok_frac = frac_in >= 0.949

    ok = ok_oracle and ok_frac
    report_line(4, ok, f"threshold == sort oracle: {ok_oracle}, in-dist fraction {frac_in:.4f}")
    assert ok


def _synthetic_cfg(seed: int, policy: str) -> ExperimentConfig:
    return ExperimentConfig(
        data=GaussianMixtureSpec(10, 16, 6.0, 200, seed=seed),
        split=SplitSpec(held_out_classes=frozenset({5, 6, 7, 8, 9})),
        net=NetworkConfig(hidden_dims=(128,)),
        adam=AdamConfig(seed=seed),
        kmeans=KMeansConfig(k=15, restarts=10, seed=seed),
        policy=SelectionPolicy(kind=policy, seed=seed),
        epochs_initial=30,
        epochs_per_round=5,
        ood_mode="oracle",
        seed=seed,
    )


def test_criterion_5_synthetic_end_to_end():
    start = time.perf_counter()
    _, static_report = run_static(_synthetic_cfg(0, "learnability"))
    ok_static = static_report.dra >= 0.95

    _, dynamic_reports = run_dynamic(_synthetic_cfg(0, "learnability"))
    ok_dynamic = dynamic_reports[-1].dra >= static_report.dra - 0.01

    purity = {"learnability": [], "random": []}
    for seed in range(10):
        for policy in ("learnability", "random"):
            state, _ = run_dynamic(_synthetic_cfg(seed, policy))
            purity[policy].extend(a.overlap / a.size for a in state.accepted)
    mean_learn = float(np.mean(purity["learnability"]))
    mean_random = float(np.mean(purity["random"]))
    ok_purity = mean_learn >= mean_random

    elapsed = time.perf_counter() - start
    ok_time = elapsed < 120.0
    ok = ok_static and ok_dynamic and ok_purity and ok_time
    report_line(
        5,
        ok,
        f"static {static_report.dra:.4f}, dynamic final {dynamic_reports[-1].dra:.4f}, "
        f"purity learnability {mean_learn:.4f} vs random {mean_random:.4f}, {elapsed:.0f}s",
    )
    assert ok


def _mnist_cfg(images, labels, seed, epochs_initial) -> ExperimentConfig:
    return ExperimentConfig(
        data=IdxData(images=images, labels=labels),
        split=SplitSpec(held_out_classes=frozenset({5, 6, 7, 8, 9}), per_class_cap=2000, seed=seed),
        net=NetworkConfig(hidden_dims=(128,)),
        adam=AdamConfig(seed=seed),  # learning_rate 0.001, betas 0.9/0.999, epsilon 1e-7
        kmeans=KMeansConfig(k=15, restarts=10, seed=seed),
        policy=SelectionPolicy(kind="learnability", seed=seed),
        epochs_initial=epochs_initial,
        epochs_per_round=1,
        ood_mode="oracle",
        seed=seed,
    )


def test_criterion_6_mnist_desk_scale():
    paths = mnist_train_paths()
    if paths is None:
        pytest.skip(MNIST_SKIP_REASON)
    images, labels = paths
    start = time.perf_counter()
    random_dra, semi_dra, dynamic_dra = [], [], []
    for seed in range(5):
        _, rand_report = run_static(_mnist_cfg(images, labels, seed, epochs_initial=0))
        random_dra.append(rand_report.dra)
        _, semi_report = run_static(_mnist_cfg(images, labels, seed, epochs_initial=5))
        semi_dra.append(semi_report.dra)
        _, dyn_reports = run_dynamic(_mnist_cfg(images, labels, seed, epochs_initial=5))
        dynamic_dra.append(dyn_reports[-1].dra)
    med_random = float(np.median(random_dra))
    med_semi = float(np.median(semi_dra))
    med_dynamic = float(np.median(dynamic_dra))
    elapsed = time.perf_counter() - start

    ok_a = med_semi - med_random >= 0.01
    ok_b = med_dynamic - med_semi >= 0.01
    ok_c = 0.78 <= med_semi <= 0.93
    ok_time = elapsed < 900.0
    ok = ok_a and ok_b and ok_c and ok_time
    report_line(
        6,
        ok,
        f"median DRA random {med_random:.4f}, semi {med_semi:.4f}, dynamic {med_dynamic:.4f}, "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_mnist_class_count_direction():
    paths = mnist_train_paths()
    if paths is None:
        pytest.skip(MNIST_SKIP_REASON)
    images, labels = paths
    wins = 0
    results = []
    for seed in range(5):
        cfg = _mnist_cfg(images, labels, seed, epochs_initial=5)
        cfg = replace(cfg, split=replace(cfg.split, per_class_cap=1000))
        rows = dict(run_class_count_experiment(cfg, [2, 5]))
        results.append((round(rows[2], 4), round(rows[5], 4)))
        wins += int(rows[5] > rows[2])
    ok = wins >= 4
    report_line(7, ok, f"5-class beats 2-class in {wins}/5 seeds: {results}")
    assert ok


def test_criterion_8_determinism(tmp_path):
    config_doc = {
        "data": {
            "kind": "synthetic",
            "n_classes": 6,
            "dim": 8,
            "separation": 8.0,
            "per_class_n": 60,
            "seed": 2,
        },
        "split": {"held_out_classes": [3, 4, 5], "seed": 1},
        "net": {"hidden_dims": [32]},
        "adam": {"seed": 3},
        "kmeans": {"k": 6, "restarts": 3, "seed": 4},
        "policy": {"kind": "learnability", "seed": 5},
        "epochs_initial": 5,
        "epochs_per_round": 2,
        "seed": 6,
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config_doc))

    first = tmp_path / "first"
    assert main(["discover", "--config", str(config_path), "--mode", "dynamic", "--out", str(first)]) == 0

    # re-execution from the report's embedded config and seed registry
    rerun = tmp_path / "rerun"
    assert (
        main(
            [
                "discover",
                "--config",
                str(first / "report.json"),
                "--mode",
                "dynamic",
                "--out",
                str(rerun),
            ]
        )
        == 0
    )
    ok_rerun = (first / "curves.csv").read_bytes() == (rerun / "curves.csv").read_bytes()

    parallel = tmp_path / "parallel"
    assert (
        main(
            [
                "discover",
                "--config",
                str(config_path),
                "--mode",
                "dynamic",
                "--out",
                str(parallel),
                "--workers",
                "4",
            ]
        )
        == 0
    )
    ok_parallel = (first / "curves.csv").read_bytes() == (parallel / "curves.csv").read_bytes()

    ok = ok_rerun and ok_parallel
    report_line(8, ok, f"re-run byte-identical: {ok_rerun}, parallel identical: {ok_parallel}")
    assert ok
