import numpy as np
import pytest

from classdisco.dataset import PROV_HUMAN, Dataset
from classdisco.learner import (
    AdamConfig,
    NetworkConfig,
    TrainingDivergedError,
    cross_entropy,
    embed,
    expand_outputs,
    init_model,
    load_model,
    loss_and_gradients,
    predict_proba,
    save_model,
    train_epochs,
)

TOY_NET = NetworkConfig(input_dim=8, output_classes=2, hidden_dims=(4,))


def toy_batch(seed=0, n=10, dim=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, 2, size=n)
    return x, y


def labeled_dataset(x, y, n_classes):
    return Dataset(
        features=x,
        labels=y,
        true_labels=y,
        provenance=np.full(len(y), PROV_HUMAN, dtype=np.int64),
        n_classes_visible=n_classes,
    )


def separable_blobs(seed=3, n_per=60, dim=4):
    """Two blobs split by the plane x0 = 0; the closed-form threshold separates them."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, dim)) * 0.5
    b = rng.standard_normal((n_per, dim)) * 0.5
    a[:, 0] -= 3.0
    b[:, 0] += 3.0
    x = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n_per, dtype=np.int64), np.ones(n_per, dtype=np.int64)])
    assert ((x[:, 0] > 0) == y).all()  # the oracle: a hard threshold at 0 is perfect
    return x, y


class TestInit:
    def test_deterministic(self):
        a = init_model(TOY_NET, seed=11)
        b = init_model(TOY_NET, seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seeds_differ(self):
        a = init_model(TOY_NET, seed=1)
        b = init_model(TOY_NET, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_parameter_count(self):
        cfg = NetworkConfig(input_dim=784, output_classes=5, hidden_dims=(128,))
        model = init_model(cfg, seed=0)
        assert model.parameter_count() == 784 * 128 + 128 + 128 * 5 + 5

    def test_biases_zero(self):
        model = init_model(TOY_NET, seed=0)
        for b in model.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            init_model(NetworkConfig(input_dim=0, output_classes=2), seed=0)
        with pytest.raises(ValueError):
            init_model(NetworkConfig(input_dim=3, output_classes=1), seed=0)
        with pytest.raises(ValueError):
            init_model(NetworkConfig(input_dim=3, output_classes=2, hidden_dims=()), seed=0)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        """Finite-difference oracle over every parameter of the toy network."""
        x, y = toy_batch(seed=4)
        model = init_model(TOY_NET, seed=7)
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
        assert worst < 1e-4

    def test_first_update_does_not_increase_loss(self):
        """One Adam step at lr <= 1e-3 on a fixed batch; at most 1 of 20 seeds may fail."""
        x, y = toy_batch(seed=9)
        data = labeled_dataset(x, y, 2)
        adam = AdamConfig(learning_rate=1e-3, batch_size=len(y), seed=0)
        failures = 0
        for seed in range(20):
            model = init_model(TOY_NET, seed=seed)
            before = cross_entropy(model, x, y)
            after_model = train_epochs(model, data, adam, epochs=1)
            after = cross_entropy(after_model, x, y)
            if after > before:
                failures += 1
        assert failures <= 1


class TestTraining:
    def test_separable_blob_reaches_high_accuracy(self):
        x, y = separable_blobs()
        data = labeled_dataset(x, y, 2)
        model = init_model(NetworkConfig(input_dim=4, output_classes=2, hidden_dims=(16,)), seed=0)
        model = train_epochs(model, data, AdamConfig(batch_size=8, seed=0), epochs=20)
        acc = (predict_proba(model, x).argmax(1) == y).mean()
        assert acc >= 0.99

    def test_trained_point_confident(self):
        x, y = separable_blobs()
        data = labeled_dataset(x, y, 2)
        model = init_model(NetworkConfig(input_dim=4, output_classes=2, hidden_dims=(16,)), seed=0)
        model = train_epochs(model, data, AdamConfig(batch_size=8, seed=0), epochs=30)
        assert predict_proba(model, x[:1]).max() > 0.9

    def test_zero_epochs_is_identity(self):
        x, y = toy_batch()
        model = init_model(TOY_NET, seed=0)
        out = train_epochs(model, labeled_dataset(x, y, 2), AdamConfig(), epochs=0)
        assert out is model

    def test_bit_identical_training(self):
        x, y = separable_blobs(seed=5)
        data = labeled_dataset(x, y, 2)
        runs = []
        for _ in range(2):
            model = init_model(NetworkConfig(input_dim=4, output_classes=2), seed=3)
            model = train_epochs(model, data, AdamConfig(batch_size=16, seed=2), epochs=3)
            runs.append(model)
        for wa, wb in zip(runs[0].weights, runs[1].weights):
            assert wa.tobytes() == wb.tobytes()

    def test_epoch_counter_advances_the_shuffle(self):
        x, y = separable_blobs(seed=5)
        data = labeled_dataset(x, y, 2)
        model = init_model(NetworkConfig(input_dim=4, output_classes=2), seed=3)
        two_calls = train_epochs(
            train_epochs(model, data, AdamConfig(batch_size=16, seed=2), 1),
            data,
            AdamConfig(batch_size=16, seed=2),
            1,
        )
        one_call = train_epochs(model, data, AdamConfig(batch_size=16, seed=2), 2)
        for wa, wb in zip(two_calls.weights, one_call.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_loss_log_grows_per_epoch(self):
        x, y = toy_batch()
        model = init_model(TOY_NET, seed=0)
        model = train_epochs(model, labeled_dataset(x, y, 2), AdamConfig(batch_size=4), epochs=5)
        assert len(model.loss_log) == 5
        assert model.epochs_trained == 5

    def test_label_out_of_range(self):
        x, _ = toy_batch()
        y = np.full(len(x), 5, dtype=np.int64)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            train_epochs(model, labeled_dataset(x, y, 6), AdamConfig(), epochs=1)

    def test_divergence_reported_with_batch(self):
        x, y = toy_batch()
        x[0, 0] = np.nan  # poisoned input surfaces as a non-finite loss
        data = labeled_dataset(x, y, 2)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(TrainingDivergedError, match="batch"):
            train_epochs(model, data, AdamConfig(batch_size=4), epochs=1)


class TestInference:
    def test_rows_sum_to_one(self):
        model = init_model(TOY_NET, seed=1)
        x, _ = toy_batch(seed=2, n=50)
        probs = predict_proba(model, x)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs > 0).all() and (probs < 1).all()

    def test_zero_weights_give_uniform(self):
        model = init_model(TOY_NET, seed=1)
        for w in model.weights:
            w[:] = 0.0
        probs = predict_proba(model, np.ones((3, 8)))
        assert np.allclose(probs, 0.5)

    def test_width_mismatch(self):
        model = init_model(TOY_NET, seed=1)
        with pytest.raises(ValueError, match="width"):
            predict_proba(model, np.ones((2, 5)))
        with pytest.raises(ValueError, match="width"):
            embed(model, np.ones((2, 5)))

    def test_embedding_width_and_nonnegative(self):
        cfg = NetworkConfig(input_dim=10, output_classes=3, hidden_dims=(128,))
        model = init_model(cfg, seed=0)
        e = embed(model, np.random.default_rng(0).standard_normal((6, 10)))
        assert e.shape == (6, 128)
        assert (e >= 0).all()

    def test_zero_input_zero_embedding(self):
        model = init_model(TOY_NET, seed=4)
        assert np.array_equal(embed(model, np.zeros((2, 8))), np.zeros((2, 4)))

    def test_identical_inputs_identical_embeddings(self):
        model = init_model(TOY_NET, seed=4)
        x = np.random.default_rng(1).standard_normal((1, 8))
        e = embed(model, np.vstack([x, x]))
        assert np.array_equal(e[0], e[1])


class TestExpandOutputs:
    def test_widths_and_argmax_preserved(self):
        x, y = separable_blobs()
        data = labeled_dataset(x, y, 2)
        model = init_model(NetworkConfig(input_dim=4, output_classes=5, hidden_dims=(8,)), seed=0)
        probe = x[:3]
        before = predict_proba(model, probe)
        wide = expand_outputs(model, 6, seed=9)
        after = predict_proba(wide, probe)
        assert after.shape[1] == 6
        assert np.array_equal(before.argmax(1), after[:, :5].argmax(1))
        wider = expand_outputs(wide, 7, seed=10)
        assert predict_proba(wider, probe).shape[1] == 7

    def test_embeddings_exactly_preserved(self):
        model = init_model(NetworkConfig(input_dim=4, output_classes=2, hidden_dims=(8,)), seed=0)
        x = np.random.default_rng(2).standard_normal((10, 4))
        wide = expand_outputs(model, 4, seed=1)
        assert embed(model, x).tobytes() == embed(wide, x).tobytes()

    def test_shrink_rejected(self):
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match="shrink"):
            expand_outputs(model, 2, seed=0)


def test_supervised_sanity_on_mnist_half():
    from conftest import MNIST_SKIP_REASON, mnist_train_paths

    paths = mnist_train_paths()
    if paths is None:
        pytest.skip(MNIST_SKIP_REASON)
    from classdisco.dataset import SplitSpec, load_idx, make_split

    data = make_split(
        load_idx(*paths),
        SplitSpec(held_out_classes=frozenset({5, 6, 7, 8, 9}), per_class_cap=2000, seed=0),
    )
    labeled = data.labeled_indices()
    rng = np.random.default_rng(0)
    order = rng.permutation(labeled)
    split_at = int(0.8 * len(order))
    train, test = data.select(order[:split_at]), data.select(order[split_at:])
    model = init_model(NetworkConfig(input_dim=784, output_classes=5, hidden_dims=(128,)), seed=0)
    model = train_epochs(model, train, AdamConfig(batch_size=64, seed=0), epochs=8)
    acc = (predict_proba(model, test.features).argmax(1) == test.labels).mean()
    assert acc > 0.9


def test_checkpoint_round_trip_bit_exact(tmp_path):
    x, y = separable_blobs(seed=8)
    data = labeled_dataset(x, y, 2)
    model = init_model(NetworkConfig(input_dim=4, output_classes=2), seed=6)
    model = train_epochs(model, data, AdamConfig(batch_size=32, seed=1), epochs=2)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.step == model.step
    assert loaded.epochs_trained == model.epochs_trained
    assert loaded.loss_log == model.loss_log
    for a, b in zip(model.weights, loaded.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(model.m, loaded.m):
        assert a.tobytes() == b.tobytes()
    with np.load(path) as archive:
        keys = set(archive.files)
    layers = range(len(model.weights))
    assert keys == {"meta"} | {f"{k}{i}" for i in layers for k in ("w", "b", "mw", "vw", "mb", "vb")}
    # training continues identically from a restored checkpoint
    more_a = train_epochs(model, data, AdamConfig(batch_size=32, seed=1), epochs=1)
    more_b = train_epochs(loaded, data, AdamConfig(batch_size=32, seed=1), epochs=1)
    for a, b in zip(more_a.weights, more_b.weights):
        assert a.tobytes() == b.tobytes()
