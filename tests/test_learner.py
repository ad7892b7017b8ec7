import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from classdisco import learner, seeds
from classdisco.dataset import UNLABELED
from classdisco.learner import (
    AdamConfig,
    NetworkConfig,
    TrainingDivergedError,
    cross_entropy,
    embed,
    expand_outputs,
    init_model,
    loss_and_gradients,
    predict_proba,
    train_epochs,
)

TOY_NET = NetworkConfig(input_dim=8, output_classes=2, hidden_dims=(4,))


def toy_batch(seed=0, n=10, dim=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, 2, size=n)
    return x, y


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
        adam = AdamConfig(learning_rate=1e-3, batch_size=len(y), seed=0)
        failures = 0
        for seed in range(20):
            model = init_model(TOY_NET, seed=seed)
            before = cross_entropy(model, x, y)
            after_model = train_epochs(model, x, y, adam, epochs=1)
            after = cross_entropy(after_model, x, y)
            if after > before:
                failures += 1
        assert failures <= 1


class TestTraining:
    def test_separable_blob_reaches_high_accuracy(self):
        x, y = separable_blobs()
        model = init_model(NetworkConfig(input_dim=4, output_classes=2, hidden_dims=(16,)), seed=0)
        model = train_epochs(model, x, y, AdamConfig(batch_size=8, seed=0), epochs=20)
        acc = (predict_proba(model, x).argmax(1) == y).mean()
        assert acc >= 0.99

    def test_trained_point_confident(self):
        x, y = separable_blobs()
        model = init_model(NetworkConfig(input_dim=4, output_classes=2, hidden_dims=(16,)), seed=0)
        model = train_epochs(model, x, y, AdamConfig(batch_size=8, seed=0), epochs=30)
        assert predict_proba(model, x[:1]).max() > 0.9

    def test_zero_epochs_is_identity(self):
        x, y = toy_batch()
        model = init_model(TOY_NET, seed=0)
        out = train_epochs(model, x, y, AdamConfig(), epochs=0)
        assert out is model

    def test_bit_identical_training(self):
        x, y = separable_blobs(seed=5)
        runs = []
        for _ in range(2):
            model = init_model(NetworkConfig(input_dim=4, output_classes=2), seed=3)
            model = train_epochs(model, x, y, AdamConfig(batch_size=16, seed=2), epochs=3)
            runs.append(model)
        for wa, wb in zip(runs[0].weights, runs[1].weights):
            assert wa.tobytes() == wb.tobytes()

    def test_epoch_counter_advances_the_shuffle(self):
        x, y = separable_blobs(seed=5)
        model = init_model(NetworkConfig(input_dim=4, output_classes=2), seed=3)
        two_calls = train_epochs(
            train_epochs(model, x, y, AdamConfig(batch_size=16, seed=2), 1),
            x,
            y,
            AdamConfig(batch_size=16, seed=2),
            1,
        )
        one_call = train_epochs(model, x, y, AdamConfig(batch_size=16, seed=2), 2)
        for wa, wb in zip(two_calls.weights, one_call.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_loss_log_grows_per_epoch(self):
        x, y = toy_batch()
        model = init_model(TOY_NET, seed=0)
        model = train_epochs(model, x, y, AdamConfig(batch_size=4), epochs=5)
        assert len(model.loss_log) == 5
        assert model.epochs_trained == 5

    def test_label_out_of_range(self):
        x, _ = toy_batch()
        y = np.full(len(x), 5, dtype=np.int64)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            train_epochs(model, x, y, AdamConfig(), epochs=1)

    def test_divergence_reported_with_batch(self):
        x, y = toy_batch()
        x[0, 0] = np.nan  # poisoned input surfaces as a non-finite loss
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(TrainingDivergedError, match="batch"):
            train_epochs(model, x, y, AdamConfig(batch_size=4), epochs=1)


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
    from conftest import MNIST_SKIP_REASON, mnist_train_paths, select_rows

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
    train, test = select_rows(data, order[:split_at]), select_rows(data, order[split_at:])
    model = init_model(NetworkConfig(input_dim=784, output_classes=5, hidden_dims=(128,)), seed=0)
    model = train_epochs(
        model, train.features, train.labels, AdamConfig(batch_size=64, seed=0), epochs=8
    )
    acc = (predict_proba(model, test.features).argmax(1) == test.labels).mean()
    assert acc > 0.9


def reference_init(dims, seed):
    """The per-array init: weight then bias per layer, one stream."""
    rng = seeds.spawn(seed)
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        params.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def reference_loss_and_gradients(params, x, y):
    """Per-array forward and backward pass, one fresh gradient array per parameter."""
    acts, h = [x], x
    for W, b in zip(params[0:-2:2], params[1:-2:2]):
        h = np.maximum(h @ W + b, 0.0)
        acts.append(h)
    logits = h @ params[-2] + params[-1]
    n = x.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    lse = np.log(e.sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(n), y]))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads = [None] * len(params)
    for layer in range(len(params) // 2 - 1, -1, -1):
        grads[2 * layer] = acts[layer].T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params[2 * layer].T) * (acts[layer] > 0)
    return loss, grads


class ReferenceTrainer:
    """Minibatch Adam with one update expression per parameter array."""

    def __init__(self, dims, seed):
        self.params = reference_init(dims, seed)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.step = 0
        self.epochs_trained = 0
        self.loss_log = ()

    def train(self, x, y, adam, epochs):
        n = len(y)
        for _ in range(epochs):
            order = seeds.spawn(adam.seed, self.epochs_trained).permutation(n)
            total = 0.0
            for start in range(0, n, adam.batch_size):
                batch = order[start : start + adam.batch_size]
                loss, grads = reference_loss_and_gradients(self.params, x[batch], y[batch])
                self.step += 1
                bc1 = 1.0 - adam.beta1**self.step
                bc2 = 1.0 - adam.beta2**self.step
                for param, grad, m, v in zip(self.params, grads, self.m, self.v):
                    m *= adam.beta1
                    m += (1.0 - adam.beta1) * grad
                    v *= adam.beta2
                    v += (1.0 - adam.beta2) * grad**2
                    param -= adam.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + adam.epsilon)
                total += loss * len(batch)
            self.epochs_trained += 1
            self.loss_log = self.loss_log + (total / n,)

    def expand_outputs(self, extra, seed):
        fan_in = self.params[-2].shape[0]
        cols = seeds.spawn(seed).normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, extra))
        self.params[-2] = np.concatenate([self.params[-2], cols], axis=1)
        self.params[-1] = np.concatenate([self.params[-1], np.zeros(extra)])
        for moments in (self.m, self.v):
            moments[-2] = np.concatenate([moments[-2], np.zeros((fan_in, extra))], axis=1)
            moments[-1] = np.concatenate([moments[-1], np.zeros(extra)])


def assert_same_state(model, ref):
    for got, want in ((model.params, ref.params), (model.m, ref.m), (model.v, ref.v)):
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert (model.step, model.epochs_trained) == (ref.step, ref.epochs_trained)
    assert model.loss_log == ref.loss_log


def views_share_flat(model):
    """Every params, m and v entry is a view of its model's flat vector."""
    return all(
        np.shares_memory(view, flat)
        for views, flat in (
            (model.params, model.flat_params),
            (model.m, model.flat_m),
            (model.v, model.flat_v),
        )
        for view in views
    )


class TestFlatTraining:
    @settings(max_examples=40, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        input_dim=st.integers(1, 10),
        classes=st.integers(2, 5),
        extra=st.integers(1, 3),
        n=st.integers(2, 60),
        batch_size=st.integers(1, 70),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(hidden=[8, 4], input_dim=6, classes=3, extra=2, n=50, batch_size=16, epochs=2, seed=0)
    # 480 steps: from step 356, 1 - beta1**t is exactly 1.0 and Adam skips its divide
    @example(hidden=[4], input_dim=8, classes=2, extra=1, n=60, batch_size=1, epochs=4, seed=1)
    def test_matches_per_array_reference(
        self, hidden, input_dim, classes, extra, n, batch_size, epochs, seed
    ):
        """Train, widen the softmax, train again: every float equals the per-array form."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, input_dim))
        y = rng.integers(0, classes, n)
        adam = AdamConfig(batch_size=batch_size, seed=seed % 1000)
        net = NetworkConfig(input_dim=input_dim, output_classes=classes, hidden_dims=tuple(hidden))
        model = init_model(net, seed=seed)
        ref = ReferenceTrainer([input_dim, *hidden, classes], seed)
        assert_same_state(model, ref)

        model = train_epochs(model, x, y, adam, epochs)
        ref.train(x, y, adam, epochs)
        assert_same_state(model, ref)

        model = expand_outputs(model, classes + extra, seed=seed + 1)
        ref.expand_outputs(extra, seed=seed + 1)
        assert_same_state(model, ref)

        y2 = rng.integers(0, classes + extra, n)
        model = train_epochs(model, x, y2, adam, epochs)
        ref.train(x, y2, adam, epochs)
        assert_same_state(model, ref)

    def test_views_share_the_flat_vectors_and_copies_share_nothing(self):
        x, y = toy_batch(n=45)
        adam = AdamConfig(batch_size=8, seed=0)
        model = init_model(NetworkConfig(input_dim=8, output_classes=2, hidden_dims=(5, 3)), seed=0)
        assert views_share_flat(model)

        with mock.patch.object(
            learner, "loss_and_gradients", wraps=learner.loss_and_gradients
        ) as spy:
            trained = train_epochs(model, x, y, adam, epochs=3)
        assert spy.call_count == trained.step == 3 * 6  # ceil(45 / 8) steps per epoch
        assert views_share_flat(trained)
        grads = spy.call_args.args[3]  # views of row 0 of one training workspace
        work = grads[0].base
        assert all(g.base is work and np.shares_memory(g, work[0]) for g in grads)

        widened = expand_outputs(trained, 4, seed=1)
        assert views_share_flat(widened)

        copied = widened.copy()
        assert views_share_flat(copied)
        mine = [widened.flat_params, widened.flat_m, widened.flat_v]
        theirs = [copied.flat_params, copied.flat_m, copied.flat_v]
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        assert [a.tobytes() for a in mine] == [b.tobytes() for b in theirs]


class TestTrainRows:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 60),
        n_rows=st.integers(1, 60),
        input_dim=st.integers(1, 8),
        classes=st.integers(2, 4),
        batch_size=st.integers(2, 64),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=50, n_rows=37, input_dim=6, classes=3, batch_size=8, epochs=2, seed=0)
    def test_rows_match_training_on_the_selected_copy(
        self, n, n_rows, input_dim, classes, batch_size, epochs, seed
    ):
        """Unique rows in any order, batches that do not divide them; the rows
        left out may be unlabeled or beyond the model's outputs."""
        rng = np.random.default_rng(seed)
        rows = rng.permutation(n)[:n_rows]
        assume(len(rows) % batch_size)
        x = rng.standard_normal((n, input_dim))
        labels = rng.choice([UNLABELED, classes], size=n)
        labels[rows] = rng.integers(0, classes, len(rows))
        adam = AdamConfig(batch_size=batch_size, seed=seed % 1000)
        net = NetworkConfig(input_dim=input_dim, output_classes=classes, hidden_dims=(5,))
        model = init_model(net, seed=seed)
        by_rows = train_epochs(model, x, labels[rows], adam, epochs, rows=rows)
        on_copy = train_epochs(model, x[rows], labels[rows], adam, epochs)
        for name in ("flat_params", "flat_m", "flat_v"):
            assert getattr(by_rows, name).tobytes() == getattr(on_copy, name).tobytes()
        assert by_rows.loss_log == on_copy.loss_log
        assert (by_rows.step, by_rows.epochs_trained) == (on_copy.step, on_copy.epochs_trained)

    def test_unlabeled_row_inside_rows_raises(self):
        x, y = toy_batch(n=12)
        labels = y.copy()
        labels[5] = UNLABELED
        model = init_model(TOY_NET, seed=0)
        rows = [0, 1, 2, 3, 4, 6]
        train_epochs(model, x, labels[rows], AdamConfig(batch_size=4), 1, rows=rows)
        rows = [0, 5, 6]
        with pytest.raises(ValueError, match="fully labeled"):
            train_epochs(model, x, labels[rows], AdamConfig(batch_size=4), 1, rows=rows)

    def test_labels_must_line_up_with_the_training_rows(self):
        x, y = toy_batch(n=12)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match="12 labels for 3 training rows"):
            train_epochs(model, x, y, AdamConfig(), 1, rows=[0, 1, 2])
        with pytest.raises(ValueError, match="3 labels for 12 training rows"):
            train_epochs(model, x, y[:3], AdamConfig(), 1)

    def test_empty_training_rows_are_named(self):
        x, y = toy_batch(n=12)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match="no training rows"):
            train_epochs(model, x, y[:0], AdamConfig(), 1, rows=[])
        with pytest.raises(ValueError, match="no training rows"):
            train_epochs(model, x[:0], y[:0], AdamConfig(), 1)


def shared_matrix(width):
    """A read-only 600-row matrix, as the engine's Dataset holds its features."""
    x = np.random.default_rng(width).standard_normal((600, width))
    x.flags.writeable = False
    return x


class TestInferenceRows:
    @settings(max_examples=12, deadline=None)
    @given(
        shape=st.sampled_from([(784, 128), (16, 128), (784, 32)]),
        blocks=st.sampled_from([1, 2, 5]),
        fill=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(784, 128), blocks=5, fill=1.0, seed=0)
    @example(shape=(16, 128), blocks=1, fill=0.0, seed=0)
    def test_rows_match_the_gathered_copy(self, shape, blocks, fill, seed):
        """Pools of 1, 2 and 5 blocks, rows in any order and repeated."""
        width, hidden = shape
        x = shared_matrix(width)
        lo, hi = (blocks - 1) * learner._BLOCK_ROWS + 1, blocks * learner._BLOCK_ROWS
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(x), lo + round(fill * (hi - lo)))
        net = NetworkConfig(input_dim=width, output_classes=6, hidden_dims=(hidden,))
        model = init_model(net, seed=seed)
        copy = x[rows]
        assert embed(model, x, rows=rows).tobytes() == embed(model, copy).tobytes()
        assert predict_proba(model, x, rows=rows).tobytes() == predict_proba(model, copy).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_deeper_layers_match_a_direct_forward_pass(self, dtype, blocks):
        """Two hidden layers: ``embed`` and ``predict_proba`` on ``(X, rows)``
        equal a forward pass on ``X[rows]`` in the model's dtype, byte for byte."""
        x = shared_matrix(784)
        n = blocks * learner._BLOCK_ROWS - 24
        rows = np.random.default_rng(blocks).integers(0, len(x), n)
        net = NetworkConfig(input_dim=784, output_classes=6, hidden_dims=(5, 3))
        model = init_model(net, seed=1, dtype=dtype)
        acts, logits = learner._forward(model, x[rows].astype(dtype))
        got = embed(model, x, rows=rows)
        assert got.dtype == dtype and got.shape == (n, 3) and got.any()
        assert got.tobytes() == acts[-1].tobytes()
        want = learner._softmax(logits).tobytes()
        assert predict_proba(model, x, rows=rows).tobytes() == want

    def test_blocks_are_equal_and_bounded(self):
        x = shared_matrix(16)
        model = init_model(NetworkConfig(input_dim=16, output_classes=3, hidden_dims=(8,)), 0)
        rows = np.arange(2100) % len(x)
        with mock.patch.object(learner, "_dense_relu", wraps=learner._dense_relu) as spy:
            embed(model, x, rows=rows)
        assert [len(c.args[0]) for c in spy.call_args_list] == [700, 700, 700]

    def test_embed_stops_at_the_last_hidden_layer(self):
        x, _ = toy_batch()
        model = init_model(TOY_NET, seed=0)
        with mock.patch.object(learner, "_logits", wraps=learner._logits) as spy:
            embed(model, x, rows=[3, 1])
            assert spy.call_count == 0
            predict_proba(model, x, rows=[3, 1])
            assert spy.call_count == 1

    @pytest.mark.parametrize("rows,bad", [([0, 1, 999], 999), ([2, -1, 12], -1), ([12], 12)])
    def test_out_of_range_row_is_named_before_any_work(self, rows, bad):
        x, y = toy_batch(n=12)
        model = init_model(TOY_NET, seed=0)
        with mock.patch.object(learner, "_dense_relu", wraps=learner._dense_relu) as spy:
            for call in (embed, predict_proba):
                with pytest.raises(ValueError, match=f"row {bad} is outside the 12 rows"):
                    call(model, x, rows=rows)
            labels = np.zeros(len(rows), dtype=np.int64)
            with pytest.raises(ValueError, match=f"row {bad} is outside the 12 rows"):
                train_epochs(model, x, labels, AdamConfig(batch_size=2), 1, rows=rows)
        assert spy.call_count == 0

    def test_empty_rows_give_empty_outputs(self):
        x, _ = toy_batch()
        model = init_model(TOY_NET, seed=0)
        assert embed(model, x, rows=[]).shape == (0, 4)
        assert predict_proba(model, x, rows=[]).shape == (0, 2)


class TestFloat32Model:
    @settings(max_examples=8, deadline=None)
    @given(
        width=st.sampled_from([784, 16]),
        blocks=st.sampled_from([1, 3]),
        fill=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=784, blocks=3, fill=1.0, seed=0)
    @example(width=16, blocks=1, fill=0.0, seed=0)
    def test_rows_match_the_float32_copy(self, width, blocks, fill, seed):
        """Training and inference on ``(X, rows)`` equal the same calls on
        ``X[rows].astype(np.float32)``, byte for byte, for pools of 1 and 3 blocks."""
        x = shared_matrix(width)
        lo, hi = (blocks - 1) * learner._BLOCK_ROWS + 1, blocks * learner._BLOCK_ROWS
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(x), lo + round(fill * (hi - lo)))
        y = rng.integers(0, 6, len(rows))
        copy = x[rows].astype(np.float32)
        net = NetworkConfig(input_dim=width, output_classes=6, hidden_dims=(32,))
        model = init_model(net, seed=seed, dtype=np.float32)
        adam = AdamConfig(batch_size=32, seed=seed)
        got = train_epochs(model, x, y, adam, 1, rows=rows)
        want = train_epochs(model, copy, y, adam, 1)
        assert got.flat_params.dtype == np.float32
        for name in ("flat_params", "flat_m", "flat_v"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.loss_log == want.loss_log
        for call in (embed, predict_proba):
            out = call(got, x, rows=rows)
            assert out.dtype == np.float32
            assert out.tobytes() == call(got, copy).tobytes()

    def test_init_draws_the_float64_weights_then_casts(self):
        wide = init_model(TOY_NET, seed=3)
        narrow = init_model(TOY_NET, seed=3, dtype=np.float32)
        for name in ("flat_params", "flat_m", "flat_v"):
            assert getattr(narrow, name).dtype == np.float32
            assert np.array_equal(getattr(narrow, name), getattr(wide, name).astype(np.float32))
        assert learner._workspace(narrow)[0].dtype == np.float32

    def test_a_float32_embed_reads_its_pool_one_block_at_a_time(self):
        x = shared_matrix(784)
        net = NetworkConfig(input_dim=784, output_classes=3, hidden_dims=(8,))
        model = init_model(net, seed=0, dtype=np.float32)
        rows = np.arange(3000) % len(x)  # three blocks of 1000 rows
        embed(model, x, rows=rows)  # first-call allocations
        tracemalloc.start()
        try:
            embed(model, x, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block's float64 gather next to its float32 cast: never the
        # whole pool's gather, which alone is twice that
        block = 1000 * 784
        assert 4 * block < peak < 1.1 * (8 + 4) * block
