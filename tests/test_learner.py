import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from classdisco import learner, seeds
from classdisco.dataset import UNLABELED, Dataset, SplitSpec, add_class, make_split
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


def forward(model, x):
    """Hidden activations (input first) and logits, one fresh array per layer, in the
    dtype ``x`` and the model promote to."""
    acts = [x]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    return acts, acts[-1] @ model.weights[-1] + model.biases[-1]


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

    @pytest.mark.parametrize(
        "model_dtype, x_dtype",
        [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)],
    )
    def test_cross_entropy_is_the_separate_formula_bit_for_bit(self, model_dtype, x_dtype):
        """``cross_entropy`` is the training loss; it equals, to the bit, the
        forward pass plus log-sum-exp it used to compute on its own."""

        def reference(model, x, y):
            _, logits = forward(model, x)
            z = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=1))
            return float(np.mean(lse - z[np.arange(len(y)), y]))

        net = NetworkConfig(input_dim=8, output_classes=5, hidden_dims=(16, 6))
        adam = AdamConfig(learning_rate=0.05, batch_size=16, seed=1)
        for seed in range(10):
            x, _ = toy_batch(seed=seed, n=37)
            x = (x * 3).astype(x_dtype)
            y = np.random.default_rng(seed).integers(0, 5, size=len(x))
            model = init_model(net, seed=seed, dtype=model_dtype)
            for trained in (model, train_epochs(model, x, y, adam, epochs=3)):
                got = cross_entropy(trained, x, y)
                assert got.hex() == reference(trained, x, y).hex()
                assert got == loss_and_gradients(trained, x, y)[0]


class TestAdamConfig:
    TINY = float(np.finfo(np.float32).smallest_subnormal)

    def test_epsilon_at_float32s_smallest_subnormal_is_accepted(self):
        assert AdamConfig(epsilon=self.TINY).epsilon == self.TINY

    @pytest.mark.parametrize("below", [np.nextafter(TINY, 0), 5e-324, 0.0])
    def test_epsilon_below_it_is_rejected(self, below):
        with pytest.raises(ValueError, match="epsilon must be at least float32's smallest"):
            AdamConfig(epsilon=float(below))

    def test_a_huge_epsilon_is_compared_without_a_cast(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.float32(1e300) warns of an overflow
            assert AdamConfig(epsilon=1e300).epsilon == 1e300


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

    def test_label_out_of_range(self):
        x, _ = toy_batch()
        y = np.full(len(x), 5, dtype=np.int64)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            train_epochs(model, x, y, AdamConfig(), epochs=1)

    @pytest.mark.parametrize(
        "labels,match",
        [([0, -1], "label -1 is no class"), ([0, 2], "label 2 out"), ([1], "1 labels for 2")],
    )
    def test_cross_entropy_checks_its_labels(self, labels, match):
        """Each would make the flat label index read a logit of another column or row."""
        x, _ = toy_batch(n=2)
        model = init_model(TOY_NET, seed=0)
        with pytest.raises(ValueError, match=match):
            cross_entropy(model, x, labels)

    @pytest.mark.parametrize(
        "labels,kind", [([0.9, 1.7], "float64"), (np.array([True, False]), "bool")]
    )
    def test_non_integer_labels_are_named_not_truncated(self, labels, kind):
        """[0.9, 1.7] once trained and scored as the labels [0, 1]."""
        x, _ = toy_batch(n=2)
        model = init_model(TOY_NET, seed=0)
        match = f"^labels must be integer class labels, not {kind}$"
        with pytest.raises(ValueError, match=match):
            cross_entropy(model, x, labels)
        with pytest.raises(ValueError, match=match):
            train_epochs(model, x, labels, AdamConfig(), epochs=1)

    def test_divergence_reported_with_batch(self):
        x, y = toy_batch()
        x[0, 0] = np.nan  # poisoned input surfaces as a non-finite loss
        model = init_model(TOY_NET, seed=0)
        adam = AdamConfig(batch_size=4)
        start = np.flatnonzero(seeds.spawn(adam.seed, 0).permutation(len(x)) == 0)[0] // 4 * 4
        with pytest.raises(TrainingDivergedError) as caught:
            train_epochs(model, x, y, adam, epochs=1)
        assert str(caught.value) == f"non-finite loss in epoch 0, batch starting at sample {start}"

    @pytest.mark.parametrize("rows", [None, np.arange(40)[::-1]])
    def test_divergence_names_the_epoch_and_the_first_batch_holding_the_row(self, rows):
        """Training goes on to the end of the epoch, whose batch losses are checked
        there, in batch order: the error names the batch the step met the NaN in."""
        x, y = toy_batch(n=40)
        adam = AdamConfig(batch_size=8, seed=5)
        model = train_epochs(init_model(TOY_NET, seed=0), x, y, adam, 2, rows=rows)
        x[17, 3] = np.nan
        order = np.arange(40) if rows is None else rows
        shuffled = order[seeds.spawn(adam.seed, 2).permutation(40)]
        start = np.flatnonzero(shuffled == 17)[0] // 8 * 8
        assert start > 0  # a later batch than the first
        with pytest.raises(TrainingDivergedError) as caught:
            train_epochs(model, x, y, adam, 1, rows=rows)
        assert str(caught.value) == f"non-finite loss in epoch 2, batch starting at sample {start}"


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
    """Minibatch Adam with one update expression per parameter array, in ``dtype``:
    each batch is gathered and then cast, and each weight drawn in float64 and cast."""

    def __init__(self, dims, seed, dtype=np.float64):
        self.dtype = dtype
        self.params = [p.astype(dtype) for p in reference_init(dims, seed)]
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
                xb = x[batch].astype(self.dtype)
                loss, grads = reference_loss_and_gradients(self.params, xb, y[batch])
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
        cols, zeros = cols.astype(self.dtype), np.zeros((fan_in, extra), self.dtype)
        self.params[-2] = np.concatenate([self.params[-2], cols], axis=1)
        self.params[-1] = np.concatenate([self.params[-1], zeros[0]])
        for moments in (self.m, self.v):
            moments[-2] = np.concatenate([moments[-2], zeros], axis=1)
            moments[-1] = np.concatenate([moments[-1], zeros[0]])


def assert_same_state(model, ref):
    for got, want in ((model.params, ref.params), (model.m, ref.m), (model.v, ref.v)):
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert (model.step, len(model.loss_log)) == (ref.step, ref.epochs_trained)
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
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
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
    # two hidden layers, and a partial last batch of 2 rows
    @example(hidden=[8, 4], input_dim=6, classes=3, extra=2, n=50, batch_size=16, epochs=2, seed=0)
    # 480 steps: from step 356, 1 - beta1**t is exactly 1.0 and Adam skips its divide
    @example(hidden=[4], input_dim=8, classes=2, extra=1, n=60, batch_size=1, epochs=4, seed=1)
    # the synth-dynamic scorer's 16-32-15 at batch 32, a partial last batch, 400 steps
    @example(
        hidden=[32], input_dim=16, classes=15, extra=2, n=100, batch_size=32, epochs=50, seed=2
    )
    def test_matches_per_array_reference(
        self, dtype, hidden, input_dim, classes, extra, n, batch_size, epochs, seed
    ):
        """Train, widen the softmax, train again: every float, moment and loss equals the
        per-array form, in float64 and in float32 (each batch gathered and then cast)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, input_dim))
        y = rng.integers(0, classes, n)
        adam = AdamConfig(batch_size=batch_size, seed=seed % 1000)
        net = NetworkConfig(input_dim=input_dim, output_classes=classes, hidden_dims=tuple(hidden))
        model = init_model(net, seed=seed, dtype=dtype)
        ref = ReferenceTrainer([input_dim, *hidden, classes], seed, dtype)
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

        workspace, made = learner._workspace, []
        with mock.patch.object(
            learner, "loss_and_gradients", wraps=learner.loss_and_gradients
        ) as spy, mock.patch.object(
            learner, "_workspace", lambda *args: made.append(workspace(*args)) or made[-1]
        ):
            trained = train_epochs(model, x, y, adam, epochs=3)
        assert spy.call_count == trained.step == 3 * 6  # ceil(45 / 8) steps per epoch
        assert views_share_flat(trained)
        [ws] = made  # one training workspace; every step's gradients are views of its row 0
        assert spy.call_args.args[3] is ws
        assert all(np.shares_memory(g, ws.work[0]) for g in ws.grads)

        widened = expand_outputs(trained, 4, seed=1)
        assert views_share_flat(widened)

        copied = widened.copy()
        assert views_share_flat(copied)
        mine = [widened.flat_params, widened.flat_m, widened.flat_v]
        theirs = [copied.flat_params, copied.flat_m, copied.flat_v]
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        assert [a.tobytes() for a in mine] == [b.tobytes() for b in theirs]


def line_offsets(block):
    """Each row's start address modulo 64 bytes."""
    return [row.__array_interface__["data"][0] % 64 for row in block]


def off_line_zeros(rows, size, dtype):
    """As ``learner._line_zeros``, but every row starts one element (4 bytes
    in float32, 8 in float64) past a 64-byte line."""
    dtype = np.dtype(dtype)
    stride = -(-size * dtype.itemsize // 64) * 64 + 64
    raw = np.zeros(rows * stride + 64, np.uint8)
    start = -raw.__array_interface__["data"][0] % 64 + dtype.itemsize
    return np.ndarray((rows, size), dtype, raw, start, (stride, dtype.itemsize))


class TestLineAlignedRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_block_and_workspace_row_starts_on_a_line(self, dtype):
        """The scorer's 784-32-15 network: 25,615 parameters, so a packed row
        is no whole number of lines in either dtype."""
        size = 784 * 32 + 32 + 32 * 15 + 15
        net = NetworkConfig(input_dim=784, output_classes=15, hidden_dims=(32,))
        model = init_model(net, seed=0, dtype=dtype)
        wider = expand_outputs(model, 16, seed=1)
        ws = learner._workspace(model, dtype, 100, 32)
        blocks = [model.block, model.copy().block, wider.block, ws.work]
        for block, width in zip(blocks, [size, size, size + 33, size]):
            assert block.dtype == dtype and block.shape == (len(block), width)
            assert line_offsets(block) == [0] * len(block)
        assert len(ws.work) == 2  # the gradient and one Adam row: Adam reuses the gradient's
        assert [g.shape for g in ws.grads] == [p.shape for p in model.params]
        assert model.flat_params.shape == model.flat_m.shape == (size,)
        assert model.copy().block.tobytes() == model.block.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        hidden=st.sampled_from([(5,), (12,), (7, 3)]),
        dtype=st.sampled_from([np.float32, np.float64]),
        n_rows=st.integers(2, 60),
        batch_size=st.integers(2, 32),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(hidden=(7, 3), dtype=np.float32, n_rows=45, batch_size=8, epochs=2, seed=0)
    def test_rows_off_a_line_train_to_the_same_bits(
        self, hidden, dtype, n_rows, batch_size, epochs, seed
    ):
        """Alignment changes speed only: train on ``rows``, widen the softmax
        and train again, with every block and workspace row on a line and
        then one element past it; every float and loss is the same."""
        assume(n_rows % batch_size)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((80, 20)).astype(learner.TRAIN_DTYPE)
        rows = rng.permutation(len(x))[:n_rows]
        y, y2 = rng.integers(0, 3, n_rows), rng.integers(0, 5, n_rows)
        adam = AdamConfig(batch_size=batch_size, seed=seed % 1000)
        net = NetworkConfig(input_dim=20, output_classes=3, hidden_dims=hidden)

        def run():
            model = train_epochs(init_model(net, seed, dtype), x, y, adam, epochs, rows=rows)
            model = expand_outputs(model, 5, seed=seed + 1)
            return train_epochs(model, x, y2, adam, epochs, rows=rows)

        on_line = run()
        with mock.patch.object(learner, "_line_zeros", off_line_zeros):
            off_line = run()
        assert line_offsets(on_line.block) == [0, 0, 0]
        assert line_offsets(off_line.block) == [np.dtype(dtype).itemsize] * 3
        assert off_line.block.tobytes() == on_line.block.tobytes()
        assert off_line.loss_log == on_line.loss_log


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
        assert by_rows.step == on_copy.step  # and the epochs, by the loss logs above

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

    def test_the_loss_of_an_empty_batch_is_an_error(self):
        x, _ = toy_batch()
        model = init_model(TOY_NET, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no nan from 0 / 0 on the way
            with pytest.raises(ValueError, match="no training rows: cannot train on an empty set"):
                cross_entropy(model, x[:0], [])


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
    @pytest.mark.parametrize(
        "blocks, width, hidden",
        [
            (1, 784, (5, 3)),
            (3, 784, (5, 3)),
            # the benchmark workloads' first layers
            (2, 784, (128,)),
            (5, 784, (128,)),
            (2, 16, (128,)),
            (5, 16, (128,)),
        ],
        ids=["1", "3", "784x128-2", "784x128-5", "16x128-2", "16x128-5"],
    )
    def test_deeper_layers_match_a_direct_forward_pass(self, dtype, blocks, width, hidden):
        """Two hidden layers, and the workloads' first layers: ``embed`` and ``predict_proba``
        on ``(X, rows)`` equal a forward pass on ``X[rows]`` in the model's dtype, byte for byte."""
        x = shared_matrix(width)
        n = blocks * learner._BLOCK_ROWS - 24
        rows = np.random.default_rng(blocks).integers(0, len(x), n)
        net = NetworkConfig(input_dim=width, output_classes=6, hidden_dims=hidden)
        model = init_model(net, seed=1, dtype=dtype)
        acts, logits = forward(model, x[rows].astype(dtype))
        got = embed(model, x, rows=rows)
        assert got.dtype == dtype and got.shape == (n, hidden[-1]) and got.any()
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
        """Every function that takes rows names the first one outside the matrix."""
        x, y = toy_batch(n=12)
        model = init_model(TOY_NET, seed=0)
        match = f"row {bad} is outside the 12 rows"
        with mock.patch.object(
            learner, "_dense_relu", wraps=learner._dense_relu
        ) as spy, mock.patch.object(
            learner, "loss_and_gradients", wraps=learner.loss_and_gradients
        ) as step:
            for call in (embed, predict_proba):
                with pytest.raises(ValueError, match=match):
                    call(model, x, rows=rows)
            labels = np.zeros(len(rows), dtype=np.int64)
            with pytest.raises(ValueError, match=match):
                train_epochs(model, x, labels, AdamConfig(batch_size=2), 1, rows=rows)
        assert spy.call_count == step.call_count == 0
        data = Dataset(x, np.full(12, UNLABELED), np.arange(12) % 2, ())
        with pytest.raises(ValueError, match=match):
            make_split(data, SplitSpec(held_out_classes={1}), rows=rows)
        with pytest.raises(ValueError, match=match):
            add_class(data, rows)

    def test_a_row_argument_of_non_integer_dtype_is_rejected_and_an_empty_one_passes(self):
        """Fractional rows are named, not truncated; ``[]``, though float64,
        reaches each function's own checks."""
        x, _ = toy_batch(n=12)
        model = init_model(TOY_NET, seed=0)
        data = Dataset(x, np.full(12, UNLABELED), np.arange(12) % 2, ())
        spec = SplitSpec(held_out_classes={1})
        for rows, kind in (([1.5, 2.9], "float64"), (np.array([True, False]), "bool")):
            match = f"rows must be integer row indices, not {kind}"
            for call in (
                lambda: embed(model, x, rows=rows),
                lambda: make_split(data, spec, rows=rows),
                lambda: add_class(data, rows),
            ):
                with pytest.raises(ValueError, match=match):
                    call()
        assert embed(model, x, rows=[]).shape == (0, 4)
        with pytest.raises(ValueError, match="held-out classes not present"):
            make_split(data, spec, rows=[])
        with pytest.raises(ValueError, match="cannot add an empty class"):
            add_class(data, [])

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
        assert learner._workspace(narrow, np.float32, 10, 4).work.dtype == np.float32

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


DEAD_START = 1e-3  # a first moment left by gradients that then stop for good


def stuck_m_problem(dtype, dead_rows=(0,)):
    """A float model on ten rows whose input column 0 is all zero: the first
    layer's weights out of it get an exactly-zero gradient at every step, and
    their first moments start at ``DEAD_START``."""
    x, y = toy_batch(seed=5, n=10, dim=8)
    x[:, 0] = 0.0
    model = init_model(TOY_NET, seed=5, dtype=dtype)
    model.m[0][list(dead_rows)] = DEAD_START
    model.v[0][list(dead_rows)] = DEAD_START**2
    return model, x, y


class TestSubnormalFlush:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_gradient_that_stays_zero_leaves_m_exactly_zero(self, dtype):
        """``m *= beta1`` alone strands a subnormal ``m``; the per-epoch flush
        zeroes it within one epoch of the steps it takes to leave normal range."""
        model, x, y = stuck_m_problem(dtype)
        adam = AdamConfig(batch_size=1, seed=5)
        tiny = np.finfo(dtype).tiny
        steps = int(np.ceil(np.log(tiny / DEAD_START) / np.log(adam.beta1))) + len(y)
        epochs = -(-steps // len(y))
        flushed = train_epochs(model, x, y, adam, epochs)
        assert flushed.m[0][0].tobytes() == np.zeros(TOY_NET.hidden_dims, dtype).tobytes()
        with mock.patch.object(learner, "_flush_subnormals", lambda m: None):
            stuck = train_epochs(model, x, y, adam, epochs + 20)
        assert (0 < np.abs(stuck.m[0][0])).all() and (np.abs(stuck.m[0][0]) < tiny).all()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        hidden=st.integers(2, 6),
        classes=st.integers(2, 3),
        dead=st.integers(1, 2**6 - 1),
    )
    def test_flushing_keeps_the_parameters_and_second_moments(
        self, seed, dim, hidden, classes, dead
    ):
        """On random float32 problems where some hidden units die after training
        has begun, flushed and unflushed training give the same ``flat_params``
        and ``flat_v`` bytes; only the dead units' stranded ``m`` differs."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((16, dim))
        y = rng.integers(0, classes, 16)
        net = NetworkConfig(input_dim=dim, output_classes=classes, hidden_dims=(hidden,))
        model = init_model(net, seed=seed, dtype=np.float32)
        model.flat_m[:] = rng.standard_normal(len(model.flat_m)) * 1e-2
        model.flat_v[:] = rng.uniform(1e-4, 1e-2, len(model.flat_v))
        units = [u for u in range(hidden) if dead >> u & 1] or [0]
        model.biases[0][units] = -1e3  # those units output 0 for every row from here on
        adam = AdamConfig(batch_size=2, seed=seed)
        epochs = 110  # 880 steps: past the ~800 a float32 m of 1e-2 takes to go subnormal
        flushed = train_epochs(model, x, y, adam, epochs)
        with mock.patch.object(learner, "_flush_subnormals", lambda m: None):
            unflushed = train_epochs(model, x, y, adam, epochs)
        for name in ("flat_params", "flat_v"):
            assert getattr(flushed, name).tobytes() == getattr(unflushed, name).tobytes()
        assert flushed.loss_log == unflushed.loss_log
        stranded = flushed.flat_m != unflushed.flat_m
        assert stranded.any()
        assert (flushed.flat_m[stranded] == 0).all()
        assert (np.abs(unflushed.flat_m[stranded]) < np.finfo(np.float32).tiny).all()
