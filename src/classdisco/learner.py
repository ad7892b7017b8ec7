"""Feedforward softmax classifier trained with Adam, implemented on numpy.

The representation learner: a stack of rectified dense layers feeding a
softmax output. The activations of the last hidden layer are the embedding
used for clustering. Training is plain minibatch cross-entropy with Adam
updates; everything is deterministic given the seeds.

The dense stack is the only architecture built in; richer feature extractors
(convolutions and the like) would slot in by generalizing ``_shapes``,
``init_model``, ``_forward`` and ``embed``. Nothing downstream cares about the
architecture, only about ``predict_proba`` and ``embed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import seeds


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int | None = None
    output_classes: int | None = None
    hidden_dims: tuple[int, ...] = (128,)

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", self.check_hidden_dims(self.hidden_dims))
        if self.input_dim is not None and self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.output_classes is not None and self.output_classes < 2:
            raise ValueError("output_classes must be >= 2")

    @staticmethod
    def check_hidden_dims(hidden_dims) -> tuple[int, ...]:
        """Hidden layer widths as a tuple: at least one layer, each >= 1."""
        dims = tuple(int(h) for h in hidden_dims)
        if not dims:
            raise ValueError("at least one hidden layer is required (it is the embedding)")
        if any(h < 1 for h in dims):
            raise ValueError("hidden dims must be >= 1")
        return dims


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class Model:
    """Weights plus optimizer state. Treat as owned during training; inference is read-only.

    ``block`` is one ``(3, size)`` array: its rows ``flat_params``, ``flat_m``
    and ``flat_v`` hold the parameters ``[W0, b0, W1, b1, ...]`` and their Adam
    moments, laid out by the config's layers. ``params``, ``m`` and ``v`` (and
    ``weights`` and ``biases``) are lists of views of those rows, one array per
    layer weight or bias, so an Adam step is a few whole-vector ufuncs. One
    block rather than three vectors keeps the allocator's peak RSS at the
    per-array layout's.
    """

    config: NetworkConfig
    block: np.ndarray
    step: int = 0
    epochs_trained: int = 0
    loss_log: tuple[float, ...] = ()

    def __post_init__(self):
        self.flat_params, self.flat_m, self.flat_v = self.block
        shapes = _shapes(self.config)
        self.params, self.m, self.v = (_views(row, shapes) for row in self.block)
        self.weights, self.biases = self.params[0::2], self.params[1::2]

    def copy(self) -> "Model":
        """An independent model: a copy of the block."""
        return replace(self, block=self.block.copy())


def _shapes(cfg: NetworkConfig) -> list[tuple[int, ...]]:
    """The shapes of ``[W0, b0, W1, b1, ...]`` for ``cfg``'s layers."""
    dims = [cfg.input_dim, *cfg.hidden_dims, cfg.output_classes]
    return [shape for fan in zip(dims[:-1], dims[1:]) for shape in (fan, fan[1:])]


def _zero_block(cfg: NetworkConfig, dtype) -> np.ndarray:
    """A ``Model.block`` for ``cfg``: zero parameters and zero Adam moments."""
    return np.zeros((3, sum(math.prod(shape) for shape in _shapes(cfg))), dtype)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _workspace(model: Model) -> tuple[np.ndarray, list[np.ndarray]]:
    """Training buffers: a ``(3, size)`` array and views of its row 0 shaped like ``params``.

    Row 0 holds the flat gradient, rows 1 and 2 are Adam's scratch.
    """
    work = np.zeros_like(model.block)
    return work, _views(work[0], [p.shape for p in model.params])


def init_model(cfg: NetworkConfig, seed: int, dtype=np.float64) -> Model:
    """Fan-in-scaled normal init (std sqrt(2/fan_in)), zero biases, zero Adam state, in
    ``dtype``: the weights are drawn in float64 and cast, so every dtype starts alike."""
    if cfg.input_dim is None or cfg.output_classes is None:
        raise ValueError("input_dim and output_classes must be set before building a model")
    rng = seeds.spawn(seed)
    model = Model(cfg, _zero_block(cfg, dtype))
    for W in model.weights:
        W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[0]), size=W.shape)
    return model


def _check_width(model: Model, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else x.shape} "
            f"does not match input_dim {model.config.input_dim}"
        )
    return x


def _check_rows(rows, n: int) -> np.ndarray:
    """``rows`` as int64 row indices, each in ``[0, n)``; None means every row."""
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    bad = rows[(rows < 0) | (rows >= n)]
    if len(bad):
        raise ValueError(f"row {bad[0]} is outside the {n} rows of features")
    return rows


def _dense_relu(h: np.ndarray, W: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``relu(h @ W + b)`` in one array (``out`` when given), bit-identical to
    ``np.maximum(h @ W + b, 0.0)``."""
    out = np.matmul(h, W, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _logits(model: Model, h: np.ndarray) -> np.ndarray:
    logits = h @ model.weights[-1]
    logits += model.biases[-1]
    return logits


def _forward(model: Model, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Return hidden activations (post-rectifier, including input) and logits."""
    acts = [x]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(_dense_relu(acts[-1], W, b))
    return acts, _logits(model, acts[-1])


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(model: Model, features, rows=None) -> np.ndarray:
    """Softmax class probabilities, one row per sample, rows summing to 1.

    ``rows`` is as in ``embed``. Entries are strictly inside (0, 1) except
    under extreme logit gaps, where the losing entries saturate to 0: beyond
    ~745 in a float64 model, and already beyond ~88 in a float32 one.
    """
    return _softmax(_logits(model, embed(model, features, rows)))


_BLOCK_ROWS = 1024  # inference runs the first layer over at most this many rows at once


def embed(model: Model, features, rows=None) -> np.ndarray:
    """Last hidden layer's activations: the embedding space used for clustering.

    ``rows`` names the rows of ``features`` to embed, in order (default:
    all), read by index as in ``train_epochs``: the result is bit-identical
    to embedding ``features[rows]``. The first layer runs over them in
    ``ceil(n / _BLOCK_ROWS)`` equal blocks, each read from ``features`` and
    written into one preallocated activation, so at most one block of rows
    is copied; the deeper layers run on the whole activation. A model of
    another dtype than ``features`` gathers each block and then casts it, so
    one block's gather and its cast are the most it holds beside ``h``.
    """
    x = _check_width(model, features)
    rows = _check_rows(rows, len(x))
    W, b = model.weights[0], model.biases[0]
    h = np.empty((len(rows), W.shape[1]), W.dtype)
    blocks = max(1, -(-len(rows) // _BLOCK_ROWS))
    for part, out in zip(np.array_split(rows, blocks), np.array_split(h, blocks)):
        _dense_relu(x[part].astype(W.dtype, copy=False), W, b, out=out)
    for W, b in zip(model.weights[1:-1], model.biases[1:-1]):
        h = _dense_relu(h, W, b)
    return h


def cross_entropy(model: Model, features, labels) -> float:
    """Mean cross-entropy of the model on a labeled batch."""
    x = _check_width(model, features)
    y = np.asarray(labels, dtype=np.int64)
    _, logits = _forward(model, x)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def loss_and_gradients(model: Model, x: np.ndarray, y: np.ndarray, grads=None):
    """Cross-entropy loss and its gradients, one per entry of ``model.params``.

    ``x`` must be of the model's dtype and input width and ``y`` int64: unlike
    the inference functions, this checks neither (``train_epochs`` does, once).
    The gradients are written into ``grads`` when it is given (arrays shaped
    like ``model.params``), else into new arrays, and returned.
    """
    n = x.shape[0]
    acts, logits = _forward(model, x)

    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    e_sum = e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    # sum / n is np.mean's own arithmetic, without its per-call Python overhead
    loss = float((np.log(e_sum[:, 0]) - z[rows, y]).sum() / n)

    delta = e / e_sum
    delta[rows, y] -= 1.0
    delta /= n

    if grads is None:
        grads = [np.empty_like(p) for p in model.params]
    for layer in range(len(grads) // 2 - 1, -1, -1):
        np.matmul(acts[layer].T, delta, out=grads[2 * layer])
        delta.sum(axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            delta = (delta @ model.params[2 * layer].T) * (acts[layer] > 0)
    return loss, grads


def _adam_update(model: Model, work: np.ndarray, adam: AdamConfig) -> None:
    """One Adam step from the gradient in ``work[0]`` (see ``_workspace``), in place.

    Per element, in this order: ``m = b1*m + (1-b1)*g``, ``v = b2*v +
    (1-b2)*g**2``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``; the
    intermediates live in ``work[1]`` and ``work[2]``, so nothing is allocated.
    """
    model.step += 1
    t = model.step
    bc1 = 1.0 - adam.beta1**t
    bc2 = 1.0 - adam.beta2**t
    m, v = model.flat_m, model.flat_v
    g, num, den = work
    m *= adam.beta1
    m += np.multiply(g, 1.0 - adam.beta1, out=num)
    v *= adam.beta2
    np.multiply(g, g, out=num)
    v += np.multiply(num, 1.0 - adam.beta2, out=num)
    # bc1 is exactly 1.0 from t = 356 at beta1 = 0.9, and m / 1.0 is m: skip the divide
    np.multiply(m if bc1 == 1.0 else np.divide(m, bc1, out=num), adam.learning_rate, out=num)
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += adam.epsilon
    model.flat_params -= np.divide(num, den, out=num)


@np.errstate(over="ignore", invalid="ignore")  # a diverging step fails the finite-loss check
def train_epochs(
    model: Model, features, labels, adam: AdamConfig, epochs: int, rows=None
) -> Model:
    """Minibatch cross-entropy training; returns a new model, input untouched.

    ``rows`` names the training rows of ``features`` in training order
    (default: all rows), each checked against ``features`` before any work;
    ``labels`` holds one label per training row. Each batch is gathered
    from ``features`` and cast to the model's dtype, so training on ``rows``
    is bit-identical to training on ``features[rows]``, without copying them.

    The shuffle for each epoch is derived from ``adam.seed`` and the model's
    global epoch counter, so repeated calls continue the same deterministic
    stream and identical runs produce bit-identical weights.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return model
    x = _check_width(model, features)
    y = np.asarray(labels, dtype=np.int64)
    rows = _check_rows(rows, len(x))
    n = len(rows)
    if len(y) != n:
        raise ValueError(f"{len(y)} labels for {n} training rows")
    if n == 0:
        raise ValueError("no training rows: cannot train on an empty set")
    if (y < 0).any():
        raise ValueError("training data must be fully labeled")
    if y.max() >= model.config.output_classes:
        raise ValueError(
            f"label {int(y.max())} out of range for {model.config.output_classes} output classes"
        )

    out = model.copy()
    work, grads = _workspace(out)
    dtype = out.flat_params.dtype
    for _ in range(epochs):
        rng = seeds.spawn(adam.seed, out.epochs_trained)
        order = rng.permutation(n)
        x_rows = rows[order]
        y_order = y[order]
        total = 0.0
        for start in range(0, n, adam.batch_size):
            batch = slice(start, start + adam.batch_size)
            y_batch = y_order[batch]
            loss, _ = loss_and_gradients(
                out, x[x_rows[batch]].astype(dtype, copy=False), y_batch, grads
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {out.epochs_trained}, "
                    f"batch starting at sample {start}"
                )
            _adam_update(out, work, adam)
            total += loss * len(y_batch)
        out.epochs_trained += 1
        out.loss_log = out.loss_log + (total / n,)
    return out


def expand_outputs(model: Model, new_output_classes: int, seed: int) -> Model:
    """Widen the softmax layer for new classes; everything else is untouched.

    Existing output columns and all hidden layers (hence the embedding
    function) are preserved exactly; new columns get the fan-in init and zero
    optimizer state.
    """
    old = model.config.output_classes
    if new_output_classes <= old:
        raise ValueError(f"cannot shrink outputs from {old} to {new_output_classes}")
    fan_in, extra = model.weights[-1].shape[0], new_output_classes - old
    new_cols = seeds.spawn(seed).normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, extra))
    config = replace(model.config, output_classes=new_output_classes)
    out = replace(model, config=config, block=_zero_block(config, model.block.dtype))
    for got, was in zip(out.params + out.m + out.v, model.params + model.m + model.v):
        got[tuple(map(slice, was.shape))] = was
    out.weights[-1][:, old:] = new_cols
    return out
