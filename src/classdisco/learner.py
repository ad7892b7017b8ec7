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

TRAIN_DTYPE = np.float32  # of every model the engine and scorer train, the embeddings and features
_LINE = 64  # bytes: every row of a model block or training workspace starts on a cache line


def as_float(x) -> np.ndarray:
    """``x`` as a float array: float32 stays float32, uncopied; anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss, weight or prediction."""


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
        if self.epsilon < float(np.finfo(TRAIN_DTYPE).smallest_subnormal):  # else 0 in float32
            raise ValueError("epsilon must be at least float32's smallest subnormal, 1.4e-45")
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
    per-array layout's. Each row starts on a 64-byte cache line, where Adam's
    whole-row ufuncs run up to ~15% faster than a few bytes past one, with the same bits.
    """

    config: NetworkConfig
    block: np.ndarray
    step: int = 0  # Adam updates so far
    loss_log: tuple[float, ...] = ()  # one mean loss per epoch; its length seeds the shuffle

    def __post_init__(self):
        self.flat_params, self.flat_m, self.flat_v = self.block
        shapes = _shapes(self.config)
        self.params, self.m, self.v = (_views(row, shapes) for row in self.block)
        self.weights, self.biases = self.params[0::2], self.params[1::2]

    def copy(self) -> "Model":
        """An independent model: a copy of the block, its rows on fresh lines."""
        block = _line_zeros(*self.block.shape, self.block.dtype)
        block[...] = self.block
        return replace(self, block=block)


def _shapes(cfg: NetworkConfig) -> list[tuple[int, ...]]:
    """The shapes of ``[W0, b0, W1, b1, ...]`` for ``cfg``'s layers."""
    dims = [cfg.input_dim, *cfg.hidden_dims, cfg.output_classes]
    return [shape for fan in zip(dims[:-1], dims[1:]) for shape in (fan, fan[1:])]


def _line_zeros(rows: int, size: int, dtype) -> np.ndarray:
    """A ``(rows, size)`` zero array, each row on a ``_LINE``-byte boundary (stride padded)."""
    itemsize = np.dtype(dtype).itemsize
    stride = -(-size * itemsize // _LINE) * _LINE // itemsize
    raw = np.zeros(rows * stride + _LINE // itemsize, dtype)
    start = -raw.ctypes.data % _LINE // itemsize
    return raw[start : start + rows * stride].reshape(rows, stride)[:, :size]


def _zero_block(cfg: NetworkConfig, dtype) -> np.ndarray:
    """A ``Model.block`` for ``cfg``: zero parameters and zero Adam moments."""
    return _line_zeros(3, sum(math.prod(shape) for shape in _shapes(cfg)), dtype)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _workspace(model: Model) -> tuple[np.ndarray, list[np.ndarray]]:
    """Training buffers: a ``(3, size)`` array and views of its row 0 shaped like ``params``.

    Row 0 holds the flat gradient, rows 1 and 2 are Adam's scratch, each on a line.
    """
    work = _line_zeros(*model.block.shape, model.block.dtype)
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


def _checked(model: Model, features, rows=None, labels=None):
    """The learner's one input check, run once a call: ``features`` as by ``as_float``,
    of the model's width; ``rows`` as by ``check_rows``; and, unless None, ``labels``
    as int64, one a row, at least one row, each in ``[0, output_classes)``."""
    x = as_float(features)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else x.shape} "
            f"does not match input_dim {model.config.input_dim}"
        )
    rows = check_rows(rows, len(x))
    if labels is None:
        return x, rows, None
    y, n, classes = np.asarray(labels, dtype=np.int64), len(rows), model.config.output_classes
    if len(y) != n:
        raise ValueError(f"{len(y)} labels for {n} training rows")
    if n == 0:
        raise ValueError("no training rows: cannot train on an empty set")
    if y.min() < 0:
        raise ValueError(f"label {y.min()} is no class: training data must be fully labeled")
    if y.max() >= classes:
        raise ValueError(f"label {y.max()} out of range for {classes} output classes")
    return x, rows, y


def check_rows(rows, n: int, distinct: bool = False) -> np.ndarray:
    """``rows``, of an integer dtype, as int64 row indices, each in ``[0, n)`` and, if
    ``distinct``, none repeated; None means every row. Every row-index argument passes here."""
    rows = np.arange(n) if rows is None else np.asarray(rows)
    if rows.dtype.kind not in "iu" and rows.size:  # [] is float64
        raise ValueError(f"rows must be integer row indices, not {rows.dtype}")
    bad = rows[(rows < 0) | (rows >= n)]
    if len(bad):
        raise ValueError(f"row {bad[0]} is outside the {n} rows of features")
    if distinct and (np.unique(rows, return_counts=True)[1] > 1).any():
        raise ValueError("rows must name distinct rows of features")
    return rows.astype(np.int64, copy=False)


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


def predict_proba(model: Model, features, rows=None, dtype=None) -> np.ndarray:
    """Softmax class probabilities, one row per sample, rows summing to 1.

    ``rows`` is as in ``embed``; the softmax runs in ``dtype`` (default: the
    model's). Entries are strictly inside (0, 1) except under extreme logit
    gaps, where the losing entries saturate to 0: beyond ~745 in float64, and
    already beyond ~88 in float32. A row whose probabilities are not finite
    (its logits overflow) raises TrainingDivergedError naming that row.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are reported below
        logits = _logits(model, embed(model, features, rows))
        proba = _softmax(logits.astype(dtype or logits.dtype, copy=False))
    bad = np.flatnonzero(~np.isfinite(proba).all(axis=1))
    if len(bad):
        row = bad[0] if rows is None else np.asarray(rows)[bad[0]]  # embed checked rows
        raise TrainingDivergedError(f"non-finite prediction for row {row} of features")
    return proba


_BLOCK_ROWS = 1024  # inference runs the first layer over at most this many rows at once


@np.errstate(over="ignore", invalid="ignore")  # k-means and the scorer report non-finite rows
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
    x, rows, _ = _checked(model, features, rows)
    W, b = model.weights[0], model.biases[0]
    h = np.empty((len(rows), W.shape[1]), W.dtype)
    blocks = max(1, -(-len(rows) // _BLOCK_ROWS))
    for part, out in zip(np.array_split(rows, blocks), np.array_split(h, blocks)):
        _dense_relu(x[part].astype(W.dtype, copy=False), W, b, out=out)
    for W, b in zip(model.weights[1:-1], model.biases[1:-1]):
        h = _dense_relu(h, W, b)
    return h


def cross_entropy(model: Model, features, labels) -> float:
    """Mean cross-entropy of the model on a labeled batch: the loss that training
    minimizes, computed by ``loss_and_gradients`` in the dtype ``_forward`` promotes to."""
    x, _, y = _checked(model, features, labels=labels)
    return loss_and_gradients(model, x, y)[0]


def loss_and_gradients(model: Model, x: np.ndarray, y: np.ndarray, grads=None):
    """Cross-entropy loss and its gradients, one per entry of ``model.params``.

    ``x`` must be of the model's dtype and width, and ``y`` one in-range int64 label a
    row: this checks neither (``train_epochs`` does, once, and ``cross_entropy``).
    The gradients are written into ``grads`` when it is given (arrays shaped
    like ``model.params``), else into new arrays, and returned.
    """
    n, classes = x.shape[0], model.config.output_classes
    acts, z = _forward(model, x)

    # the softmax runs in place on the fresh logits; one flat index reads each row's label entry
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    label = np.arange(0, n * classes, classes) + y
    z_label = z.take(label)
    e = np.exp(z, out=z)
    e_sum = np.add.reduce(e, axis=1, keepdims=True)
    # sum / n is np.mean's own arithmetic, without its per-call Python overhead
    loss = float(np.add.reduce(np.log(e_sum[:, 0]) - z_label) / n)

    delta = np.divide(e, e_sum, out=e)
    delta.reshape(-1)[label] -= 1.0
    delta /= n

    if grads is None:
        grads = [np.empty_like(p) for p in model.params]
    for layer in range(len(grads) // 2 - 1, -1, -1):
        np.matmul(acts[layer].T, delta, out=grads[2 * layer])
        np.add.reduce(delta, axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            delta = delta @ model.params[2 * layer].T
            delta *= acts[layer] > 0
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

    Each epoch's shuffle is seeded by ``adam.seed`` and the epochs trained so far
    (``len(loss_log)``), so repeated calls continue one deterministic stream
    and identical runs produce bit-identical weights.
    After each epoch, ``flat_m`` entries below the dtype's smallest normal are
    set to 0: ``m *= beta1`` cannot round a subnormal to 0, and subnormals slow every step.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return model
    x, rows, y = _checked(model, features, rows, labels)
    n = len(rows)

    out = model.copy()
    work, grads = _workspace(out)
    dtype = out.flat_params.dtype
    for _ in range(epochs):
        rng = seeds.spawn(adam.seed, len(out.loss_log))
        order = rng.permutation(n)
        x_rows = rows[order]
        y_order = y[order]
        total = 0.0
        for start in range(0, n, adam.batch_size):
            batch = slice(start, start + adam.batch_size)
            y_batch = y_order[batch]
            loss, _ = loss_and_gradients(
                out, x.take(x_rows[batch], axis=0).astype(dtype, copy=False), y_batch, grads
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {len(out.loss_log)}, "
                    f"batch starting at sample {start}"
                )
            _adam_update(out, work, adam)
            total += loss * len(y_batch)
        _flush_subnormals(out.flat_m)
        out.loss_log = out.loss_log + (total / n,)
    # a later loss reports a step that left a weight non-finite; nothing follows the last
    if not np.isfinite(out.flat_params).all():
        raise TrainingDivergedError(f"non-finite weight after epoch {len(out.loss_log) - 1}")
    return out


def _flush_subnormals(m: np.ndarray) -> None:
    m[np.abs(m) < np.finfo(m.dtype).tiny] = 0  # moves no parameter above ~1e-26 in magnitude


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
