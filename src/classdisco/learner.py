"""Feedforward softmax classifier trained with Adam, implemented on numpy.

The representation learner: a stack of rectified dense layers feeding a
softmax output. The activations of the last hidden layer are the embedding
used for clustering. Training is plain minibatch cross-entropy with Adam
updates; everything is deterministic given the seeds.

The dense stack is the only architecture built in; richer feature extractors
(convolutions and the like) would slot in by generalizing ``_shapes``,
``init_model``, ``_workspace``, ``loss_and_gradients`` and ``embed``. Nothing
downstream cares about the architecture, only about ``predict_proba`` and ``embed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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


class _Batch(NamedTuple):
    """One batch of an epoch: its views of the workspace's epoch arrays, then of the
    buffers its step writes besides the gradient. Every batch shares those buffers; a
    partial last batch writes their leading rows."""

    start: int  # its first position in the epoch
    rows: np.ndarray  # its rows of features
    label: np.ndarray  # the flat index of each row's label entry in the batch's logits
    onehot: np.ndarray  # each row's label, one-hot
    loss: np.ndarray  # each row's loss term, written by its step
    size: np.ndarray  # 0-d: its row count
    x: np.ndarray  # its rows, gathered
    hidden: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # per layer: activation, error, mask
    logits: np.ndarray
    logits_t: np.ndarray  # a C-ordered transposed copy of the logits, for the row max
    col: np.ndarray  # (size, 1): the row max, then the row sum of exponentials and its log
    col_flat: np.ndarray  # its (size,) view


@dataclass
class _Workspace:
    """Everything a training step writes or reads besides the model; see ``_workspace``."""

    work: np.ndarray  # (2, size): the flat gradient, and Adam's scratch
    grads: list[np.ndarray]  # views of work[0] shaped like params
    rows: np.ndarray  # the epoch's rows of features, in training order
    label: np.ndarray  # the epoch's flat label indices, each into its batch's logits
    onehot: np.ndarray  # the epoch's label one-hot
    loss: np.ndarray  # the epoch's per-row loss terms
    batches: list[_Batch]  # the epoch's batches, in order
    zero: np.ndarray  # 0-d, the rectifier's floor
    # Adam's betas as floats, then as 0-d arrays: beta1, 1 - beta1, beta2, 1 - beta2,
    # the learning rate, epsilon, and the bias corrections 1 - beta**t, written each step
    adam: tuple = ()


def _workspace(
    model: Model, dtype, n: int, batch_size: int, adam: AdamConfig | None = None
) -> _Workspace:
    """The workspace of ``n`` training rows in batches of ``batch_size`` (the last one
    partial), computing in ``dtype``; Adam's operands too when ``adam`` is given.

    Each scalar operand is a 0-d array of its ufunc's dtype: the very float a
    Python scalar is cast to, but a Python float costs each ufunc call
    0.3-0.7 us more to resolve. ``work``'s rows start on cache lines.
    """

    def const(value, of=dtype):
        return np.asarray(value, of)

    cfg, full = model.config, min(batch_size, n)
    col, x = np.empty((full, 1), dtype), np.empty((full, cfg.input_dim), dtype)
    hidden = [np.empty((3, full, w), dtype) for w in cfg.hidden_dims]
    logits = np.empty((full, cfg.output_classes), dtype)
    logits_t = np.empty((cfg.output_classes, full), dtype)

    def buffers(size):
        layers = [tuple(layer[:, :size]) for layer in hidden]
        head = col[:size]
        return const(size), x[:size], layers, logits[:size], logits_t[:, :size], head, head[:, 0]

    work = _line_zeros(2, model.block.shape[1], model.block.dtype)
    rows, label = np.empty(n, np.int64), np.empty(n, np.int64)
    onehot, loss = np.empty((n, cfg.output_classes), dtype), np.empty(n, dtype)
    sizes = {min(batch_size, n - start) for start in range(0, n, batch_size)}
    bufs = {size: buffers(size) for size in sizes}
    batches = [
        _Batch(start, rows[b], label[b], onehot[b], loss[b], *bufs[len(loss[b])])
        for start in range(0, n, batch_size)
        for b in [slice(start, start + batch_size)]
    ]
    ws = _Workspace(
        work, _views(work[0], [p.shape for p in model.params]), rows, label, onehot, loss,
        batches, const(0.0),
    )
    if adam is not None:
        b1, b2, of = adam.beta1, adam.beta2, model.block.dtype
        operands = (b1, 1.0 - b1, b2, 1.0 - b2, adam.learning_rate, adam.epsilon, 1.0, 1.0)
        ws.adam = (b1, b2, *(const(v, of) for v in operands))
    return ws


def _load_labels(ws: _Workspace, y: np.ndarray) -> None:
    """Write the epoch's label index and one-hot for ``y``, one label per epoch row."""
    classes = ws.onehot.shape[1]
    size = len(ws.batches[0].loss)
    np.multiply(np.arange(len(y)) % size, classes, out=ws.label)
    ws.label += y
    np.eye(classes, dtype=ws.onehot.dtype).take(y, 0, ws.onehot, "clip")  # y is checked


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
    of an integer dtype as int64, one a row, at least one row, each in ``[0, output_classes)``."""
    x = as_float(features)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else x.shape} "
            f"does not match input_dim {model.config.input_dim}"
        )
    rows = check_rows(rows, len(x))
    if labels is None:
        return x, rows, None
    y = check_integers(labels, "labels must be integer class labels").astype(np.int64, copy=False)
    n, classes = len(rows), model.config.output_classes
    if len(y) != n:
        raise ValueError(f"{len(y)} labels for {n} training rows")
    if n == 0:
        raise ValueError("no training rows: cannot train on an empty set")
    if y.min() < 0:
        raise ValueError(f"label {y.min()} is no class: training data must be fully labeled")
    if y.max() >= classes:
        raise ValueError(f"label {y.max()} out of range for {classes} output classes")
    return x, rows, y


def check_integers(values, must: str) -> np.ndarray:
    """``values`` as an array of an integer dtype, else ValueError ``"<must>, not <dtype>"``
    (a bool or fractional array is named, never truncated); an empty one passes, as
    ``[]`` is float64. The one dtype rule of every row, label and cluster-id argument."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" and values.size:
        raise ValueError(f"{must}, not {values.dtype}")
    return values


def check_rows(rows, n: int, distinct: bool = False) -> np.ndarray:
    """``rows``, of an integer dtype, as int64 row indices, each in ``[0, n)`` and, if
    ``distinct``, none repeated; None means every row. Every row-index argument passes here."""
    if rows is None:
        rows = np.arange(n)
    rows = check_integers(rows, "rows must be integer row indices")
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
    minimizes, computed by ``loss_and_gradients`` in the dtype the features and model promote to."""
    x, _, y = _checked(model, features, labels=labels)
    return loss_and_gradients(model, x, y)[0]


def loss_and_gradients(model: Model, x: np.ndarray, y, ws: _Workspace | None = None):
    """Cross-entropy loss and its gradients, one per entry of ``model.params``.

    ``x`` must be of the model's width and ``y`` one in-range int64 label a row: this
    checks neither (``train_epochs`` does, once, and ``cross_entropy``). Without ``ws``
    the call builds a one-batch workspace in the dtype ``x`` and the model promote to,
    and returns the mean loss as a float and the gradients as views of its gradient row.

    ``train_epochs`` passes its own workspace ``ws`` and, as ``y``, one of its
    ``_Batch``es, with ``x`` that batch gathered into ``ws``'s dtype. The step reads
    the batch's labels as the flat index and the one-hot its epoch built, writes
    each row's loss term into ``y.loss`` and returns None for the loss: the batch
    means are reduced, checked and logged at the end of the epoch. The gradients
    go to ``ws.grads``, and every intermediate into ``ws``'s batch-sized buffers.

    The softmax runs in place on the logits. Its row max is taken down a C-ordered
    transposed copy, a max across rows that numpy runs about twice as fast as a
    reduce along each short row; a max is exact in any order, so the bits agree.
    """
    deferred = ws is not None  # a training step: its loss is taken at the end of the epoch
    if deferred:
        batch = y
    else:
        ws = _workspace(model, np.result_type(x, model.block), len(x), len(x))
        _load_labels(ws, y)
        (batch,) = ws.batches
    _, _, label, onehot, loss, size, _, hidden, z, z_t, col, col_flat = batch
    zero, grads, weights, biases = ws.zero, ws.grads, model.weights, model.biases

    h = x
    for W, b, (act, _, _) in zip(weights, biases, hidden):
        np.matmul(h, W, out=act)
        np.add(act, b, out=act)
        h = np.maximum(act, zero, out=act)
    np.matmul(h, weights[-1], out=z)
    np.add(z, biases[-1], out=z)

    np.copyto(z_t, z.T)
    np.maximum.reduce(z_t, axis=0, out=col_flat)
    np.subtract(z, col, out=z)
    z_label = z.take(label)
    e = np.exp(z, out=z)
    np.add.reduce(e, axis=1, keepdims=True, out=col)
    delta = np.divide(e, col, out=e)
    np.subtract(np.log(col_flat, out=col_flat), z_label, out=loss)
    np.subtract(delta, onehot, out=delta)
    np.divide(delta, size, out=delta)

    for layer in range(len(weights) - 1, 0, -1):
        act, err, mask = hidden[layer - 1]
        np.matmul(act.T, delta, out=grads[2 * layer])
        np.add.reduce(delta, axis=0, out=grads[2 * layer + 1])
        delta = np.matmul(delta, weights[layer].T, out=err)
        np.multiply(delta, np.greater(act, zero, out=mask), out=delta)
    np.matmul(x.T, delta, out=grads[0])
    np.add.reduce(delta, axis=0, out=grads[1])
    return None if deferred else float(np.add.reduce(loss) / len(loss)), grads


def _adam_update(model: Model, ws: _Workspace) -> None:
    """One Adam step from the gradient in ``ws.work[0]``, in place.

    Per element, in this order: ``m = b1*m + (1-b1)*g``, ``v = b2*v +
    (1-b2)*g**2``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, with every
    operand a 0-d array of ``ws.adam``. The intermediates live in
    ``ws.work[1]`` and, once ``v`` is updated, in the dead gradient row, so
    nothing is allocated and a step sweeps five rows of the model's size.
    """
    model.step += 1
    t = model.step
    beta1, beta2, b1, c1, b2, c2, lr, eps, bc1, bc2 = ws.adam
    m, v, p = model.flat_m, model.flat_v, model.flat_params
    g, num = ws.work
    np.multiply(m, b1, out=m)
    np.add(m, np.multiply(g, c1, out=num), out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, g, out=num)
    np.add(v, np.multiply(num, c2, out=num), out=v)
    # bc1 is exactly 1.0 from t = 356 at beta1 = 0.9, and m / 1.0 is m: skip the divide
    bc1[()] = corr1 = 1.0 - beta1**t
    np.multiply(m if corr1 == 1.0 else np.divide(m, bc1, out=num), lr, out=num)
    bc2[()] = 1.0 - beta2**t
    den = np.divide(v, bc2, out=g)
    np.add(np.sqrt(den, out=den), eps, out=den)
    np.subtract(p, np.divide(num, den, out=num), out=p)


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

    The call builds one ``_workspace``: the gradient and Adam rows, the
    batch-sized buffers of the forward and backward pass, 0-d arrays of every
    scalar operand, and the epoch's arrays. Each epoch writes its rows, its
    label index and one-hot and, step by step, each row's loss term there.
    At the end of the epoch each batch's mean loss is reduced from its rows,
    as the step once took it; the first non-finite one, in batch order, raises
    ``TrainingDivergedError`` naming the epoch and the batch's first sample.
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
    dtype = out.block.dtype
    ws = _workspace(out, dtype, n, adam.batch_size, adam)
    cast = x.dtype != dtype
    for _ in range(epochs):
        order = seeds.spawn(adam.seed, len(out.loss_log)).permutation(n)
        np.take(rows, order, out=ws.rows)
        _load_labels(ws, y[order])
        for batch in ws.batches:
            xb = batch.x
            if cast:
                xb[...] = x.take(batch.rows, axis=0)
            else:  # "clip" skips the copy "raise" makes of its output; the rows are checked
                x.take(batch.rows, 0, xb, "clip")
            loss_and_gradients(out, xb, batch, ws)
            _adam_update(out, ws)
        _flush_subnormals(out.flat_m)
        out.loss_log = out.loss_log + (_epoch_loss(ws, len(out.loss_log)),)
    # a later loss reports a step that left a weight non-finite; nothing follows the last
    if not np.isfinite(out.flat_params).all():
        raise TrainingDivergedError(f"non-finite weight after epoch {len(out.loss_log) - 1}")
    return out


def _epoch_loss(ws: _Workspace, epoch: int) -> float:
    """The mean loss of the epoch just trained, as the mean of its batch means, each
    the mean of its rows' loss terms; the first non-finite batch mean raises."""
    size, n = len(ws.batches[0].loss), len(ws.loss)
    full = n - n % size
    # a reduce along each row of the full batches sums each batch as it sums alone
    means = (np.add.reduce(ws.loss[:full].reshape(-1, size), axis=1) / size).tolist()
    if full < n:
        means.append(float(np.add.reduce(ws.loss[full:]) / (n - full)))
    total = 0.0
    for batch, mean in zip(ws.batches, means):
        if not math.isfinite(mean):
            raise TrainingDivergedError(
                f"non-finite loss in epoch {epoch}, batch starting at sample {batch.start}"
            )
        total += mean * len(batch.loss)
    return total / n


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
