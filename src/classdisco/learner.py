"""Feedforward softmax classifier trained with Adam, implemented on numpy.

The representation learner: a stack of rectified dense layers feeding a
softmax output. The activations of the last hidden layer are the embedding
used for clustering. Training is plain minibatch cross-entropy with Adam
updates; everything is deterministic given the seeds.

The dense stack is the only architecture built in; richer feature extractors
(convolutions and the like) would slot in by generalizing ``_layer_sizes``,
``init_model``, and ``_forward``. Nothing downstream cares about the
architecture, only about ``predict_proba`` and ``embed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import seeds
from .dataset import Dataset, UNLABELED

CHECKPOINT_VERSION = 1


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

    ``params`` is ``[W0, b0, W1, b1, ...]``; the Adam moments ``m`` and ``v``
    hold one array per entry of ``params``, in the same order.
    """

    config: NetworkConfig
    params: list[np.ndarray]
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    epochs_trained: int = 0
    loss_log: tuple[float, ...] = ()

    @property
    def weights(self) -> list[np.ndarray]:
        return self.params[0::2]

    @property
    def biases(self) -> list[np.ndarray]:
        return self.params[1::2]

    def copy(self) -> "Model":
        return replace(
            self,
            params=[p.copy() for p in self.params],
            m=[a.copy() for a in self.m],
            v=[a.copy() for a in self.v],
        )

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params)


def _layer_sizes(cfg: NetworkConfig) -> list[tuple[int, int]]:
    dims = [cfg.input_dim, *cfg.hidden_dims, cfg.output_classes]
    return list(zip(dims[:-1], dims[1:]))


def init_model(cfg: NetworkConfig, seed: int) -> Model:
    """Fan-in-scaled normal init (std sqrt(2/fan_in)), zero biases, zero Adam state."""
    if cfg.input_dim is None or cfg.output_classes is None:
        raise ValueError("input_dim and output_classes must be set before building a model")
    rng = seeds.spawn(seed)
    params = []
    for fan_in, fan_out in _layer_sizes(cfg):
        params.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return Model(
        config=cfg,
        params=params,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def _check_width(model: Model, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else x.shape} "
            f"does not match input_dim {model.config.input_dim}"
        )
    return x


def _forward(model: Model, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Return hidden activations (post-rectifier, including input) and logits."""
    acts = [x]
    h = x
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
        acts.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    return acts, logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(model: Model, features) -> np.ndarray:
    """Softmax class probabilities, one row per sample, rows summing to 1.

    Entries are strictly inside (0, 1) except under extreme logit gaps
    (beyond ~745), where float64 saturates the losing entries to 0.
    """
    x = _check_width(model, features)
    _, logits = _forward(model, x)
    return _softmax(logits)


def embed(model: Model, features) -> np.ndarray:
    """Penultimate-layer activations: the embedding space used for clustering."""
    x = _check_width(model, features)
    acts, _ = _forward(model, x)
    return acts[-1]


def cross_entropy(model: Model, features, labels) -> float:
    """Mean cross-entropy of the model on a labeled batch."""
    x = _check_width(model, features)
    y = np.asarray(labels, dtype=np.int64)
    _, logits = _forward(model, x)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def loss_and_gradients(model: Model, features, labels):
    """Cross-entropy loss and its gradients, one per entry of ``model.params``."""
    x = _check_width(model, features)
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    acts, logits = _forward(model, x)

    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    lse = np.log(e.sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(n), y]))

    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads = [np.empty(0)] * len(model.params)
    for layer in range(len(model.params) // 2 - 1, -1, -1):
        grads[2 * layer] = acts[layer].T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.params[2 * layer].T) * (acts[layer] > 0)
    return loss, grads


def _adam_update(model: Model, grads, adam: AdamConfig) -> None:
    model.step += 1
    t = model.step
    bc1 = 1.0 - adam.beta1**t
    bc2 = 1.0 - adam.beta2**t
    for param, grad, m, v in zip(model.params, grads, model.m, model.v):
        m *= adam.beta1
        m += (1.0 - adam.beta1) * grad
        v *= adam.beta2
        v += (1.0 - adam.beta2) * grad**2
        param -= adam.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + adam.epsilon)


def train_epochs(model: Model, data: Dataset, adam: AdamConfig, epochs: int) -> Model:
    """Minibatch cross-entropy training; returns a new model, input untouched.

    The shuffle for each epoch is derived from ``adam.seed`` and the model's
    global epoch counter, so repeated calls continue the same deterministic
    stream and identical runs produce bit-identical weights.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return model
    if (data.labels == UNLABELED).any():
        raise ValueError("training data must be fully labeled")
    if data.labels.max() >= model.config.output_classes:
        raise ValueError(
            f"label {int(data.labels.max())} out of range for "
            f"{model.config.output_classes} output classes"
        )

    out = model.copy()
    x = _check_width(out, data.features)
    y = data.labels
    n = len(y)
    for _ in range(epochs):
        rng = seeds.spawn(adam.seed, out.epochs_trained)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, adam.batch_size):
            batch = order[start : start + adam.batch_size]
            loss, grads = loss_and_gradients(out, x[batch], y[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {out.epochs_trained}, "
                    f"batch starting at sample {start}"
                )
            _adam_update(out, grads, adam)
            total += loss * len(batch)
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
    out = model.copy()
    extra = new_output_classes - old
    fan_in = out.params[-2].shape[0]
    rng = seeds.spawn(seed)
    new_cols = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, extra))
    out.params[-2] = np.concatenate([out.params[-2], new_cols], axis=1)
    out.params[-1] = np.concatenate([out.params[-1], np.zeros(extra)])
    for moments in (out.m, out.v):
        moments[-2] = np.concatenate([moments[-2], np.zeros((fan_in, extra))], axis=1)
        moments[-1] = np.concatenate([moments[-1], np.zeros(extra)])
    out.config = replace(out.config, output_classes=new_output_classes)
    return out


def _npz_keys(n_layers: int) -> list[list[str]]:
    """Checkpoint keys of params, m and v: [w0, b0, w1, ...], [mw0, mb0, ...], [vw0, ...]."""
    names = [f"{kind}{i}" for i in range(n_layers) for kind in "wb"]
    return [[prefix + name for name in names] for prefix in ("", "m", "v")]


def save_model(model: Model, path: str) -> None:
    """Checkpoint: npz of all tensors plus a JSON metadata blob. Round-trips bit-exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "input_dim": model.config.input_dim,
        "output_classes": model.config.output_classes,
        "hidden_dims": list(model.config.hidden_dims),
        "step": model.step,
        "epochs_trained": model.epochs_trained,
        "loss_log": list(model.loss_log),
        "n_layers": len(model.weights),
    }
    arrays = {}
    for keys, tensors in zip(_npz_keys(meta["n_layers"]), (model.params, model.m, model.v)):
        arrays.update(zip(keys, tensors))
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_model(path: str) -> Model:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        cfg = NetworkConfig(
            input_dim=meta["input_dim"],
            output_classes=meta["output_classes"],
            hidden_dims=tuple(meta["hidden_dims"]),
        )
        params, m, v = ([data[k] for k in keys] for keys in _npz_keys(meta["n_layers"]))
        return Model(
            config=cfg,
            params=params,
            m=m,
            v=v,
            step=meta["step"],
            epochs_trained=meta["epochs_trained"],
            loss_log=tuple(meta["loss_log"]),
        )
