"""JSON experiment configuration: strict parsing, echoing, and validation.

Parsing and echoing walk the dataclass fields of ``ExperimentConfig`` and its
sections, so every key, its type and its default are declared once, on the
dataclass; a field without a default is a required key. Unknown keys are
errors so a typo can never silently fall back to a default. Each value must
already have its field's JSON type: integers for ``int`` fields (never a
bool, string or float), finite numbers for ``float`` fields, JSON booleans
for flags, lists for the tuple and set fields; nothing is coerced. Every
error names the dotted key path. ``config_to_dict`` materializes every
default, which is what run reports echo; parsing that echo reproduces the
exact same configuration.

``ExperimentConfig``, ``ConfigError`` and the class-count experiment's config
live here too, so the configuration never imports the engine that runs it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from typing import Any

import numpy as np

from .clustering import KMeansConfig
from .dataset import DataSource, Dataset, SplitSpec
from .learner import TRAIN_DTYPE, AdamConfig, NetworkConfig
from .selection import LearnabilityConfig, SelectionPolicy

OOD_MODES = ("oracle", "detector")
N_EVAL_CLASSES = 5  # the class-count experiment holds out the last five classes


class ConfigError(ValueError):
    """A configuration document is malformed; the message names the field."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    data: DataSource
    split: SplitSpec
    net: NetworkConfig = NetworkConfig()
    adam: AdamConfig = AdamConfig()
    kmeans: KMeansConfig = KMeansConfig()
    policy: SelectionPolicy = SelectionPolicy()
    learnability: LearnabilityConfig = LearnabilityConfig()
    epochs_initial: int = 1
    epochs_per_round: int = 1
    rounds: int | None = None
    ood_mode: str = "oracle"
    detector_quantile: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.ood_mode not in OOD_MODES:
            raise ValueError(f"ood_mode must be one of {OOD_MODES}")
        if not 0.0 < self.detector_quantile < 1.0:
            raise ValueError("detector_quantile must lie strictly between 0 and 1")
        if self.epochs_initial < 0 or self.epochs_per_round < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.rounds is not None and self.rounds < 0:
            raise ValueError("rounds must be >= 0")

# JSON type a scalar annotation accepts: (description, check). The float bound
# rejects NaN, Infinity and 1e400 (read as inf), and compares a huge int exactly.
_SCALARS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: (
        "a finite number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max,
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _show(value) -> str:
    return json.dumps(value, default=repr)


def _key(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _check_keys(doc, path: str, allowed, required=()) -> None:
    where = path or "<root>"
    if not isinstance(doc, dict):
        raise ConfigError(f"'{where}' must be an object, got {_show(doc)}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} under '{where}'")
    for name in required:
        if name not in doc:
            raise ConfigError(f"missing required key '{_key(path, name)}'")


def _value(value, tp, path: str):
    """Check one JSON value against a field annotation and convert it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if value is None and len(members) < len(args):  # X | None
            return None
        if len(members) > 1:
            return _parse_tagged(members, value, path)
        return _value(value, members[0], path)
    if dataclasses.is_dataclass(tp):
        return _parse(tp, value, path)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list, got {_show(value)}")
        return origin(_value(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    what, accepts = _SCALARS[tp]
    if not accepts(value):
        raise ConfigError(f"'{path}' must be {what}, got {_show(value)}")
    if tp is str and (not value or "\0" in value):  # open() would name neither key nor file
        raise ConfigError(f"'{path}' must be a non-empty string without NUL, got {_show(value)}")
    return float(value) if tp is float else value


def _parse(cls, doc, path: str):
    """Build dataclass ``cls`` from a JSON object, one key per field."""
    fields = dataclasses.fields(cls)
    required = [
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    _check_keys(doc, path, [f.name for f in fields], required)
    hints = typing.get_type_hints(cls)
    kwargs = {name: _value(v, hints[name], _key(path, name)) for name, v in doc.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid '{path or '<root>'}': {exc}") from exc


def _parse_tagged(members, doc, path: str):
    """Build the member of a union of dataclasses that the ``kind`` key names."""
    _check_keys(doc, path, doc, ["kind"])  # the other keys depend on the kind
    kind = doc["kind"]
    cls = next((m for m in members if m.kind == kind), None)
    if cls is None:
        kinds = ", ".join(m.kind for m in members)
        raise ConfigError(f"'{_key(path, 'kind')}' must be one of {kinds}; got {_show(kind)}")
    return _parse(cls, {k: v for k, v in doc.items() if k != "kind"}, path)


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON document, rejecting unknown keys."""
    return _parse(ExperimentConfig, doc, "")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated name is an error, never a silent last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        names = [name for name, _ in pairs]
        raise ValueError(f"duplicate key {next(n for n in doc if names.count(n) > 1)!r}")
    return doc


def load_config(path: str) -> ExperimentConfig:
    """Read a config file; a run report is accepted too (its embedded config is used)."""
    try:
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, a repeated key, or an int past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and str(doc.get("schema", "")).startswith("classdisco-report"):
        doc = doc.get("config")
        if not isinstance(doc, dict):
            raise ConfigError(f"report file {path} carries no embedded config")
    return parse_config(doc)


def config_to_dict(value: Any) -> Any:
    """Exact JSON echo of a configuration, or of any section or value in it, all defaults
    materialized."""
    if dataclasses.is_dataclass(value):
        return {f.name: config_to_dict(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _block_items(dims) -> int:
    """Items in the parameter block of a network of layer widths ``dims``:
    3 rows (parameters and the two Adam moments) of its parameter count."""
    return 3 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def validate_config(cfg: ExperimentConfig, width: int, counts: dict[int, int]) -> list[str]:
    """Cross-field checks and checks against the data's ``shape()``; returns the problems."""
    problems: list[str] = []

    held_out = cfg.split.held_out_classes
    if not held_out:
        problems.append("split.held_out_classes is empty: discovery has no OOD pool")
    if cfg.rounds is not None and cfg.rounds > len(held_out):
        problems.append(
            f"rounds ({cfg.rounds}) exceeds the number of held-out classes ({len(held_out)})"
        )

    missing = sorted(c for c in held_out if c not in counts)
    if missing:
        problems.append(f"split.held_out_classes names classes not present in data: {missing}")
    cap = cfg.split.per_class_cap
    pool = sum(
        min(counts[c], cap) if cap is not None else counts[c] for c in held_out if c in counts
    )
    if held_out and not missing and cfg.kmeans.k > pool:
        problems.append(f"kmeans.k ({cfg.kmeans.k}) exceeds the OOD pool size ({pool})")
    trainable = len(counts.keys() - held_out)
    if trainable < 2:
        problems.append(
            f"split.held_out_classes leaves {trainable} of {len(counts)} classes to train on; "
            "the classifier needs at least 2"
        )
    for key, resolved in (("input_dim", width), ("output_classes", trainable)):
        value = getattr(cfg.net, key)
        if value is not None and value != resolved:
            problems.append(f"net.{key} ({value}) differs from the data's value ({resolved})")

    # Arrays the config alone sizes; past numpy's limit they would fail only after
    # training. The classifier gains an output per accepted cluster, and the scorer
    # has at most one per cluster and labeled class.
    net, learn, k = cfg.net, cfg.learnability, cfg.kmeans.k
    scorer_in = net.hidden_dims[-1] if learn.use_embeddings else width
    sized = {
        "kmeans.restarts": ("restarts x k x pool rows", cfg.kmeans.restarts * k * pool),
        "net.hidden_dims": (
            "a parameter block",
            _block_items([width, *net.hidden_dims, trainable + len(held_out)]),
        ),
        "learnability.hidden_dims": (
            "a parameter block",
            _block_items([scorer_in, *learn.hidden_dims, k + len(counts)]),
        ),
    }
    limit, itemsize = np.iinfo(np.intp).max, np.dtype(TRAIN_DTYPE).itemsize
    for key, (what, items) in sized.items():
        if items * itemsize > limit:
            problems.append(
                f"{key} sizes {what} of {items} items of {itemsize} bytes, "
                f"beyond the {limit} bytes an array can hold"
            )
    return problems


def class_count_config(cfg: ExperimentConfig, data: Dataset, class_counts=()) -> ExperimentConfig:
    """The configuration each class count runs: the last five classes held out
    for evaluation, the pool routed by the oracle, and no discovery rounds.
    The classes come from ``data``, ``cfg.data`` loaded; each of ``class_counts``
    must lie between 2 and the number of the other classes."""
    if cfg.net.output_classes is not None:
        raise ConfigError(
            f"net.output_classes ({cfg.net.output_classes}) must be unset: "
            "each class count derives its own output width"
        )
    _, counts = data.shape()
    classes = sorted(counts)
    if len(classes) <= N_EVAL_CLASSES:
        raise ConfigError(
            f"need more than {N_EVAL_CLASSES} classes to hold {N_EVAL_CLASSES} out for evaluation"
        )
    available = len(classes) - N_EVAL_CLASSES
    for c in class_counts:
        if c < 2:
            raise ConfigError(f"class count {c} must be >= 2")
        if c > available:
            raise ConfigError(f"class count {c} exceeds the {available} available classes")
    split = dataclasses.replace(cfg.split, held_out_classes=frozenset(classes[-N_EVAL_CLASSES:]))
    return dataclasses.replace(cfg, split=split, ood_mode="oracle", rounds=None)
