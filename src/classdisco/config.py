"""JSON experiment configuration: strict parsing, echoing, and validation.

Parsing and echoing walk the dataclass fields of ``ExperimentConfig`` and its
sections, so every key, its type and its default are declared once, on the
dataclass; a field without a default is a required key. Unknown keys are
errors so a typo can never silently fall back to a default. Each value must
already have its field's JSON type: integers for ``int`` fields (never a
bool, string or float), JSON booleans for flags, lists for the tuple and set
fields; nothing is coerced. Every error names the dotted key path.
``config_to_dict`` materializes every default, which is what run reports
echo; parsing that echo reproduces the exact same configuration.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Any

from .engine import ConfigError, ExperimentConfig

# JSON type a scalar annotation accepts: (description, check).
_SCALARS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
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


def _build(path: str, factory, kwargs: dict):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid '{path or '<root>'}': {exc}") from exc


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
    return _build(path, cls, kwargs)


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


def load_config(path: str) -> ExperimentConfig:
    """Read a config file; a run report is accepted too (its embedded config is used)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and str(doc.get("schema", "")).startswith("classdisco-report"):
        doc = doc.get("config")
        if not isinstance(doc, dict):
            raise ConfigError(f"report file {path} carries no embedded config")
    return parse_config(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Exact JSON echo of a configuration, all defaults materialized."""
    return _echo(cfg)


def _echo(value):
    if dataclasses.is_dataclass(value):
        doc = {f.name: _echo(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if "kind" not in doc and hasattr(value, "kind"):  # a data source's ClassVar tag
            return {"kind": value.kind, **doc}
        return doc
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


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
        problems.append(f"held-out classes not present in data: {missing}")
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
    return problems
