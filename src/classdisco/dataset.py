"""Datasets: loading, synthesis, splitting, class addition.

A label is a dense class index (``>= 0``) or one of two sentinels:
``UNLABELED`` marks a row of the unlabeled pool, and ``EXCLUDED`` a row that
takes no part in the run (a ``per_class_cap`` drop, or a class the
class-count experiment leaves out). Every split shares the loaded feature
matrix and ground truth; it marks rows rather than copying them.
``label_map`` says where each visible class came from: the original class id
for a human class, ``DISCOVERED_CLASS`` for one added by discovery.
Ground-truth labels are carried separately in ``true_labels`` and are never
exposed to the learner; only evaluation reads them.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import seeds

UNLABELED = -1  # in the unlabeled pool
EXCLUDED = -2  # outside the run: neither labeled nor in the pool

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049

DISCOVERED_CLASS = -1  # label_map entry for classes created by discovery


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the offending byte offset."""


def _frozen(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only ``dtype`` array, adopted without a copy when it
    has ``dtype`` already and neither it nor any array on its ``.base`` chain,
    down to the memory's owner, is writeable. Anything else is copied, so a
    caller's later write can never reach a Dataset.
    """
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable and arr.dtype == dtype:
        if base.base is None:
            return arr
        base = base.base
    return _readonly(np.array(arr, dtype=dtype))


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Hand a freshly made array over to a Dataset, which then adopts it uncopied."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label store shared by every stage of discovery.

    label_map records, for each visible class index, the original class id it
    was remapped from; entries are ``DISCOVERED_CLASS`` for classes created by
    ``add_class``.
    """

    features: np.ndarray
    labels: np.ndarray
    true_labels: np.ndarray
    label_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features, np.float64))
        for name in ("labels", "true_labels"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.int64))
        self.validate()

    def validate(self) -> None:
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        for name in ("labels", "true_labels"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} length {arr.shape} does not match {n} samples")
        if self.labels.max(initial=-1) >= self.n_classes_visible:
            raise ValueError("a present label is >= n_classes_visible")
        lowest = int(self.labels.min(initial=0))
        if lowest < EXCLUDED:
            raise ValueError(
                f"label {lowest} is below EXCLUDED ({EXCLUDED}); a label is a class "
                f"index >= 0, UNLABELED ({UNLABELED}) or EXCLUDED"
            )

    @property
    def n_classes_visible(self) -> int:
        return len(self.label_map)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == UNLABELED)

    def human_labeled_count(self) -> int:
        """Labeled rows whose class is a human class, not a discovered one."""
        human = np.asarray(self.label_map, dtype=np.int64) != DISCOVERED_CLASS
        return int(np.count_nonzero(human[self.labels[self.labels >= 0]]))

    def shape(self) -> tuple[int, dict[int, int]]:
        """Feature width and per-class sample counts, as a data source's ``shape()``."""
        return self.n_features, _class_counts(self.true_labels)


@dataclass(frozen=True)
class SplitSpec:
    """How to strip labels from a dataset to create the unlabeled pool."""

    held_out_classes: frozenset[int]
    per_class_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "held_out_classes", frozenset(int(c) for c in self.held_out_classes))
        if self.per_class_cap is not None and self.per_class_cap < 1:
            raise ValueError("per_class_cap must be positive when set")


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Synthetic benchmark: isotropic unit-variance Gaussians around class centers."""

    kind: ClassVar[str] = "synthetic"

    n_classes: int
    dim: int
    separation: float
    per_class_n: int
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")
        if self.per_class_n < 1:
            raise ValueError("per_class_n must be >= 1")

    def load(self) -> Dataset:
        return synth_gaussian(self)

    def shape(self) -> tuple[int, dict[int, int]]:
        return self.dim, {c: self.per_class_n for c in range(self.n_classes)}


@dataclass(frozen=True)
class IdxData:
    """An IDX image/label file pair."""

    kind: ClassVar[str] = "idx"

    images: str
    labels: str

    def load(self) -> Dataset:
        return load_idx(self.images, self.labels)

    def shape(self) -> tuple[int, dict[int, int]]:
        """Every check ``load`` makes, without reading the pixels."""
        width, labels = _check_idx(self.images, self.labels)
        return width, _class_counts(labels)


@dataclass(frozen=True)
class CsvData:
    """A CSV file with a header row; the last column is the class label."""

    kind: ClassVar[str] = "csv"

    path: str

    def load(self) -> Dataset:
        return load_csv(self.path)

    def shape(self) -> tuple[int, dict[int, int]]:
        return self.load().shape()


# The data sources a config can name, each tagged by its ``kind``.
DataSource = GaussianMixtureSpec | IdxData | CsvData


def load_data(source: DataSource) -> Dataset:
    """Load any data source through one named entry point, which the benchmark times."""
    return source.load()


def _class_counts(labels) -> dict[int, int]:
    ids, ns = np.unique(labels, return_counts=True)
    return {int(c): int(n) for c, n in zip(ids, ns)}


def _need(path: str, offset: int, count: int, size: int) -> None:
    if size < offset + count:
        raise IdxFormatError(
            f"{path}: truncated file, needed {count} bytes at byte offset {offset}, "
            f"file ends at {size}"
        )


def _unpack(fmt: str, data: bytes, offset: int, path: str) -> tuple[int, ...]:
    _need(path, offset, struct.calcsize(fmt), len(data))
    return struct.unpack_from(fmt, data, offset)


def _check_idx(images_path: str, labels_path: str) -> tuple[int, np.ndarray]:
    """Check an IDX pair's magic numbers, counts and payload lengths, reading
    no pixels; return the pixels per image and the labels (uint8)."""
    with open(images_path, "rb") as f:
        img_header = f.read(16)
        img_size = os.fstat(f.fileno()).st_size
    with open(labels_path, "rb") as f:
        lbl_bytes = f.read()

    (img_magic,) = _unpack(">I", img_header, 0, images_path)
    if img_magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad magic {img_magic} at byte offset 0, expected {IDX_IMAGES_MAGIC}"
        )
    n_images, rows, cols = _unpack(">III", img_header, 4, images_path)
    if rows * cols > np.iinfo(np.intp).max:
        raise IdxFormatError(f"{images_path}: {rows}x{cols} images at byte offset 8 are too large")

    (lbl_magic,) = _unpack(">I", lbl_bytes, 0, labels_path)
    if lbl_magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad magic {lbl_magic} at byte offset 0, expected {IDX_LABELS_MAGIC}"
        )
    (n_labels,) = _unpack(">I", lbl_bytes, 4, labels_path)

    if n_images != n_labels:
        raise IdxFormatError(
            f"count mismatch at byte offset 4: {images_path} declares {n_images} images, "
            f"{labels_path} declares {n_labels} labels"
        )
    _need(images_path, 16, n_images * rows * cols, img_size)
    _need(labels_path, 8, n_images, len(lbl_bytes))
    return rows * cols, np.frombuffer(lbl_bytes, dtype=np.uint8, count=n_images, offset=8)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair into a fully labeled Dataset.

    Pixels are scaled to [0, 1] by dividing the raw bytes by 255 and flattened
    row-major. Every label is present, and every class is a human class.
    """
    width, labels_raw = _check_idx(images_path, labels_path)
    n_images = len(labels_raw)
    pixels = np.fromfile(images_path, dtype=np.uint8, count=n_images * width, offset=16)
    labels = _readonly(labels_raw.astype(np.int64))
    n_classes = int(labels.max()) + 1 if n_images else 0
    return Dataset(
        features=_readonly(pixels.reshape(n_images, width) / 255.0),  # float64, one new array
        labels=labels,
        true_labels=labels,
        label_map=tuple(range(n_classes)),
    )


def load_csv(path: str) -> Dataset:
    """Load a CSV with a header row; last column is the integer class label.

    The header and every data row must have the first data row's column
    count, and every feature must be finite and within float32's range, which
    the learnability scorer computes in. The first row or cell that is not (a
    short row; an empty or non-numeric cell, nan, inf, 1e308) is reported by
    line, a cell also by column.
    """
    with open(path) as f:
        header, *lines = f.read().splitlines() or [""]
    rows = [(n, line) for n, line in enumerate(lines, 2) if line.split("#", 1)[0].strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = [line.split("#", 1)[0].count(",") + 1 for _, line in rows]
    for (n, _), width in zip(rows, widths):
        if width != widths[0]:
            raise ValueError(f"{path}: line {n} has {width} columns, not {widths[0]}")
    names = header.split(",")
    if len(names) != widths[0]:
        raise ValueError(f"{path}: line 1 (the header) has {len(names)} columns, not {widths[0]}")
    if widths[0] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label column")
    raw = np.genfromtxt([line for _, line in rows], delimiter=",", dtype=np.float64, ndmin=2)
    bad = np.argwhere(~(np.abs(raw[:, :-1]) <= np.finfo(np.float32).max))
    if len(bad):
        row, col = bad[0]
        raise ValueError(
            f"{path}: line {rows[row][0]}, column {names[col].strip()!r}: not a finite float32"
        )
    labels = raw[:, -1]
    if not np.all(labels == np.round(labels)):
        raise ValueError(f"{path}: last column must contain integer labels")
    labels = _readonly(labels.astype(np.int64))
    if (labels < 0).any():
        raise ValueError(f"{path}: labels must be non-negative")
    return Dataset(
        features=_readonly(np.ascontiguousarray(raw[:, :-1])),
        labels=labels,
        true_labels=labels,
        label_map=tuple(range(int(labels.max()) + 1 if len(labels) else 0)),
    )


def synth_gaussian(spec: GaussianMixtureSpec) -> Dataset:
    """Generate a labeled Gaussian-mixture dataset, reproducible per seed.

    Class centers sit on a hypersphere of radius ``separation`` (directions
    drawn from the seed), so one knob controls how far apart classes are in
    units of the unit within-class standard deviation.
    """
    rng = seeds.spawn(spec.seed)
    directions = rng.standard_normal((spec.n_classes, spec.dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    while (norms == 0).any():  # vanishing draw, essentially impossible but cheap to guard
        redraw = norms[:, 0] == 0
        directions[redraw] = rng.standard_normal((int(redraw.sum()), spec.dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
    centers = spec.separation * directions / norms

    n = spec.n_classes * spec.per_class_n
    labels = _readonly(np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.per_class_n))
    features = rng.standard_normal((n, spec.dim))
    per_class = features.reshape(spec.n_classes, spec.per_class_n, spec.dim)  # a view
    per_class += centers[:, None, :]  # noise + center is center + noise, exactly
    return Dataset(
        features=_readonly(features),
        labels=labels,
        true_labels=labels,
        label_map=tuple(range(spec.n_classes)),
    )


def make_split(data: Dataset, spec: SplitSpec, rows=None) -> Dataset:
    """Strip labels from the held-out classes and densely remap the rest.

    ``rows``, when given, is the set of rows that take part in the run (all
    rows by default); the split is taken over those rows alone, and every
    other row is labeled ``EXCLUDED``. Ground truth decides which samples are
    stripped. Retained labels are remapped to 0..n_visible-1 in ascending
    original-class order and the remap is recorded in ``label_map``.
    ``per_class_cap`` subsamples every class (retained and held-out alike) to
    at most that many of its rows in the run, chosen deterministically from
    ``spec.seed``; the rest are ``EXCLUDED`` too. The features and ground
    truth are shared with ``data``, never copied, and the rows in the run
    keep their relative order, so the split equals one taken over a copy of
    ``data`` holding only the rows in ``sorted(rows)``, in that order.
    """
    n = data.n_samples
    truth = data.true_labels
    if rows is None:
        in_run = np.ones(n, dtype=bool)
    else:
        in_run = np.zeros(n, dtype=bool)
        in_run[np.asarray(rows, dtype=np.int64)] = True

    all_classes = [int(c) for c in np.unique(truth[in_run])]
    missing = spec.held_out_classes - set(all_classes)
    if missing:
        raise ValueError(f"held-out classes not present in data: {sorted(missing)}")
    retained = [c for c in all_classes if c not in spec.held_out_classes]
    if not retained:
        raise ValueError("held_out_classes covers every class; nothing left to train on")

    rng = seeds.spawn(spec.seed)
    if spec.per_class_cap is not None:
        capped = np.zeros(n, dtype=bool)
        for c in all_classes:
            members = np.flatnonzero(in_run & (truth == c))
            if len(members) > spec.per_class_cap:
                chosen = rng.choice(len(members), size=spec.per_class_cap, replace=False)
                members = members[np.sort(chosen)]
            capped[members] = True
        in_run = capped

    labels = np.full(n, EXCLUDED, dtype=np.int64)
    labels[in_run] = UNLABELED
    for dense, orig in enumerate(retained):
        labels[in_run & (truth == orig)] = dense
    return Dataset(
        features=data.features,
        labels=_readonly(labels),
        true_labels=truth,
        label_map=tuple(retained),
    )


def add_class(data: Dataset, member_indices) -> Dataset:
    """Label the given unlabeled samples as one new, discovered class."""
    members = np.asarray(member_indices, dtype=np.int64)
    if members.size == 0:
        raise ValueError("cannot add an empty class")
    if len(np.unique(members)) != len(members):
        raise ValueError("duplicate member indices")
    outside = data.labels[members] == EXCLUDED
    if outside.any():
        raise ValueError(
            f"samples outside this run (EXCLUDED): {members[outside][:5].tolist()}"
            f"{'...' if outside.sum() > 5 else ''}"
        )
    already = data.labels[members] >= 0
    if already.any():
        raise ValueError(
            f"samples already labeled: {members[already][:5].tolist()}"
            f"{'...' if already.sum() > 5 else ''}"
        )
    labels = data.labels.copy()
    labels[members] = data.n_classes_visible
    return Dataset(
        features=data.features,
        labels=_readonly(labels),
        true_labels=data.true_labels,
        label_map=data.label_map + (DISCOVERED_CLASS,),
    )
