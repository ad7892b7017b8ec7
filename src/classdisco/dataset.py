"""Datasets: loading, synthesis, splitting, class addition.

A label is a dense class index (``>= 0``) or one of two sentinels:
``UNLABELED`` marks a row of the unlabeled pool, and ``EXCLUDED`` a row that
takes no part in the run (a ``per_class_cap`` drop, or a class the
class-count experiment leaves out). A split, and each class added to it, is
its parent with new labels, so every one shares the loaded feature matrix
and ground truth; it marks rows rather than copying them.
``label_map`` says where each visible class came from: the original class id
for a human class, ``DISCOVERED_CLASS`` for one added by discovery.
Ground-truth labels are carried separately in ``true_labels`` and are never
exposed to the learner; only evaluation reads them.

Features are stored as one read-only ``TRAIN_DTYPE`` matrix, the dtype of
every model that reads them. Each value is the float32 nearest the float64
its loader computes: the float a model would cast that float64 row to, so
no result depends on the stored dtype.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeds
from .learner import TRAIN_DTYPE, check_rows

UNLABELED = -1  # in the unlabeled pool
EXCLUDED = -2  # outside the run: neither labeled nor in the pool

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049

DISCOVERED_CLASS = -1  # label_map entry for classes created by discovery


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the offending byte offset."""


def _frozen(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only ``dtype`` array, adopted without a copy when it
    is a read-only ``dtype`` array that owns its memory. Anything else,
    a view included, is copied, so no writeable array reaches a Dataset.
    """
    owned = isinstance(arr, np.ndarray) and arr.base is None and not arr.flags.writeable
    return arr if owned and arr.dtype == dtype else _readonly(np.array(arr, dtype=dtype))


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
        object.__setattr__(self, "features", _frozen(self.features, TRAIN_DTYPE))
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n = self.features.shape[0]
        for name in ("labels", "true_labels"):
            arr = _frozen(getattr(self, name), np.int64)
            if arr.shape != (n,):
                raise ValueError(f"{name} length {arr.shape} does not match {n} samples")
            object.__setattr__(self, name, arr)
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

    kind: str = field(default="synthetic", init=False)

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
        # float32 features at 1e6 resolve the unit noise to 1/16; far beyond, k-means overflows
        if not 0 <= self.separation <= 1e6:
            raise ValueError("separation must lie in [0, 1e6]")
        if self.per_class_n < 1:
            raise ValueError("per_class_n must be >= 1")
        limit = np.iinfo(np.intp).max  # the largest array numpy can address
        itemsize = np.dtype(TRAIN_DTYPE).itemsize
        if self.n_classes * self.per_class_n * self.dim * itemsize > limit:
            raise ValueError(
                f"n_classes x per_class_n x dim features of {itemsize} bytes each "
                f"must be at most {limit} bytes"
            )

    def load(self) -> Dataset:
        return synth_gaussian(self)

    def shape(self) -> tuple[int, dict[int, int]]:
        return self.dim, {c: self.per_class_n for c in range(self.n_classes)}


@dataclass(frozen=True)
class IdxData:
    """An IDX image/label file pair."""

    kind: str = field(default="idx", init=False)

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

    kind: str = field(default="csv", init=False)

    path: str

    def load(self) -> Dataset:
        return load_csv(self.path)

    def shape(self) -> tuple[int, dict[int, int]]:
        return self.load().shape()


# The data sources a config can name, each tagged by its ``kind`` field.
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
    if not 0 < rows * cols <= np.iinfo(np.intp).max:
        raise IdxFormatError(f"{images_path}: bad image size {rows}x{cols} at byte offset 8")

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
    row-major, each stored as the ``TRAIN_DTYPE`` nearest its float64 quotient.
    Every label is present, and every class is a human class.
    """
    width, labels_raw = _check_idx(images_path, labels_path)
    n_images = len(labels_raw)
    pixels = np.fromfile(images_path, dtype=np.uint8, count=n_images * width, offset=16)
    scale = (np.arange(256) / 255.0).astype(TRAIN_DTYPE)  # byte -> its rounded quotient
    features = _readonly(scale[pixels.reshape(n_images, width)])  # one new array
    return _fully_labeled(features, labels_raw.astype(np.int64))


def load_csv(path: str) -> Dataset:
    """Load a CSV with a header row; last column is the integer class label.

    One pass reads the file as UTF-8 (U+FFFD for a bad byte) and each cell as
    ``float`` reads it, nan if it cannot. It reports the first faulty line: a
    column count, the header's too, not the first data row's; a feature, by
    column, not a finite float32; or a label not an integer in [0, 2**63).
    """
    rows, labels = [], []
    with open(path, encoding="utf-8-sig", errors="replace") as f:
        names = f.readline().split(",")
        for n, line in enumerate(f, 2):
            if not (cells := line.split("#", 1)[0]).strip():
                continue
            row = np.array([_float_or_nan(cell) for cell in cells.split(",")])
            if len(row) != len(names):  # the header is checked at the first data row
                at = f"line {n} has {len(row)}" if rows else f"line 1 (the header) has {len(names)}"
                raise ValueError(f"{path}: {at} columns, not {len(names) if rows else len(row)}")
            if len(row) < 2:
                raise ValueError(f"{path}: need at least one feature column plus a label column")
            bad = np.flatnonzero(~(np.abs(row[:-1]) <= np.finfo(np.float32).max))
            if len(bad):
                column = names[bad[0]].strip()
                raise ValueError(f"{path}: line {n}, column {column!r}: not a finite float32")
            label = row[-1]
            if not (label.is_integer() and 0 <= label < 2.0**63):
                rule = "labels must be non-negative integers below 2**63"
                rule = rule if label.is_integer() else "last column must contain integer labels"
                raise ValueError(f"{path}: {rule}; line {n} has {label:g}")
            rows.append(row[:-1].astype(TRAIN_DTYPE))  # in range: checked
            labels.append(int(label))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return _fully_labeled(_readonly(np.stack(rows)), np.array(labels, dtype=np.int64))


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _fully_labeled(features: np.ndarray, true_labels: np.ndarray) -> Dataset:
    """A Dataset in which every row is labeled and every class is a human
    class: ``label_map`` lists the classes present, ascending, and each label
    is its class's index in it."""
    present, dense = np.unique(true_labels, return_inverse=True)
    return Dataset(
        features=features,
        labels=dense,
        true_labels=_readonly(true_labels),
        label_map=tuple(present.tolist()),
    )


def synth_gaussian(spec: GaussianMixtureSpec) -> Dataset:
    """Generate a labeled Gaussian-mixture dataset, reproducible per seed.

    Class centers sit on a hypersphere of radius ``separation`` (directions
    drawn from the seed), so one knob controls how far apart classes are in
    units of the unit within-class standard deviation. Each class's noise and
    center are summed in float64, one class at a time, and stored cast.
    """
    rng = seeds.spawn(spec.seed)
    directions = rng.standard_normal((spec.n_classes, spec.dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    while (norms == 0).any():  # vanishing draw, essentially impossible but cheap to guard
        redraw = norms[:, 0] == 0
        directions[redraw] = rng.standard_normal((int(redraw.sum()), spec.dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
    centers = spec.separation * directions / norms

    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.per_class_n)
    features = np.empty((len(labels), spec.dim), TRAIN_DTYPE)
    per_class = features.reshape(spec.n_classes, spec.per_class_n, spec.dim)  # a view
    for block, center in zip(per_class, centers):  # the draws continue one (n, dim) stream
        # noise + center is center + noise, exactly; summed in float64, then cast
        np.add(rng.standard_normal((spec.per_class_n, spec.dim)), center, out=block)
    return _fully_labeled(_readonly(features), labels)


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
    in_run = np.zeros(n, dtype=bool)
    in_run[check_rows(rows, n)] = True

    all_classes = list(_class_counts(truth[in_run]))
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
    return replace(data, labels=_readonly(labels), label_map=tuple(retained))


def add_class(data: Dataset, member_indices) -> Dataset:
    """Label the given unlabeled samples as one new, discovered class."""
    members = check_rows(member_indices, data.n_samples, distinct=True)
    if members.size == 0:
        raise ValueError("cannot add an empty class")
    for what, bad in (
        ("outside this run (EXCLUDED)", data.labels[members] == EXCLUDED),
        ("already labeled", data.labels[members] >= 0),
    ):
        if bad.any():
            more = "..." if bad.sum() > 5 else ""
            raise ValueError(f"samples {what}: {members[bad][:5].tolist()}{more}")
    labels = data.labels.copy()
    labels[members] = data.n_classes_visible
    return replace(data, labels=_readonly(labels), label_map=data.label_map + (DISCOVERED_CLASS,))
