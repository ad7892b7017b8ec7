"""Shared test fixtures and independent oracles."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from classdisco.dataset import Dataset

MNIST_ENV = "CLASSDISCO_MNIST_DIR"


def mnist_train_paths():
    """Locate the MNIST training IDX pair, or None when unavailable.

    Looks in $CLASSDISCO_MNIST_DIR, then <repo>/data/mnist. Populate with
    scripts/fetch_mnist.py on a machine with network access.
    """
    candidates = []
    env = os.environ.get(MNIST_ENV)
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))
    names = (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
    )
    for directory in candidates:
        for img_name, lbl_name in names:
            img = os.path.join(directory, img_name)
            lbl = os.path.join(directory, lbl_name)
            if os.path.exists(img) and os.path.exists(lbl):
                return img, lbl
    return None


MNIST_SKIP_REASON = (
    "MNIST IDX files not found (no network in this environment); "
    f"set ${MNIST_ENV} or run scripts/fetch_mnist.py where network is available"
)


def write_idx_pair(images, labels, images_path, labels_path):
    """Independent IDX serializer: packs every field byte by byte with struct.

    Deliberately kept separate from the production loader so round-trips are
    a two-route check.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">I", 2051))
        f.write(struct.pack(">I", n))
        f.write(struct.pack(">I", rows))
        f.write(struct.pack(">I", cols))
        for img in images:
            for r in range(rows):
                for c in range(cols):
                    f.write(struct.pack(">B", int(img[r, c])))
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">I", 2049))
        f.write(struct.pack(">I", n))
        for lbl in labels:
            f.write(struct.pack(">B", int(lbl)))


@pytest.fixture
def idx_writer():
    return write_idx_pair


def select_rows(data: Dataset, indices) -> Dataset:
    """A new Dataset of ``data``'s rows at ``indices``; class bookkeeping is unchanged."""
    idx = np.asarray(indices, dtype=np.int64)
    rows = [data.features[idx], data.labels[idx], data.true_labels[idx]]
    for arr in rows:
        arr.flags.writeable = False  # fresh copies: the Dataset adopts them uncopied
    return Dataset(*rows, label_map=data.label_map)


def blobs(centers, n_per, noise, seed):
    """Gaussian blobs around explicit centers; returns (points, labels)."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    pts, lbls = [], []
    for i, c in enumerate(centers):
        pts.append(c + noise * rng.standard_normal((n_per, centers.shape[1])))
        lbls.append(np.full(n_per, i, dtype=np.int64))
    return np.concatenate(pts), np.concatenate(lbls)
