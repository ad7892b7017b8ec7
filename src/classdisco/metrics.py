"""Discovery quality metrics: plurality cluster accuracy and DRA.

Each discovered cluster is mapped to the ground-truth label held by the
plurality of its members (several clusters may map to the same label).
Cluster accuracy is the matched fraction within one cluster. Dataset
Reconstruction Accuracy (DRA) extends that to the whole training set:

    dra = (ell + o * sum_k w_k * a_k) / N

with ell human-labeled points, o pool points covered by discovery, w_k the
cluster's share of those points, a_k its plurality accuracy, and N = ell + o.
Both the cluster-weighted form and the per-point indicator form are the same
integer count divided by N, so they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusterOverlap:
    cluster_id: int
    mapped_label: int
    overlap: int
    size: int
    accuracy: float
    weight: float


@dataclass(frozen=True)
class OverlapMapping:
    clusters: tuple[ClusterOverlap, ...]


@dataclass(frozen=True)
class FrozenCluster:
    """An accepted cluster scored at its acceptance-time plurality label."""

    plurality_label: int
    true_labels: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "true_labels", np.asarray(self.true_labels, dtype=np.int64))
        if self.size == 0:  # its row's accuracy would be 0/0
            raise ValueError("a frozen cluster needs at least one member")
        if self.indices is not None:
            object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @property
    def size(self) -> int:
        return len(self.true_labels)

    @property
    def overlap(self) -> int:
        return int(np.count_nonzero(self.true_labels == self.plurality_label))


@dataclass(frozen=True)
class ReconstructionReport:
    ell: int
    o: int
    n_total: int
    weighted_ood_accuracy: float
    dra: float
    clusters: tuple[ClusterOverlap, ...] = ()
    frozen: tuple[ClusterOverlap, ...] = ()
    routed_total: int = 0
    routed_correct: int = 0


def plurality_label(true_labels) -> tuple[int, int]:
    """Most frequent label and its count; ties go to the lower label value."""
    vals, counts = np.unique(np.asarray(true_labels, dtype=np.int64), return_counts=True)
    best = int(counts.argmax())  # unique() sorts, so argmax lands on the lowest tied label
    return int(vals[best]), int(counts[best])


def _row(cluster_id: int, label: int, overlap: int, size: int, total: int) -> ClusterOverlap:
    """A cluster's row: its accuracy over its ``size`` members, its weight over ``total``."""
    return ClusterOverlap(cluster_id, label, overlap, size, overlap / size, size / total)


def cluster_accuracy(assignments, true_labels) -> OverlapMapping:
    """Map each cluster to its plurality ground-truth label."""
    assign = np.asarray(assignments, dtype=np.int64)
    truth = np.asarray(true_labels, dtype=np.int64)
    if assign.shape != truth.shape:
        raise ValueError("assignments and true_labels must have equal length")
    if assign.size == 0:
        raise ValueError("empty input")
    rows = []
    ids, sizes = np.unique(assign, return_counts=True)
    for cid, size in zip(ids.tolist(), sizes.tolist()):
        rows.append(_row(cid, *plurality_label(truth[assign == cid]), size, assign.size))
    return OverlapMapping(clusters=tuple(rows))


def dataset_reconstruction_accuracy(
    ell: int,
    ood_assignments,
    ood_true_labels,
    frozen=(),
    *,
    ood_indices=None,
    routed_predicted=(),
    routed_true=(),
) -> ReconstructionReport:
    """DRA over human-labeled points, current pool clusters, and frozen clusters.

    Human-labeled points always count correct. A clustered point counts
    correct iff its ground-truth label equals its cluster's plurality label;
    frozen clusters keep the plurality label fixed at acceptance time.
    ``routed_predicted``/``routed_true`` cover pool points a detector slotted
    into existing classes (none by default): they count correct iff the
    prediction matches.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    assign = np.asarray(ood_assignments, dtype=np.int64)
    truth = np.asarray(ood_true_labels, dtype=np.int64)
    if assign.shape != truth.shape:
        raise ValueError("assignments and true labels must have equal length")

    if ood_indices is not None:
        pool = np.asarray(ood_indices, dtype=np.int64)
        merged = np.concatenate([pool] + [fc.indices for fc in frozen if fc.indices is not None])
        if (np.unique(merged, return_counts=True)[1] > 1).any():
            raise ValueError("frozen cluster members overlap the current pool or each other")

    pred = np.asarray(routed_predicted, dtype=np.int64)
    rt = np.asarray(routed_true, dtype=np.int64)
    if pred.shape != rt.shape:
        raise ValueError("routed predictions and true labels must have equal length")
    routed_correct = int(np.count_nonzero(pred == rt))

    n_frozen = sum(fc.size for fc in frozen)
    o = assign.size + n_frozen + pred.size
    n_total = ell + o
    if n_total == 0:
        raise ValueError("nothing to score: no labeled points and no pool")

    mapped = cluster_accuracy(assign, truth).clusters if assign.size else ()
    current_rows = tuple(_row(c.cluster_id, c.mapped_label, c.overlap, c.size, o) for c in mapped)
    frozen_rows = tuple(
        _row(i, int(fc.plurality_label), fc.overlap, fc.size, o) for i, fc in enumerate(frozen)
    )

    correct = (
        sum(c.overlap for c in current_rows)
        + sum(c.overlap for c in frozen_rows)
        + routed_correct
    )
    return ReconstructionReport(
        ell=ell,
        o=o,
        n_total=n_total,
        weighted_ood_accuracy=correct / o if o else 0.0,
        dra=(ell + correct) / n_total,
        clusters=current_rows,
        frozen=frozen_rows,
        routed_total=pred.size,
        routed_correct=routed_correct,
    )

