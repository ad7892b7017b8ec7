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

from dataclasses import dataclass, replace

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


def cluster_accuracy(assignments, true_labels) -> OverlapMapping:
    """Map each cluster to its plurality ground-truth label."""
    assign = np.asarray(assignments, dtype=np.int64)
    truth = np.asarray(true_labels, dtype=np.int64)
    if assign.shape != truth.shape:
        raise ValueError("assignments and true_labels must have equal length")
    if assign.size == 0:
        raise ValueError("empty input")
    n = assign.size
    rows = []
    for cid in np.unique(assign):
        members = truth[assign == cid]
        label, overlap = plurality_label(members)
        size = len(members)
        rows.append(
            ClusterOverlap(
                cluster_id=int(cid),
                mapped_label=label,
                overlap=overlap,
                size=size,
                accuracy=overlap / size,
                weight=size / n,
            )
        )
    return OverlapMapping(clusters=tuple(rows))


def dataset_reconstruction_accuracy(
    ell: int,
    ood_assignments,
    ood_true_labels,
    frozen=(),
    *,
    ood_indices=None,
    routed_predicted=None,
    routed_true=None,
) -> ReconstructionReport:
    """DRA over human-labeled points, current pool clusters, and frozen clusters.

    Human-labeled points always count correct. A clustered point counts
    correct iff its ground-truth label equals its cluster's plurality label;
    frozen clusters keep the plurality label fixed at acceptance time.
    ``routed_predicted``/``routed_true`` cover pool points a detector slotted
    into existing classes: they count correct iff the prediction matches.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    assign = np.asarray(ood_assignments, dtype=np.int64)
    truth = np.asarray(ood_true_labels, dtype=np.int64)
    if assign.shape != truth.shape:
        raise ValueError("assignments and true labels must have equal length")

    if ood_indices is not None:
        pool = np.asarray(ood_indices, dtype=np.int64)
        seen = [pool]
        for fc in frozen:
            if fc.indices is not None:
                if np.intersect1d(fc.indices, pool).size:
                    raise ValueError("frozen cluster members overlap the current pool")
                seen.append(fc.indices)
        merged = np.concatenate(seen)
        if len(np.unique(merged)) != len(merged):
            raise ValueError("frozen cluster member sets overlap")

    n_routed = 0
    routed_correct = 0
    if (routed_predicted is None) != (routed_true is None):
        raise ValueError("routed_predicted and routed_true must be given together")
    if routed_predicted is not None:
        pred = np.asarray(routed_predicted, dtype=np.int64)
        rt = np.asarray(routed_true, dtype=np.int64)
        if pred.shape != rt.shape:
            raise ValueError("routed predictions and true labels must have equal length")
        n_routed = pred.size
        routed_correct = int(np.count_nonzero(pred == rt))

    n_frozen = sum(fc.size for fc in frozen)
    o = assign.size + n_frozen + n_routed
    n_total = ell + o
    if n_total == 0:
        raise ValueError("nothing to score: no labeled points and no pool")

    current_rows: tuple[ClusterOverlap, ...] = ()
    if assign.size:
        mapping = cluster_accuracy(assign, truth)
        current_rows = tuple(replace(c, weight=c.size / o) for c in mapping.clusters)
    frozen_rows = tuple(
        ClusterOverlap(
            cluster_id=i,
            mapped_label=int(fc.plurality_label),
            overlap=fc.overlap,
            size=fc.size,
            accuracy=fc.overlap / fc.size if fc.size else 0.0,
            weight=fc.size / o if o else 0.0,
        )
        for i, fc in enumerate(frozen)
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
        routed_total=n_routed,
        routed_correct=routed_correct,
    )

