"""Confidence-threshold out-of-distribution detection.

A sample is out-of-distribution when its maximum predictive probability falls
below a cut-off calibrated on training data: the threshold is the value such
that a fraction ``q`` (default 95%) of the calibration samples score at or
above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import Model, predict_proba


@dataclass(frozen=True)
class OodDetector:
    threshold: float
    quantile: float
    calibration_size: int


@dataclass(frozen=True)
class Partition:
    """Exhaustive, disjoint split of a pool into in-distribution and OOD samples."""

    in_dist_indices: np.ndarray
    in_dist_labels: np.ndarray  # argmax class proposed for each in-distribution sample
    ood_indices: np.ndarray


def max_confidences(model: Model, features, rows=None) -> np.ndarray:
    """Maximum softmax probability per sample; ``rows`` as in ``predict_proba``. It is
    float64 for every model: a float32 softmax reads exactly 1.0 from a logit gap of ~17."""
    return predict_proba(model, features, rows, dtype=np.float64).max(axis=1)


def calibrate(model: Model, features, q: float = 0.95, rows=None) -> OodDetector:
    """Set the threshold to the (1-q) lower-interpolation quantile of calibration confidences.

    The calibration samples are ``rows`` of ``features`` (default: every
    row). By construction at least a fraction q of them score at or above
    the returned threshold.
    """
    n = len(features) if rows is None else len(rows)
    if n == 0:
        raise ValueError("calibration set is empty")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly between 0 and 1")
    conf = max_confidences(model, features, rows)
    tau = float(np.quantile(conf, 1.0 - q, method="lower"))
    return OodDetector(threshold=tau, quantile=q, calibration_size=n)


def partition(detector: OodDetector, model: Model, features, rows=None) -> Partition:
    """Route every one of ``rows`` of ``features`` (default: every row): OOD iff
    confidence < threshold, ties in-distribution. Indices are positions in ``rows``."""
    probs = predict_proba(model, features, rows, dtype=np.float64)
    conf = probs.max(axis=1)
    is_in = conf >= detector.threshold
    in_idx = np.flatnonzero(is_in)
    return Partition(
        in_dist_indices=in_idx,
        in_dist_labels=probs[in_idx].argmax(axis=1).astype(np.int64),
        ood_indices=np.flatnonzero(~is_in),
    )
