"""Cluster scoring and acceptance: learnability, density, and the pick policy.

Learnability asks how well a fresh classifier can learn to tell the candidate
clusters apart; clusters that are easy to learn make good new classes. Density
(mean member distance to centroid) is also computed since it is a cheap
cluster feature, although in practice it does not track cluster quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .clustering import Clustering
from .dataset import PROV_HUMAN, Dataset
from .learner import AdamConfig, NetworkConfig, init_model, predict_proba, train_epochs

MIN_SCOREABLE_SIZE = 5

# The fresh scorer must reach competence even on tiny pools, where one epoch
# is a single Adam update and each update moves parameters by about the
# learning rate; epochs are raised until this update budget is met.
_MIN_SCORER_UPDATES = 2000

POLICY_KINDS = ("learnability", "random", "density", "threshold")


@dataclass(frozen=True)
class ClusterFeatures:
    cluster_id: int
    size: int
    learnability: float
    density: float
    flagged_small: bool = False


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str = "learnability"
    seed: int = 0
    min_accuracy: float = 0.95  # threshold policy only

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if not 0.0 <= self.min_accuracy <= 1.0:
            raise ValueError("min_accuracy must lie in [0, 1]")


@dataclass(frozen=True)
class LearnabilityConfig:
    """Shape of the fresh scoring classifier and its train/holdout protocol."""

    holdout_fraction: float = 0.2
    hidden_dims: tuple[int, ...] = (32,)
    epochs: int = 30
    use_embeddings: bool = False  # score on embeddings instead of raw features
    include_existing: bool = False  # add the already-labeled classes as distractors

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", NetworkConfig.check_hidden_dims(self.hidden_dims))
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie strictly between 0 and 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def learnability_scores(
    features,
    assignments,
    cfg: LearnabilityConfig = LearnabilityConfig(),
    seed: int = 0,
    extra_classes=None,
) -> np.ndarray:
    """Held-out recall per cluster from a fresh classifier trained to predict clusters.

    ``cfg`` sets the classifier's shape, epochs and holdout fraction; the
    caller applies its ``use_embeddings`` and ``include_existing`` flags.

    Returns one score per cluster id present in ``assignments``, in ascending
    id order. Clusters below MIN_SCOREABLE_SIZE members are excluded from the
    classification problem and score 0. The computation is canonicalized on
    the partition itself, so relabeling clusters permutes the scores exactly.

    ``extra_classes``, when given as (features, dense_labels), adds the
    already-established classes to the problem as distractors; scores are
    still reported for the clusters only.
    """
    x = np.asarray(features, dtype=np.float64)
    assign = np.asarray(assignments, dtype=np.int64)
    ids, dense = np.unique(assign, return_inverse=True)
    if len(ids) < 2:
        raise ValueError("learnability needs at least two clusters")

    sizes = np.bincount(dense)
    scoreable = np.flatnonzero(sizes >= MIN_SCOREABLE_SIZE)
    if len(scoreable) < 2:
        raise ValueError(
            f"fewer than two clusters reach the scoreable size of {MIN_SCOREABLE_SIZE}"
        )

    # Canonical class order: rank clusters by their first member index, which
    # depends only on the partition, never on the id values.
    first_member = np.full(len(ids), np.iinfo(np.int64).max, dtype=np.int64)
    for pos in range(len(ids)):
        first_member[pos] = int(np.flatnonzero(dense == pos)[0])
    canon_order = scoreable[np.argsort(first_member[scoreable], kind="stable")]

    rng = seeds.spawn(seed)
    train_x: list[np.ndarray] = []
    train_lbl: list[np.ndarray] = []
    hold_x: list[np.ndarray] = []
    hold_lbl: list[np.ndarray] = []

    def split_class(rows: np.ndarray, label: int) -> None:
        n_hold = max(1, int(np.floor(cfg.holdout_fraction * len(rows))))
        perm = rng.permutation(len(rows))
        hold_x.append(rows[perm[:n_hold]])
        hold_lbl.append(np.full(n_hold, label, dtype=np.int64))
        train_x.append(rows[perm[n_hold:]])
        train_lbl.append(np.full(len(rows) - n_hold, label, dtype=np.int64))

    for canon, pos in enumerate(canon_order):
        split_class(x[np.flatnonzero(dense == pos)], canon)

    n_classes = len(canon_order)
    if extra_classes is not None:
        ex_x = np.asarray(extra_classes[0], dtype=np.float64)
        ex_y = np.asarray(extra_classes[1], dtype=np.int64)
        for extra_label in np.unique(ex_y):
            rows = ex_x[ex_y == extra_label]
            if len(rows) < 2:
                continue  # cannot split a singleton distractor class
            split_class(rows, n_classes)
            n_classes += 1

    tr_x = np.concatenate(train_x)
    tr_y = np.concatenate(train_lbl)
    ho_x = np.concatenate(hold_x)
    ho_y = np.concatenate(hold_lbl)
    net = NetworkConfig(
        input_dim=x.shape[1], output_classes=n_classes, hidden_dims=cfg.hidden_dims
    )
    sub_seed = int(rng.integers(2**32))
    model = init_model(net, seed=sub_seed)
    train_data = Dataset(
        features=tr_x,
        labels=tr_y,
        true_labels=tr_y,
        provenance=np.full(len(tr_y), PROV_HUMAN, dtype=np.int64),
        n_classes_visible=n_classes,
    )
    adam = AdamConfig(batch_size=min(32, len(tr_y)), seed=sub_seed)
    batches_per_epoch = -(-len(tr_y) // adam.batch_size)
    run_epochs = max(cfg.epochs, -(-_MIN_SCORER_UPDATES // batches_per_epoch))
    model = train_epochs(model, train_data, adam, epochs=run_epochs)
    preds = predict_proba(model, ho_x).argmax(axis=1)

    scores = np.zeros(len(ids))
    for canon, pos in enumerate(canon_order):
        mask = ho_y == canon
        scores[pos] = float(np.mean(preds[mask] == canon))
    return scores


def density_score(embeddings, clustering: Clustering) -> np.ndarray:
    """Mean Euclidean distance of members to their centroid, one value per cluster."""
    pts = np.asarray(embeddings, dtype=np.float64)
    assign = clustering.assignments
    k = clustering.k
    dists = np.linalg.norm(pts - clustering.centroids[assign], axis=1)
    totals = np.bincount(assign, weights=dists, minlength=k)
    counts = np.bincount(assign, minlength=k)
    out = np.zeros(k)
    nonempty = counts > 0
    out[nonempty] = totals[nonempty] / counts[nonempty]
    return out


def select(features: list[ClusterFeatures], policy: SelectionPolicy) -> int | None:
    """Pick the one cluster to accept this round, or None when none qualifies.

    learnability: argmax learnability, ties to larger size then lower id.
    threshold: the learnability pick if its learnability is strictly above
    min_accuracy, else None.
    random: uniform over cluster ids, deterministic per policy seed.
    density: argmin density, ties to lower id.
    """
    if not features:
        raise ValueError("no clusters to select from")
    if policy.kind == "density":
        return min(features, key=lambda f: (f.density, f.cluster_id)).cluster_id
    if policy.kind == "random":
        ids = sorted(f.cluster_id for f in features)
        rng = seeds.spawn(policy.seed)
        return ids[int(rng.integers(len(ids)))]
    best = min(features, key=lambda f: (-f.learnability, -f.size, f.cluster_id))
    if policy.kind == "threshold" and not best.learnability > policy.min_accuracy:
        return None
    return best.cluster_id
