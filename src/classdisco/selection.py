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
from .learner import AdamConfig, NetworkConfig, TrainingDivergedError, init_model
from .learner import predict_proba, train_epochs

MIN_SCOREABLE_SIZE = 5

# The fresh scorer must reach competence even on tiny pools, where one epoch
# is a single Adam update and each update moves parameters by about the
# learning rate; epochs are raised until this update budget is met.
_MIN_SCORER_UPDATES = 2000

# The scorer's predictions only feed an argmax, and float32 halves its Adam step's cost.
_SCORER_DTYPE = np.float32

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
    labels=None,
    rows=None,
) -> np.ndarray:
    """Held-out recall per cluster from a fresh classifier trained to predict clusters.

    ``cfg`` sets the classifier's shape, epochs and holdout fraction; the
    caller applies its ``use_embeddings`` and ``include_existing`` flags.

    Returns one score per cluster id present in ``assignments``, in ascending
    id order. Clusters below MIN_SCOREABLE_SIZE members are excluded from the
    classification problem and score 0. The computation is canonicalized on
    the partition itself, so relabeling clusters permutes the scores exactly.

    ``rows``, when given, maps each assignment to its row of ``features``;
    the rows must be distinct. ``labels``, when given, holds one label per
    row of ``features`` and adds the already-established classes to the
    problem as distractors: each label ``>= 0`` with at least two rows is one
    class, and rows with a negative label (``UNLABELED`` or ``EXCLUDED``) are
    left out. A row may be both a pool row and a distractor row. Scores are
    still reported for the clusters only.

    Every class is read from ``features`` by row index: the scorer trains on
    its rows and predicts its holdout rows without gathering either side.
    The scorer computes in float32, so a feature beyond ~3.4e38 raises TrainingDivergedError.
    """
    x = np.asarray(features, dtype=np.float64)
    assign = np.asarray(assignments, dtype=np.int64)
    pool_rows = np.arange(len(assign)) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(pool_rows) != len(assign):
        raise ValueError(f"{len(pool_rows)} rows for {len(assign)} assignments")
    if labels is not None and len(labels) != len(x):
        raise ValueError(f"{len(labels)} labels for {len(x)} rows of features")
    ids, first_member, dense = np.unique(assign, return_index=True, return_inverse=True)
    if len(ids) < 2:
        raise ValueError("learnability needs at least two clusters")

    sizes = np.bincount(dense)
    scoreable = np.flatnonzero(sizes >= MIN_SCOREABLE_SIZE)
    if len(scoreable) < 2:
        raise ValueError(
            f"fewer than two clusters reach the scoreable size of {MIN_SCOREABLE_SIZE}"
        )
    if rows is not None and len(np.unique(pool_rows)) < len(pool_rows):
        raise ValueError("rows must name distinct rows of features")

    # Canonical class order: rank clusters by their first member index, which
    # depends only on the partition, never on the id values. The distractor
    # classes follow in ascending label order.
    canon_order = scoreable[np.argsort(first_member[scoreable], kind="stable")]
    classes = [pool_rows[dense == pos] for pos in canon_order]
    if labels is not None:
        y = np.asarray(labels, dtype=np.int64)
        for label in np.unique(y[y >= 0]):
            members = np.flatnonzero(y == label)
            if len(members) >= 2:  # a singleton distractor class cannot be split
                classes.append(members)
    n_classes = len(classes)

    # Each class's rows of x, permuted and split in class order.
    rng = seeds.spawn(seed)
    train_idx: list[np.ndarray] = []
    hold_idx: list[np.ndarray] = []
    for members in classes:
        n_hold = max(1, int(np.floor(cfg.holdout_fraction * len(members))))
        perm = members[rng.permutation(len(members))]
        hold_idx.append(perm[:n_hold])
        train_idx.append(perm[n_hold:])

    def side_rows(side: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """One side's rows of x, in class order, and their class labels."""
        sizes = [len(rows) for rows in side]
        return np.concatenate(side), np.repeat(np.arange(n_classes, dtype=np.int64), sizes)

    tr_rows, tr_y = side_rows(train_idx)
    ho_rows, ho_y = side_rows(hold_idx)
    net = NetworkConfig(
        input_dim=x.shape[1], output_classes=n_classes, hidden_dims=cfg.hidden_dims
    )
    sub_seed = int(rng.integers(2**32))
    model = init_model(net, seed=sub_seed, dtype=_SCORER_DTYPE)
    adam = AdamConfig(batch_size=min(32, len(tr_y)), seed=sub_seed)
    batches_per_epoch = -(-len(tr_y) // adam.batch_size)
    run_epochs = max(cfg.epochs, -(-_MIN_SCORER_UPDATES // batches_per_epoch))
    model = train_epochs(model, x, tr_y, adam, epochs=run_epochs, rows=tr_rows)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are reported below
        proba = predict_proba(model, x, rows=ho_rows)
    bad = ho_rows[~np.isfinite(proba).all(axis=1)]
    if len(bad):
        raise TrainingDivergedError(f"non-finite held-out prediction for row {bad[0]} of features")
    preds = proba.argmax(axis=1)

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
