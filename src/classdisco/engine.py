"""Discovery loops: static, dynamic, and the class-count experiment.

The loop: train the learner on labeled data, embed the unlabeled pool through
the penultimate layer, cluster the embeddings, score the clusters, accept one
as a new class, widen the softmax, keep training, repeat. Evaluation after
every round combines frozen accepted clusters (scored at their acceptance-time
plurality labels) with a fresh clustering of the residual pool.

Per-round seed derivation (everything reproducible from the config):
the clustering at round r uses restart sub-seeds ``kmeans.seed + r*restarts``
onward, output expansion uses ``seed + 100003*r``, learnability scoring uses
``seed + 200003*r``, and the random policy uses ``policy.seed + r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, ood, selection
from .clustering import Clustering, fit_with_restarts
from .config import ExperimentConfig, class_count_config
from .dataset import DISCOVERED_CLASS, UNLABELED, Dataset, add_class, load_data, make_split
from .learner import TRAIN_DTYPE, Model, embed, expand_outputs, init_model, train_epochs
from .metrics import ReconstructionReport
from .ood import OodDetector
from .selection import ClusterFeatures

_EXPAND_SEED_STRIDE = 100003
_LEARNABILITY_SEED_STRIDE = 200003


@dataclass(frozen=True, kw_only=True)
class AcceptedCluster(metrics.FrozenCluster):
    """Log entry for one accepted cluster; scored for DRA as the frozen cluster it is."""

    round: int
    new_label: int
    learnability: float


@dataclass(frozen=True)
class RoundRecord:
    """One closed round: its evaluation, then its clusters' scores and pick once scored."""

    round: int
    ood_pool_size: int
    train_loss: float
    report: ReconstructionReport
    cluster_indices: np.ndarray = field(compare=False)  # the pool rows left to clustering
    clustering: Clustering | None = field(compare=False)  # theirs; None if no row was clustered
    cluster_features: tuple[ClusterFeatures, ...] = ()
    accepted_cluster: int | None = None
    detector: OodDetector | None = None  # routed this round's pool; None if oracle or pool empty

    @property
    def dra(self) -> float:
        return self.report.dra

    @property
    def mean_cluster_accuracy(self) -> float:
        return self.report.weighted_ood_accuracy


@dataclass
class DiscoveryState:
    """A run, updated in place by its loop; ``round`` counts the accepted clusters."""

    dataset: Dataset
    model: Model
    config: ExperimentConfig
    accepted: list[AcceptedCluster] = field(default_factory=list)
    history: list[RoundRecord] = field(default_factory=list)
    stopped_early: str | None = None

    @property
    def round(self) -> int:
        return len(self.accepted)


def _evaluate(state: DiscoveryState, epochs: int = 0) -> tuple[RoundRecord, np.ndarray | None]:
    """Evaluate ``state`` after ``epochs`` of training; pure. Returns the round's
    unscored record and the clustered rows' embeddings (``None`` if none were)."""
    dataset, model, cfg, accepted = state.dataset, state.model, state.config, state.accepted
    pool_idx = dataset.unlabeled_indices()

    detector = None
    routed_pred = routed_true = ()
    cluster_idx = pool_idx
    if cfg.ood_mode == "detector" and len(pool_idx):
        labeled = dataset.labeled_indices()
        detector = ood.calibrate(model, dataset.features, cfg.detector_quantile, rows=labeled)
        part = ood.partition(detector, model, dataset.features, rows=pool_idx)
        # a discovered class predicts its accepted cluster's plurality label (same order)
        label_map = np.asarray(dataset.label_map, dtype=np.int64)
        label_map[label_map == DISCOVERED_CLASS] = [a.plurality_label for a in accepted]
        routed_pred = label_map[part.in_dist_labels]
        routed_true = dataset.true_labels[pool_idx[part.in_dist_indices]]
        cluster_idx = pool_idx[part.ood_indices]

    clustering = None
    embeddings = None
    assign = np.empty(0, dtype=np.int64)
    if len(cluster_idx):
        embeddings = embed(model, dataset.features, rows=cluster_idx)
        k_eff = min(cfg.kmeans.k, len(cluster_idx))
        kmeans = replace(
            cfg.kmeans, k=k_eff, seed=cfg.kmeans.seed + state.round * cfg.kmeans.restarts
        )
        clustering = fit_with_restarts(embeddings, kmeans)
        assign = clustering.assignments

    report = metrics.dataset_reconstruction_accuracy(
        dataset.human_labeled_count(),
        assign,
        dataset.true_labels[cluster_idx],
        frozen=tuple(accepted),
        ood_indices=pool_idx,
        routed_predicted=routed_pred,
        routed_true=routed_true,
    )
    return RoundRecord(
        round=state.round,
        ood_pool_size=len(pool_idx),
        # train_epochs logs one loss per epoch
        train_loss=float(np.mean(model.loss_log[-epochs:])) if epochs else math.nan,
        report=report,
        cluster_indices=cluster_idx,
        clustering=clustering,
        detector=detector,
    ), embeddings


def _train_labeled(model: Model, data: Dataset, cfg: ExperimentConfig, epochs: int) -> Model:
    """Train on the labeled rows, read by row index from the shared feature matrix."""
    rows = data.labeled_indices()
    return train_epochs(model, data.features, data.labels[rows], cfg.adam, epochs, rows=rows)


def _close_round(state: DiscoveryState, epochs: int):
    """Append the round's unscored record to ``state.history``; return its embeddings."""
    record, embeddings = _evaluate(state, epochs)
    state.history.append(record)
    return embeddings


def _prepare(cfg: ExperimentConfig, raw: Dataset, rows=None):
    """Split ``raw`` over ``rows`` (all rows by default), train the initial
    model, and close round 0; return the state and round 0's embeddings."""
    data = make_split(raw, cfg.split, rows)
    if len(data.unlabeled_indices()) == 0:
        raise ValueError("empty OOD pool: no held-out classes were stripped")
    net = cfg.net
    if net.input_dim is None:
        net = replace(net, input_dim=data.n_features)
    if net.output_classes is None:
        net = replace(net, output_classes=data.n_classes_visible)
    state = DiscoveryState(data, init_model(net, seed=cfg.seed, dtype=TRAIN_DTYPE), cfg)
    state.model = _train_labeled(state.model, data, cfg, cfg.epochs_initial)
    return state, _close_round(state, cfg.epochs_initial)


def run_static(cfg: ExperimentConfig, data: Dataset | None = None):
    """One-shot discovery: cluster the whole pool once and label every cluster.

    With epochs_initial=0 the embedder is untrained (the random-embedding
    baseline); otherwise it is the semi-supervised variant. ``data`` is
    ``cfg.data`` already loaded, if the caller has it.
    """
    state, _ = _prepare(cfg, load_data(cfg.data) if data is None else data)
    return state, state.history[0].report


def _score_clusters(
    record: RoundRecord,
    embeddings: np.ndarray,
    dataset: Dataset,
    model: Model,
    cfg: ExperimentConfig,
    round_idx: int,
) -> list[ClusterFeatures]:
    clustering = record.clustering
    sizes = clustering.cluster_sizes()
    present = np.flatnonzero(sizes > 0)
    learn = np.full(clustering.k, math.nan)
    if cfg.policy.kind in ("learnability", "threshold"):
        # Raw features are read by row index from the shared matrix, uncopied.
        # Embedded distractors are the labeled rows' embeddings, stacked under
        # the pool's, whose rows are marked UNLABELED.
        lcfg = cfg.learnability
        score_input, rows = dataset.features, record.cluster_indices
        labels = dataset.labels if lcfg.include_existing else None
        if lcfg.use_embeddings:
            score_input, rows = embeddings, None
        if lcfg.use_embeddings and lcfg.include_existing:
            labeled = dataset.labeled_indices()
            score_input = np.concatenate([embeddings, embed(model, dataset.features, labeled)])
            labels = np.concatenate([np.full(len(embeddings), UNLABELED), labels[labeled]])
        learn[present] = selection.learnability_scores(
            score_input,
            clustering.assignments,
            lcfg,
            seed=cfg.seed + _LEARNABILITY_SEED_STRIDE * round_idx,
            labels=labels,
            rows=rows,
        )
    density = selection.density_score(embeddings, clustering)
    return [
        ClusterFeatures(
            cluster_id=int(cid),
            size=int(sizes[cid]),
            learnability=float(learn[cid]),
            density=float(density[cid]),
            flagged_small=bool(sizes[cid] < selection.MIN_SCOREABLE_SIZE),
        )
        for cid in present
    ]


def run_dynamic(cfg: ExperimentConfig, data: Dataset | None = None):
    """Accept one cluster per round, retrain, re-embed, re-cluster.

    Returns the final state and the per-round reconstruction reports
    (round 0 is the static baseline under the same seeds). ``data`` is as
    in ``run_static``.
    """
    n_held_out = len(cfg.split.held_out_classes)
    rounds = cfg.rounds if cfg.rounds is not None else n_held_out
    if rounds > n_held_out:
        raise ValueError(f"rounds={rounds} exceeds the {n_held_out} held-out classes")

    state, embeddings = _prepare(cfg, load_data(cfg.data) if data is None else data)
    for r in range(1, rounds + 1):
        rec = state.history[-1]
        if rec.clustering is None or np.ptp(rec.clustering.assignments) == 0:  # one cluster
            state.stopped_early = f"pool exhausted before round {r}"
            break
        try:
            features = _score_clusters(rec, embeddings, state.dataset, state.model, cfg, r)
        except selection.UnscoreablePoolError as exc:  # any other error fails the run
            state.stopped_early = f"round {r}: {exc}"
            break
        policy = replace(cfg.policy, seed=cfg.policy.seed + r)
        selected = selection.select(features, policy)
        # the scores and the pick go on the record they judged, a stopped round's too
        rec = replace(rec, cluster_features=tuple(features), accepted_cluster=selected)
        state.history[-1] = rec
        if selected is None:
            state.stopped_early = f"round {r}: no cluster above the acceptance threshold"
            break

        members = rec.cluster_indices[rec.clustering.assignments == selected]
        plurality, _ = metrics.plurality_label(state.dataset.true_labels[members])
        state.accepted.append(
            AcceptedCluster(
                round=r,
                new_label=state.dataset.n_classes_visible,
                plurality_label=plurality,
                true_labels=state.dataset.true_labels[members],
                indices=members,
                learnability=next(f.learnability for f in features if f.cluster_id == selected),
            )
        )
        del embeddings  # this round's, freed before retraining
        state.dataset = add_class(state.dataset, members)
        widened = expand_outputs(
            state.model, state.dataset.n_classes_visible, seed=cfg.seed + _EXPAND_SEED_STRIDE * r
        )
        state.model = _train_labeled(widened, state.dataset, cfg, cfg.epochs_per_round)
        del widened  # else it lives on through the evaluation
        embeddings = _close_round(state, cfg.epochs_per_round)
    return state, [rec.report for rec in state.history]


def evaluate_state(state: DiscoveryState) -> ReconstructionReport:
    """Re-evaluate a state from scratch; pure, and equal to its last history record."""
    return _evaluate(state)[0].report


def run_class_count_experiment(
    base_cfg: ExperimentConfig,
    class_counts: list[int],
    data: Dataset | None = None,
) -> list[tuple[int, float]]:
    """Cluster accuracy on a fixed OOD pool as a function of training class count.

    For each count c, run round 0 of discovery under ``class_count_config`` on
    the first c non-evaluation classes plus the evaluation classes (the
    configured per-class cap applied uniformly) and report the size-weighted
    mean cluster accuracy of the pool. ``data`` is as in ``run_static``.
    """
    raw = load_data(base_cfg.data) if data is None else data
    cfg = class_count_config(base_cfg, raw, class_counts)
    eval_set = cfg.split.held_out_classes
    non_eval = sorted(raw.shape()[1].keys() - eval_set)

    rows: list[tuple[int, float]] = []
    for count in class_counts:
        keep = np.flatnonzero(np.isin(raw.true_labels, sorted(set(non_eval[:count]) | eval_set)))
        # the split marks the other rows EXCLUDED and shares raw's features;
        # only the report is kept: no count's split or model outlives its run
        report = _prepare(cfg, raw, rows=keep)[0].history[0].report
        rows.append((count, report.weighted_ood_accuracy))
    return rows
