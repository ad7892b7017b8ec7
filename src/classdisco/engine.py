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
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, ood, selection
from .clustering import Clustering, KMeansConfig, fit_with_restarts
from .dataset import (
    DISCOVERED_CLASS,
    UNLABELED,
    DataSource,
    Dataset,
    SplitSpec,
    add_class,
    load_data,
    make_split,
)
from .learner import (
    AdamConfig,
    Model,
    NetworkConfig,
    embed,
    expand_outputs,
    init_model,
    train_epochs,
)
from .metrics import ReconstructionReport
from .ood import OodDetector
from .selection import ClusterFeatures, LearnabilityConfig, SelectionPolicy

_EXPAND_SEED_STRIDE = 100003
_LEARNABILITY_SEED_STRIDE = 200003

OOD_MODES = ("oracle", "detector")
N_EVAL_CLASSES = 5  # the class-count experiment holds out the last five classes


class ConfigError(ValueError):
    """A configuration document is malformed; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSource
    split: SplitSpec
    net: NetworkConfig = NetworkConfig()
    adam: AdamConfig = AdamConfig()
    kmeans: KMeansConfig = KMeansConfig()
    policy: SelectionPolicy = SelectionPolicy()
    learnability: LearnabilityConfig = LearnabilityConfig()
    epochs_initial: int = 1
    epochs_per_round: int = 1
    rounds: int | None = None
    ood_mode: str = "oracle"
    detector_quantile: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.ood_mode not in OOD_MODES:
            raise ValueError(f"ood_mode must be one of {OOD_MODES}")
        if not 0.0 < self.detector_quantile < 1.0:
            raise ValueError("detector_quantile must lie strictly between 0 and 1")
        if self.epochs_initial < 0 or self.epochs_per_round < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.rounds is not None and self.rounds < 0:
            raise ValueError("rounds must be >= 0")


@dataclass(frozen=True, kw_only=True)
class AcceptedCluster(metrics.FrozenCluster):
    """Log entry for one accepted cluster; scored for DRA as the frozen cluster it is."""

    round: int
    new_label: int
    learnability: float


@dataclass(frozen=True)
class RoundRecord:
    round: int
    ood_pool_size: int
    train_loss: float
    report: ReconstructionReport
    cluster_features: tuple[ClusterFeatures, ...] = ()
    accepted_cluster: int | None = None

    @property
    def dra(self) -> float:
        return self.report.dra

    @property
    def mean_cluster_accuracy(self) -> float:
        return self.report.weighted_ood_accuracy


@dataclass
class DiscoveryState:
    dataset: Dataset
    model: Model
    round: int
    accepted: list[AcceptedCluster]
    history: list[RoundRecord]
    config: ExperimentConfig
    detector: OodDetector | None = None
    stopped_early: str | None = None


@dataclass
class _RoundEval:
    report: ReconstructionReport
    clustering: Clustering | None
    cluster_indices: np.ndarray
    embeddings: np.ndarray | None
    detector: OodDetector | None


def _mean_recent_losses(model: Model, epochs: int) -> float:
    if epochs == 0 or not model.loss_log:
        return math.nan
    return float(np.mean(model.loss_log[-epochs:]))


def _evaluate(
    dataset: Dataset,
    model: Model,
    cfg: ExperimentConfig,
    accepted: list[AcceptedCluster],
    round_idx: int,
) -> _RoundEval:
    pool_idx = dataset.unlabeled_indices()
    ell = dataset.human_labeled_count()

    detector = None
    routed_pred = routed_true = None
    cluster_idx = pool_idx
    if cfg.ood_mode == "detector" and len(pool_idx):
        labeled = dataset.labeled_indices()
        detector = ood.calibrate(model, dataset.features, cfg.detector_quantile, rows=labeled)
        part = ood.partition(detector, model, dataset.features, rows=pool_idx)
        routed_global = pool_idx[part.in_dist_indices]
        # a discovered class predicts its accepted cluster's plurality label (same order)
        label_map = np.asarray(dataset.label_map, dtype=np.int64)
        label_map[label_map == DISCOVERED_CLASS] = [a.plurality_label for a in accepted]
        routed_pred = label_map[part.in_dist_labels]
        routed_true = dataset.true_labels[routed_global]
        cluster_idx = pool_idx[part.ood_indices]

    clustering = None
    embeddings = None
    assign = np.empty(0, dtype=np.int64)
    truth = np.empty(0, dtype=np.int64)
    if len(cluster_idx):
        embeddings = embed(model, dataset.features, rows=cluster_idx)
        k_eff = min(cfg.kmeans.k, len(cluster_idx))
        kmeans = replace(
            cfg.kmeans, k=k_eff, seed=cfg.kmeans.seed + round_idx * cfg.kmeans.restarts
        )
        clustering = fit_with_restarts(embeddings, kmeans)
        assign = clustering.assignments
        truth = dataset.true_labels[cluster_idx]

    report = metrics.dataset_reconstruction_accuracy(
        ell,
        assign,
        truth,
        frozen=tuple(accepted),
        ood_indices=pool_idx,
        routed_predicted=routed_pred,
        routed_true=routed_true,
    )
    return _RoundEval(
        report=report,
        clustering=clustering,
        cluster_indices=cluster_idx,
        embeddings=embeddings,
        detector=detector,
    )


def _train_labeled(model: Model, data: Dataset, cfg: ExperimentConfig, epochs: int) -> Model:
    """Train on the labeled rows, read by row index from the shared feature matrix."""
    if epochs == 0:
        return model
    rows = data.labeled_indices()
    return train_epochs(model, data.features, data.labels[rows], cfg.adam, epochs, rows=rows)


def _prepare(cfg: ExperimentConfig, raw: Dataset, rows=None) -> tuple[DiscoveryState, _RoundEval]:
    """Split ``raw`` over ``rows`` (all rows by default), train the initial
    model, and run the round-0 evaluation."""
    data = make_split(raw, cfg.split, rows)
    if len(data.unlabeled_indices()) == 0:
        raise ValueError("empty OOD pool: no held-out classes were stripped")
    net = cfg.net
    if net.input_dim is None:
        net = replace(net, input_dim=data.n_features)
    if net.output_classes is None:
        net = replace(net, output_classes=data.n_classes_visible)
    model = _train_labeled(init_model(net, seed=cfg.seed), data, cfg, cfg.epochs_initial)
    ev = _evaluate(data, model, cfg, [], 0)
    record = RoundRecord(
        round=0,
        ood_pool_size=len(data.unlabeled_indices()),
        train_loss=_mean_recent_losses(model, cfg.epochs_initial),
        report=ev.report,
    )
    state = DiscoveryState(
        dataset=data,
        model=model,
        round=0,
        accepted=[],
        history=[record],
        config=cfg,
        detector=ev.detector,
    )
    return state, ev


def run_static(cfg: ExperimentConfig, data: Dataset | None = None):
    """One-shot discovery: cluster the whole pool once and label every cluster.

    With epochs_initial=0 the embedder is untrained (the random-embedding
    baseline); otherwise it is the semi-supervised variant. ``data`` is
    ``cfg.data`` already loaded, if the caller has it.
    """
    state, _ = _prepare(cfg, load_data(cfg.data) if data is None else data)
    return state, state.history[0].report


def _score_clusters(
    ev: _RoundEval,
    dataset: Dataset,
    model: Model,
    cfg: ExperimentConfig,
    round_idx: int,
) -> list[ClusterFeatures]:
    clustering = ev.clustering
    sizes = clustering.cluster_sizes()
    present = np.flatnonzero(sizes > 0)
    need_learnability = cfg.policy.kind in ("learnability", "threshold")
    learn = np.full(clustering.k, math.nan)
    if need_learnability:
        # Raw features are read by row index from the shared matrix, uncopied.
        # Embedded distractors are the labeled rows' embeddings, stacked under
        # the pool's, whose rows are marked UNLABELED.
        lcfg = cfg.learnability
        score_input, rows = dataset.features, ev.cluster_indices
        labels = dataset.labels if lcfg.include_existing else None
        if lcfg.use_embeddings:
            score_input, rows = ev.embeddings, None
        if lcfg.use_embeddings and lcfg.include_existing:
            labeled = dataset.labeled_indices()
            score_input = np.concatenate([ev.embeddings, embed(model, dataset.features, labeled)])
            labels = np.concatenate([np.full(len(ev.embeddings), UNLABELED), labels[labeled]])
        raw = selection.learnability_scores(
            score_input,
            clustering.assignments,
            lcfg,
            seed=cfg.seed + _LEARNABILITY_SEED_STRIDE * round_idx,
            labels=labels,
            rows=rows,
        )
        learn[present] = raw
    density = selection.density_score(ev.embeddings, clustering)
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

    state, ev = _prepare(cfg, load_data(cfg.data) if data is None else data)
    dataset, model = state.dataset, state.model

    for r in range(1, rounds + 1):
        if ev.clustering is None or len(np.unique(ev.clustering.assignments)) < 2:
            state.stopped_early = f"pool exhausted before round {r}"
            break
        try:
            features = _score_clusters(ev, dataset, model, cfg, r)
        except ValueError as exc:
            state.stopped_early = f"round {r}: {exc}"
            break
        policy = replace(cfg.policy, seed=cfg.policy.seed + r)
        selected = selection.select(features, policy)
        if selected is None:
            state.stopped_early = f"round {r}: no cluster above the acceptance threshold"
            break

        members_local = np.flatnonzero(ev.clustering.assignments == selected)
        members = ev.cluster_indices[members_local]
        plurality, _ = metrics.plurality_label(dataset.true_labels[members])
        sel_features = next(f for f in features if f.cluster_id == selected)
        state.accepted.append(
            AcceptedCluster(
                round=r,
                new_label=dataset.n_classes_visible,
                plurality_label=plurality,
                true_labels=dataset.true_labels[members],
                indices=members,
                learnability=sel_features.learnability,
            )
        )
        del ev  # this round's embeddings and clustering, freed before retraining
        dataset = add_class(dataset, members)
        model = expand_outputs(
            model, dataset.n_classes_visible, seed=cfg.seed + _EXPAND_SEED_STRIDE * r
        )
        model = _train_labeled(model, dataset, cfg, cfg.epochs_per_round)

        state.dataset, state.model, state.round = dataset, model, r
        ev = _evaluate(dataset, model, cfg, state.accepted, r)
        state.detector = ev.detector
        state.history.append(
            RoundRecord(
                round=r,
                ood_pool_size=len(dataset.unlabeled_indices()),
                train_loss=_mean_recent_losses(model, cfg.epochs_per_round),
                report=ev.report,
                cluster_features=tuple(features),
                accepted_cluster=selected,
            )
        )
    return state, [rec.report for rec in state.history]


def evaluate_state(state: DiscoveryState) -> ReconstructionReport:
    """Re-evaluate a state from scratch; pure, and equal to its last history record."""
    return _evaluate(state.dataset, state.model, state.config, state.accepted, state.round).report


def class_count_config(cfg: ExperimentConfig, data: Dataset) -> ExperimentConfig:
    """The configuration each class count runs: the last five classes held out
    for evaluation, the pool routed by the oracle, and no discovery rounds.
    The classes come from ``data``, ``cfg.data`` loaded."""
    if cfg.net.output_classes is not None:
        raise ConfigError(
            f"net.output_classes ({cfg.net.output_classes}) must be unset: "
            "each class count derives its own output width"
        )
    _, counts = data.shape()
    classes = sorted(counts)
    if len(classes) <= N_EVAL_CLASSES:
        raise ConfigError(
            f"need more than {N_EVAL_CLASSES} classes to hold {N_EVAL_CLASSES} out for evaluation"
        )
    split = replace(cfg.split, held_out_classes=frozenset(classes[-N_EVAL_CLASSES:]))
    return replace(cfg, split=split, ood_mode="oracle", rounds=None)


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
    cfg = class_count_config(base_cfg, raw)
    eval_set = cfg.split.held_out_classes
    non_eval = [int(c) for c in np.unique(raw.true_labels) if c not in eval_set]
    for c in class_counts:
        if c < 2:
            raise ConfigError(f"class count {c} must be >= 2")
        if c > len(non_eval):
            raise ConfigError(f"class count {c} exceeds the {len(non_eval)} available classes")

    rows: list[tuple[int, float]] = []
    for count in class_counts:
        keep = np.flatnonzero(np.isin(raw.true_labels, sorted(set(non_eval[:count]) | eval_set)))
        # the split marks the other rows EXCLUDED and shares raw's features;
        # only the evaluation is kept: no count's split or model outlives its run
        ev = _prepare(cfg, raw, rows=keep)[1]
        rows.append((count, ev.report.weighted_ood_accuracy))
    return rows
