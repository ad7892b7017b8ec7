import math
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from classdisco import engine, ood, selection
from classdisco.clustering import KMeansConfig
from classdisco.dataset import (
    DISCOVERED_CLASS,
    Dataset,
    GaussianMixtureSpec,
    SplitSpec,
    make_split,
)
from classdisco.engine import (
    ExperimentConfig,
    evaluate_state,
    load_data,
    run_class_count_experiment,
    run_dynamic,
    run_static,
)
from classdisco.learner import AdamConfig, NetworkConfig, init_model, train_epochs
from classdisco.selection import SelectionPolicy


def world(seed=0, policy="learnability", n_classes=6, per_class=100, dim=8, separation=8.0,
          held_out=(3, 4, 5), epochs_initial=20, epochs_per_round=4, k=8, rounds=None,
          ood_mode="oracle"):
    return ExperimentConfig(
        data=GaussianMixtureSpec(n_classes, dim, separation, per_class, seed=seed),
        split=SplitSpec(held_out_classes=frozenset(held_out)),
        net=NetworkConfig(hidden_dims=(64,)),
        adam=AdamConfig(seed=seed),
        kmeans=KMeansConfig(k=k, restarts=5, seed=seed),
        policy=SelectionPolicy(kind=policy, seed=seed),
        epochs_initial=epochs_initial,
        epochs_per_round=epochs_per_round,
        rounds=rounds,
        ood_mode=ood_mode,
        seed=seed,
    )


class TestRunStatic:
    def test_separable_world_high_dra(self):
        _, report = run_static(world(seed=1))
        assert report.dra >= 0.95

    def test_untrained_model_is_a_valid_baseline(self):
        state, report = run_static(world(seed=1, epochs_initial=0))
        assert 0 < report.dra <= 1.0
        assert state.model.epochs_trained == 0
        assert math.isnan(state.history[0].train_loss)

    def test_empty_pool_rejected(self):
        cfg = world()
        cfg = replace(cfg, split=SplitSpec(held_out_classes=frozenset()))
        with pytest.raises(ValueError):
            run_static(cfg)

    def test_seed_reproducible(self):
        cfg = world(seed=5, epochs_initial=0)
        _, a = run_static(cfg)
        _, b = run_static(cfg)
        assert a.dra == b.dra
        assert a.weighted_ood_accuracy == b.weighted_ood_accuracy
        assert [c.overlap for c in a.clusters] == [c.overlap for c in b.clusters]

    def test_training_improves_over_untrained(self):
        cfg = world(seed=2, separation=3.0)
        _, trained = run_static(cfg)
        _, untrained = run_static(replace(cfg, epochs_initial=0))
        assert trained.dra > untrained.dra - 0.05  # not asserted as strict on easy worlds

    def test_report_counts_whole_training_set(self):
        cfg = world(seed=3)
        _, report = run_static(cfg)
        assert report.n_total == 600
        assert report.ell == 300
        assert report.o == 300

    def test_k_matching_held_out_count_recovers(self):
        cfg = world(seed=10, k=3)  # one cluster per held-out class
        _, report = run_static(cfg)
        assert report.dra >= 0.95


class TestRunDynamic:
    def test_round_zero_equals_static(self):
        cfg = world(seed=4)
        _, static_report = run_static(cfg)
        _, reports = run_dynamic(cfg)
        assert reports[0].dra == static_report.dra

    def test_history_length_and_rounds(self):
        cfg = world(seed=0)
        state, reports = run_dynamic(cfg)
        assert len(reports) == 3 + 1  # held-out classes + round 0
        assert state.round == 3
        assert [rec.round for rec in state.history] == [0, 1, 2, 3]

    def test_accepted_sets_disjoint_and_never_human(self):
        cfg = world(seed=6)
        state, _ = run_dynamic(cfg)
        seen: set[int] = set()
        human_classes = [i for i, c in enumerate(state.dataset.label_map) if c != DISCOVERED_CLASS]
        human = set(np.flatnonzero(np.isin(state.dataset.labels, human_classes)).tolist())
        for acc in state.accepted:
            members = set(acc.indices.tolist())
            assert not members & seen
            assert not members & human
            seen |= members

    def test_pool_shrinks_by_accepted_size(self):
        cfg = world(seed=7)
        state, _ = run_dynamic(cfg)
        for i, acc in enumerate(state.accepted):
            before = state.history[i].ood_pool_size
            after = state.history[i + 1].ood_pool_size
            assert after == before - acc.size

    def test_accepted_clusters_pure_in_separable_world(self):
        state, _ = run_dynamic(world(seed=8))
        for acc in state.accepted:
            assert acc.overlap / acc.size >= 0.9

    def test_discovered_labels_extend_range(self):
        cfg = world(seed=9)
        state, _ = run_dynamic(cfg)
        assert state.dataset.n_classes_visible == 3 + len(state.accepted)
        for acc in state.accepted:
            assert (state.dataset.labels[acc.indices] == acc.new_label).all()
            assert state.dataset.label_map[acc.new_label] == DISCOVERED_CLASS

    def test_rounds_cannot_exceed_held_out(self):
        cfg = world(rounds=4)  # only 3 classes held out
        with pytest.raises(ValueError, match="exceeds"):
            run_dynamic(cfg)

    def test_zero_rounds_is_static(self):
        cfg = world(seed=1, rounds=0)
        state, reports = run_dynamic(cfg)
        assert len(reports) == 1
        assert not state.accepted

    def test_early_stop_when_pool_exhausted(self):
        # one tiny held-out class: after the first acceptance the residual pool
        # cannot form two scoreable clusters
        cfg = world(seed=3, n_classes=4, per_class=30, held_out=(3,), k=3, rounds=1)
        state, reports = run_dynamic(cfg)
        assert len(reports) <= 2
        if state.stopped_early is not None:
            assert "round" in state.stopped_early or "pool" in state.stopped_early

    def test_threshold_policy_accepts_single_best(self):
        cfg = world(seed=2, policy="threshold")
        cfg = replace(cfg, policy=SelectionPolicy(kind="threshold", min_accuracy=0.5, seed=2))
        state, _ = run_dynamic(cfg)
        assert len(state.accepted) >= 1
        rounds = [a.round for a in state.accepted]
        assert rounds == sorted(set(rounds))  # one acceptance per round

    def test_threshold_policy_stops_when_nothing_passes(self):
        cfg = world(seed=2)
        cfg = replace(cfg, policy=SelectionPolicy(kind="threshold", min_accuracy=1.0, seed=2))
        state, reports = run_dynamic(cfg)
        assert not state.accepted
        assert state.stopped_early is not None
        assert len(reports) == 1

    def test_random_policy_runs(self):
        state, reports = run_dynamic(world(seed=11, policy="random"))
        assert len(state.accepted) == 3
        # learnability was never computed for the random policy
        for rec in state.history[1:]:
            assert all(math.isnan(f.learnability) for f in rec.cluster_features)

    def test_learnability_on_embeddings(self):
        from classdisco.selection import LearnabilityConfig

        cfg = replace(world(seed=3), learnability=LearnabilityConfig(use_embeddings=True))
        state, reports = run_dynamic(cfg)
        assert len(state.accepted) == 3
        assert reports[-1].dra >= 0.9

    def test_learnability_with_existing_class_distractors(self):
        from classdisco.selection import LearnabilityConfig

        cfg = replace(world(seed=3), learnability=LearnabilityConfig(include_existing=True))
        state, reports = run_dynamic(cfg)
        assert len(state.accepted) == 3
        assert reports[-1].dra >= 0.9

    @pytest.mark.parametrize("include_existing", [False, True])
    def test_scorer_reads_the_shared_feature_matrix(self, include_existing):
        # the scorer gathers the pool and the distractors by row index from
        # the one feature matrix; no caller-side copy reaches it
        learn = selection.LearnabilityConfig(include_existing=include_existing)
        cfg = replace(world(seed=3, rounds=2), learnability=learn)
        data = load_data(cfg.data)
        with mock.patch.object(
            selection, "learnability_scores", wraps=selection.learnability_scores
        ) as spy:
            state, _ = run_dynamic(cfg, data=data)
        assert len(state.accepted) == 2 and spy.call_count == 2
        for call in spy.call_args_list:
            assert np.shares_memory(call.args[0], data.features)
            assert (data.true_labels[call.kwargs["rows"]] >= 3).all()  # the held-out pool
            extra = call.kwargs["extra_classes"]
            assert (extra is not None) == include_existing
            if include_existing:
                assert np.shares_memory(extra[0], data.features)


    def test_round_evaluation_is_freed_before_retraining(self):
        # a round's pool embeddings are dead once its cluster is accepted;
        # holding them through retraining and the next gather raised peak RSS
        embedded, live_at_training = [], []

        def spy_embed(*args, **kwargs):
            out = real_embed(*args, **kwargs)
            embedded.append(weakref.ref(out))
            return out

        def spy_train(*args, **kwargs):
            live_at_training.append(sum(ref() is not None for ref in embedded))
            return real_train(*args, **kwargs)

        real_embed, real_train = engine.embed, engine.train_epochs
        with mock.patch.object(engine, "embed", spy_embed), mock.patch.object(
            engine, "train_epochs", spy_train
        ):
            state, _ = run_dynamic(world(seed=3, rounds=2))
        assert len(state.accepted) == 2
        assert live_at_training == [0, 0, 0]


class TestTrainLabeled:
    def test_reads_the_labeled_rows_without_copying_them(self):
        import tracemalloc

        cfg = world(seed=2, dim=128, per_class=150)
        data = make_split(load_data(cfg.data), cfg.split)
        labeled = data.labeled_indices()
        model = init_model(NetworkConfig(input_dim=128, output_classes=3, hidden_dims=(8,)), 0)
        x, y = data.features[labeled], data.labels[labeled]
        want = train_epochs(model, x, y, cfg.adam, 2)  # also the first-call imports
        with mock.patch.object(
            Dataset, "select", autospec=True, side_effect=Dataset.select
        ) as spy:
            tracemalloc.start()
            try:
                got = engine._train_labeled(model, data, cfg, 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert spy.call_count == 0
        assert peak < len(labeled) * data.n_features * data.features.itemsize
        for name in ("flat_params", "flat_m", "flat_v"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.loss_log == want.loss_log


class TestEvaluateState:
    def test_pure_and_matches_last_record(self):
        cfg = world(seed=12)
        state, _ = run_dynamic(cfg)
        again = evaluate_state(state)
        once_more = evaluate_state(state)
        assert again.dra == once_more.dra
        assert again.dra == state.history[-1].dra
        assert again.o == state.history[-1].report.o

    def test_static_state_round_trips(self):
        cfg = world(seed=13, epochs_initial=0)
        state, report = run_static(cfg)
        assert evaluate_state(state).dra == report.dra


class TestDetectorMode:
    def test_population_is_conserved(self):
        cfg = world(seed=14, ood_mode="detector")
        state, reports = run_dynamic(cfg)
        n = state.dataset.n_samples
        for report in reports:
            assert report.n_total == n

    def test_routed_points_counted_in_o(self):
        cfg = world(seed=14, ood_mode="detector", epochs_initial=40)
        _, report = run_static(cfg)
        pool = 300
        clustered = sum(c.size for c in report.clusters)
        assert clustered + report.routed_total == pool

    def test_evaluate_routes_gathered_rows_without_select(self):
        cfg = world(seed=14, ood_mode="detector")
        data = make_split(load_data(cfg.data), cfg.split)
        net = NetworkConfig(input_dim=8, output_classes=3, hidden_dims=(64,))
        model = engine._train_labeled(init_model(net, seed=14), data, cfg, cfg.epochs_initial)
        with mock.patch.object(
            Dataset, "select", autospec=True, side_effect=Dataset.select
        ) as spy:
            ev = engine._evaluate(data, model, cfg, [], 0, None)
        assert spy.call_count == 0
        pool = data.unlabeled_indices()
        want = ood.calibrate(model, data.features[data.labeled_indices()], cfg.detector_quantile)
        part = ood.partition(want, model, data.features[pool])
        assert 0 < len(part.in_dist_indices) < len(pool)
        assert ev.detector == want
        assert ev.report.routed_total == len(part.in_dist_indices)
        assert np.array_equal(ev.cluster_indices, pool[part.ood_indices])

    def test_detector_recorded_in_state(self):
        state, _ = run_static(world(seed=15, ood_mode="detector"))
        assert state.detector is not None
        assert 0.0 <= state.detector.threshold <= 1.0
        assert state.detector.quantile == 0.95

    def test_rows_routed_to_a_discovered_class_score_its_plurality_label(self):
        state, _ = run_dynamic(world(seed=3, ood_mode="detector"))
        data = state.dataset
        pool = data.unlabeled_indices()
        part = ood.partition(state.detector, state.model, data.features[pool])
        truth = data.true_labels[pool[part.in_dist_indices]]
        mapping = np.array([0, 1, 2] + [a.plurality_label for a in state.accepted])
        predicted = mapping[part.in_dist_labels]
        discovered = part.in_dist_labels >= 3
        assert (predicted[discovered] == truth[discovered]).any()
        assert state.history[-1].report.routed_correct == np.count_nonzero(predicted == truth)

    def test_evaluate_state_pure_in_detector_mode(self):
        state, _ = run_dynamic(world(seed=16, ood_mode="detector"))
        assert evaluate_state(state).dra == state.history[-1].dra


class TestClassCountExperiment:
    def test_more_classes_help_on_synthetic(self):
        # Regime where the learned metric matters: low separation, a narrow
        # embedding that genuinely reshapes, and enough training to move it.
        # The trend direction is asserted the way the real-data experiment is
        # scored: at least 4 of 5 seeds.
        wins = 0
        gaps = []
        for seed in range(5, 10):
            cfg = world(seed=seed, n_classes=10, per_class=80, separation=2.5,
                        held_out=(5, 6, 7, 8, 9), epochs_initial=60, k=10, dim=32)
            cfg = replace(
                cfg,
                net=NetworkConfig(hidden_dims=(16,)),
                adam=AdamConfig(learning_rate=0.003, seed=seed),
            )
            rows = dict(run_class_count_experiment(cfg, [2, 5]))
            wins += int(rows[5] > rows[2])
            gaps.append(rows[5] - rows[2])
        assert wins >= 4
        assert float(np.mean(gaps)) > 0

    def test_single_count_single_row(self):
        cfg = world(seed=1, n_classes=10, per_class=40, held_out=(5, 6, 7, 8, 9), k=5)
        rows = run_class_count_experiment(cfg, [3])
        assert len(rows) == 1
        assert rows[0][0] == 3

    def test_counts_validated(self):
        cfg = world(seed=1, n_classes=10, per_class=40, held_out=(5, 6, 7, 8, 9))
        with pytest.raises(ValueError):
            run_class_count_experiment(cfg, [1])
        with pytest.raises(ValueError):
            run_class_count_experiment(cfg, [6])

    def test_routing_is_always_the_oracle(self):
        cfg = world(seed=1, n_classes=10, per_class=40, held_out=(5, 6, 7, 8, 9), k=5)
        oracle = run_class_count_experiment(cfg, [2, 3])
        assert run_class_count_experiment(replace(cfg, ood_mode="detector"), [2, 3]) == oracle

    def test_uses_per_class_cap(self):
        cfg = world(seed=2, n_classes=10, per_class=50, held_out=(5, 6, 7, 8, 9), k=5)
        cfg = replace(cfg, split=replace(cfg.split, per_class_cap=20))
        rows = run_class_count_experiment(cfg, [2, 3])
        assert len(rows) == 2
