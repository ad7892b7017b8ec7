import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import weakref
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classdisco import cli, clustering, engine, learner, ood, selection
from classdisco.clustering import KMeansConfig
from classdisco.config import OOD_MODES
from classdisco.dataset import (
    DISCOVERED_CLASS,
    EXCLUDED,
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
from classdisco.selection import POLICY_KINDS, LearnabilityConfig, SelectionPolicy
from conftest import select_rows


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
        assert state.model.loss_log == ()
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

    def test_an_unscoreable_pool_stops_with_its_message(self):
        # 8 pool rows in 3 clusters: at most one reaches the scoreable size of 5
        cfg = world(n_classes=4, per_class=8, held_out=(3,), k=3, rounds=1)
        state, reports = run_dynamic(cfg)
        assert state.stopped_early == (
            "round 1: fewer than two clusters reach the scoreable size of 5"
        )
        assert len(reports) == 1 and not state.accepted

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
        for rec in state.history[:-1]:
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
        ) as spy, mock.patch.object(
            engine, "_score_clusters", wraps=engine._score_clusters
        ) as rounds:
            state, _ = run_dynamic(cfg, data=data)
        assert len(state.accepted) == 2 and spy.call_count == 2
        for call, round_call in zip(spy.call_args_list, rounds.call_args_list):
            assert np.shares_memory(call.args[0], data.features)
            assert (data.true_labels[call.kwargs["rows"]] >= 3).all()  # the held-out pool
            # the distractors are the round's own label record, uncopied
            round_labels = round_call.args[2].labels
            assert call.kwargs["labels"] is (round_labels if include_existing else None)


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
        net = NetworkConfig(input_dim=128, output_classes=3, hidden_dims=(8,))
        model = init_model(net, 0, dtype=learner.TRAIN_DTYPE)  # as _prepare builds it
        x, y = data.features[labeled], data.labels[labeled]
        want = train_epochs(model, x, y, cfg.adam, 2)  # also the first-call imports
        tracemalloc.start()
        try:
            got = engine._train_labeled(model, data, cfg, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(labeled) * data.n_features * data.features.itemsize
        for name in ("flat_params", "flat_m", "flat_v"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.loss_log == want.loss_log


class TestFloat32MainModel:
    def test_the_main_model_trains_and_k_means_clusters_in_float32(self):
        """From ``_prepare`` through ``expand_outputs`` and retraining, the main
        model's block, workspace, gradients and embeddings are float32, and
        k-means seeds, iterates and returns centroids in float32 on them. The
        random policy runs no scorer, so every training call seen is the main
        model's."""
        seen = {}

        def spy(module, name):
            real = getattr(module, name)

            def record(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.setdefault(name, []).append((args, out))
                return out

            return mock.patch.object(module, name, record)

        spied = [(engine, n) for n in ("_prepare", "init_model", "_train_labeled", "expand_outputs")]
        spied += [(engine, "embed"), (clustering, "kmeanspp_init"), (clustering, "lloyd_fit")]
        spied += [(learner, n) for n in ("_workspace", "loss_and_gradients", "_adam_update")]
        cfg = world(seed=1, policy="random", rounds=1, epochs_initial=2, epochs_per_round=1)
        with contextlib.ExitStack() as stack:
            for module, name in spied:
                stack.enter_context(spy(module, name))
            state, _ = run_dynamic(cfg)

        f32 = np.dtype(np.float32)
        assert {name for _, name in spied} == set(seen)
        assert len(seen["expand_outputs"]) == 1 and len(seen["_train_labeled"]) == 2
        (_, (prepared, embeddings)), = seen["_prepare"]
        models = [prepared.model, state.model] + [out for _, out in seen["init_model"]]
        models += [m for name in ("_train_labeled", "expand_outputs") for (m, *_), _ in seen[name]]
        models += [out for name in ("_train_labeled", "expand_outputs") for _, out in seen[name]]
        assert {m.block.dtype for m in models} == {f32}
        for _, ws in seen["_workspace"]:
            arrays = [ws.work, *ws.grads, ws.zero, *ws.adam[2:]]
            for b in ws.batches:
                arrays += [b.onehot, b.loss, b.size, b.x, b.logits, b.logits_t, b.col]
                arrays += sum(b.hidden, ())
            assert {a.dtype for a in arrays} == {f32}
        for (model, x, _, _), (_, grads) in seen["loss_and_gradients"]:
            assert {model.block.dtype, x.dtype, *(g.dtype for g in grads)} == {f32}
        for (model, ws), _ in seen["_adam_update"]:
            assert {model.block.dtype, ws.work.dtype} == {f32}
        assert embeddings.dtype == f32
        assert {out.dtype for _, out in seen["embed"]} == {f32}
        for (points, *_), init in seen["kmeanspp_init"]:
            assert {points.dtype, init.dtype} == {f32}
        for (points, init, *_), fit in seen["lloyd_fit"]:
            assert {points.dtype, init.dtype, fit.centroids.dtype} == {f32}


class TestEvaluateRows:
    @pytest.mark.parametrize("ood_mode", ["oracle", "detector"])
    def test_round_zero_peaks_below_one_pool_gather(self, ood_mode):
        """A 784-wide pool of 2200 rows spans three blocks; neither the pool
        nor the labeled rows are gathered whole."""
        import tracemalloc

        cfg = world(seed=4, n_classes=4, per_class=1100, dim=784, held_out=(2, 3), k=4,
                    ood_mode=ood_mode)
        data = make_split(load_data(cfg.data), cfg.split)
        pool = data.unlabeled_indices()
        assert len(pool) == 2200 and len(data.labeled_indices()) == 2200
        net = NetworkConfig(input_dim=784, output_classes=2, hidden_dims=(16,))
        model = init_model(net, 4, dtype=learner.TRAIN_DTYPE)  # as _prepare builds it
        state = engine.DiscoveryState(data, model, cfg)
        engine._evaluate(state)  # also the first-call imports
        tracemalloc.start()
        try:
            record, _ = engine._evaluate(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(record.cluster_indices)
        assert peak < len(pool) * data.n_features * data.features.itemsize


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


def discover_outputs(cfg, mode, result) -> dict[str, str]:
    """The files ``discover --mode mode`` writes for a run that returned ``result``."""
    args = argparse.Namespace(mode=mode, workers=None)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        args.out = out
        with mock.patch.object(engine, f"run_{mode}", return_value=result):
            assert cli.cmd_discover(args, cfg) == 0
        return {name: Path(out, name).read_text() for name in sorted(os.listdir(out))}


class TestWholeRunInvariants:
    # Each learnability or threshold round trains a scorer for about 2,000
    # Adam steps, so a three-round example of those policies, run twice,
    # takes about a second: the example count keeps the test within a few.
    @settings(max_examples=10, deadline=None)
    @given(
        rounds=st.integers(1, 3),
        ood_mode=st.sampled_from(OOD_MODES),
        policy=st.sampled_from(POLICY_KINDS),
        use_embeddings=st.booleans(),
        include_existing=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(
        rounds=3,
        ood_mode="detector",
        policy="learnability",
        use_embeddings=True,
        include_existing=True,
        seed=1,
    )
    def test_rounds_keep_the_run_invariants(
        self, rounds, ood_mode, policy, use_embeddings, include_existing, seed
    ):
        """Tiny runs, with EXCLUDED rows from a per-class cap."""
        cfg = ExperimentConfig(
            data=GaussianMixtureSpec(6, 4, 6.0, 16, seed=seed),
            split=SplitSpec(held_out_classes=frozenset({3, 4, 5}), per_class_cap=13, seed=seed),
            net=NetworkConfig(hidden_dims=(8,)),
            adam=AdamConfig(batch_size=16, seed=seed),
            kmeans=KMeansConfig(k=4, restarts=2, seed=seed),
            policy=SelectionPolicy(kind=policy, seed=seed, min_accuracy=0.5),
            learnability=LearnabilityConfig(
                hidden_dims=(4,),
                epochs=1,
                use_embeddings=use_embeddings,
                include_existing=include_existing,
            ),
            epochs_initial=2,
            epochs_per_round=1,
            rounds=rounds,
            ood_mode=ood_mode,
            detector_quantile=0.5,
            seed=seed,
        )
        with mock.patch.object(engine, "add_class", wraps=engine.add_class) as spy:
            state, reports = run_dynamic(cfg)
        assert evaluate_state(state) == reports[-1]
        static, static_report = run_static(cfg)
        for run in (state, static):  # the round is derived; each record holds its detector
            assert run.round == len(run.accepted) == run.history[-1].round
            assert run.history[-1].detector == engine._evaluate(run)[0].detector
            for rec in run.history:
                if rec.clustering is None:
                    assert len(rec.cluster_indices) == 0
                else:  # the record's clustering is the one its report scored
                    assigned = rec.clustering.assignments
                    assert len(assigned) == len(rec.cluster_indices)
                    ids = [c.cluster_id for c in rec.report.clusters]
                    assert ids == np.unique(assigned).tolist()
                if ood_mode == "oracle" or rec.ood_pool_size == 0:
                    assert rec.detector is None
                    continue
                assert rec.detector.quantile == cfg.detector_quantile
                labeled = rec.report.ell + sum(f.size for f in rec.report.frozen)
                assert rec.detector.calibration_size == labeled
        for mode, result in (("dynamic", (state, reports)), ("static", (static, static_report))):
            outputs = discover_outputs(cfg, mode, result)
            assert sorted(outputs) == ["clusters.csv", "curves.csv", "report.json"]
            last = result[0].history[-1].detector
            want = None if last is None else asdict(last)
            assert json.loads(outputs["report.json"])["detector"] == want
            for name, text in outputs.items():
                assert "np." not in text, f"{name} holds a numpy repr"

        accepted = [a.indices for a in state.accepted]
        # each record holds the scores of its own clustering and the pick made from them
        for rec in state.history:
            if rec.cluster_features:
                ids = [f.cluster_id for f in rec.cluster_features]
                assert ids == np.unique(rec.clustering.assignments).tolist()
        for rec, members in zip(state.history[:-1], accepted, strict=True):
            assert rec.accepted_cluster in [f.cluster_id for f in rec.cluster_features]
            chosen = rec.clustering.assignments == rec.accepted_cluster
            assert np.array_equal(members, rec.cluster_indices[chosen])
        last = state.history[-1]
        assert last.accepted_cluster is None
        if "no cluster above the acceptance threshold" in (state.stopped_early or ""):
            assert last.cluster_features  # the round the run stopped on keeps its scores
        else:  # a run that finished, or stopped before scoring, left its last round unscored
            assert last.cluster_features == ()
        for call, members in zip(spy.call_args_list, accepted, strict=True):
            before, passed = call.args
            assert np.array_equal(passed, members)
            assert np.isin(members, before.unlabeled_indices()).all()

        data = state.dataset
        human = np.asarray(data.label_map) != DISCOVERED_CLASS
        labeled = data.labeled_indices()
        parts = [labeled[human[data.labels[labeled]]], data.unlabeled_indices(), *accepted]
        assert np.array_equal(np.sort(np.concatenate(parts)), np.flatnonzero(data.labels != EXCLUDED))

        ells = {rec.report.ell for rec in state.history}
        assert ells == {data.human_labeled_count()}
        if ood_mode == "oracle":
            sizes = [rec.ood_pool_size for rec in state.history]
            assert np.array_equal(np.diff(sizes), [-len(a) for a in accepted])

        again, again_reports = run_dynamic(cfg)
        assert again.model.block.tobytes() == state.model.block.tobytes()
        assert again_reports == reports


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
        record, _ = engine._evaluate(engine.DiscoveryState(data, model, cfg))
        pool = data.unlabeled_indices()
        want = ood.calibrate(model, data.features[data.labeled_indices()], cfg.detector_quantile)
        part = ood.partition(want, model, data.features[pool])
        assert 0 < len(part.in_dist_indices) < len(pool)
        assert record.detector == want
        assert record.report.routed_total == len(part.in_dist_indices)
        assert np.array_equal(record.cluster_indices, pool[part.ood_indices])

    def test_detector_recorded_on_the_round(self):
        state, _ = run_static(world(seed=15, ood_mode="detector"))
        detector = state.history[-1].detector
        assert detector is not None
        assert 0.0 <= detector.threshold <= 1.0
        assert detector.quantile == 0.95

    def test_rows_routed_to_a_discovered_class_score_its_plurality_label(self):
        state, _ = run_dynamic(world(seed=3, ood_mode="detector"))
        data = state.dataset
        pool = data.unlabeled_indices()
        part = ood.partition(state.history[-1].detector, state.model, data.features[pool])
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

    def test_each_count_matches_the_run_on_its_copied_rows(self):
        cfg = world(seed=2, n_classes=10, per_class=50, held_out=(5, 6, 7, 8, 9), k=5)
        cfg = replace(cfg, split=replace(cfg.split, per_class_cap=20))
        raw = load_data(cfg.data)
        run_cfg = engine.class_count_config(cfg, raw)
        got = dict(run_class_count_experiment(cfg, [2, 4], data=raw))
        for count in (2, 4):
            keep = np.flatnonzero(np.isin(raw.true_labels, [*range(count), 5, 6, 7, 8, 9]))
            report = engine._prepare(run_cfg, select_rows(raw, keep))[0].history[0].report
            assert got[count] == report.weighted_ood_accuracy

    def test_largest_count_allocates_less_than_its_kept_rows(self):
        import tracemalloc

        cfg = world(
            seed=2, n_classes=10, per_class=60, dim=256, held_out=(5, 6, 7, 8, 9), k=5,
            epochs_initial=2,
        )
        cfg = replace(
            cfg, net=NetworkConfig(hidden_dims=(8,)), split=replace(cfg.split, per_class_cap=50)
        )
        raw = load_data(cfg.data)
        run_class_count_experiment(cfg, [2], data=raw)  # also the first-call imports
        kept_bytes = 10 * 50 * raw.n_features * raw.features.itemsize
        tracemalloc.start()
        try:
            run_class_count_experiment(cfg, [5], data=raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kept_bytes
