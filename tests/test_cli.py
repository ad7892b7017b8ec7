import contextlib
import copy
import errno
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import typing
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classdisco import cli, dataset, engine, seeds, selection
from classdisco.cli import main
from classdisco.clustering import KMeansConfig
from classdisco.config import OOD_MODES, ConfigError, config_to_dict, parse_config
from classdisco.dataset import DataSource
from classdisco.selection import POLICY_KINDS, LearnabilityConfig
from conftest import write_idx_pair

SYNTHETIC_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"


def base_config(**overrides):
    doc = {
        "data": {
            "kind": "synthetic",
            "n_classes": 6,
            "dim": 8,
            "separation": 8.0,
            "per_class_n": 60,
            "seed": 2,
        },
        "split": {"held_out_classes": [3, 4, 5], "seed": 1},
        "net": {"hidden_dims": [32]},
        "adam": {"seed": 3},
        "kmeans": {"k": 6, "restarts": 3, "seed": 4},
        "policy": {"kind": "learnability", "seed": 5},
        "epochs_initial": 5,
        "epochs_per_round": 2,
        "seed": 6,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="exp.json"):
    """Write ``doc`` as JSON; a string is written as it is."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def classcount_config(**overrides):
    doc = base_config(**overrides)
    doc["data"]["n_classes"] = 10
    doc["data"]["per_class_n"] = 40
    doc["kmeans"]["k"] = 5
    doc["epochs_initial"] = 3
    return doc


def no_training(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("a model was trained")

    monkeypatch.setattr(engine, "_prepare", fail)


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["validate", "--config", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(extra_knob=3))
        assert main(["validate", "--config", path]) == 1
        assert "extra_knob" in capsys.readouterr().err

    def test_bad_quantile(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(detector_quantile=1.5))
        assert main(["validate", "--config", path]) == 1
        assert "quantile" in capsys.readouterr().err

    def test_k_exceeding_pool(self, tmp_path, capsys):
        doc = base_config()
        doc["kmeans"]["k"] = 500
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "pool" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        doc = base_config()
        doc["data"] = {"kind": "idx", "images": "/nope/im.idx", "labels": "/nope/lb.idx"}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "missing" in capsys.readouterr().err

    def test_unreadable_config(self, capsys):
        assert main(["validate", "--config", "/nope/exp.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 1

    def test_rounds_beyond_held_out(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(rounds=7))
        assert main(["validate", "--config", path]) == 1
        assert "rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "discover"])
    @pytest.mark.parametrize(
        "held_out, message",
        [
            ([], "split.held_out_classes is empty: discovery has no OOD pool"),
            ([3, 4, 9], "split.held_out_classes names classes not present in data: [9]"),
        ],
        ids=["empty", "absent-class"],
    )
    def test_held_out_classes_checked_against_data(
        self, tmp_path, capsys, command, held_out, message
    ):
        doc = base_config()
        doc["split"]["held_out_classes"] = held_out
        path = write_config(tmp_path, doc)
        assert main(_argv(command, path, str(tmp_path / "out"))) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_split_leaving_one_trainable_class(self, tmp_path, capsys):
        doc = base_config()
        doc["data"]["n_classes"] = 3
        doc["split"]["held_out_classes"] = [1, 2]
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "split.held_out_classes" in capsys.readouterr().err
        assert main(["discover", "--config", path, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "net, ok",
        [
            ({"input_dim": 7}, False),
            ({"output_classes": 2}, False),
            ({"output_classes": 4}, False),
            ({"input_dim": 8, "output_classes": 3}, True),
        ],
    )
    def test_net_resolved_against_data(self, tmp_path, capsys, net, ok):
        doc = base_config()
        doc["net"].update(net)
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == (0 if ok else 1)
        if not ok:
            assert f"net.{next(iter(net))}" in capsys.readouterr().err
            assert main(["discover", "--config", path, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("kmeans", "restarts", 2**62),
            ("net", "hidden_dims", [2**62]),
            ("learnability", "hidden_dims", [2**62]),
        ],
    )
    def test_an_array_past_numpys_limit_names_its_key(self, tmp_path, capsys, section, key, value):
        # each used to pass, then fail after training with a message naming no
        # key; the restarts spawned a generator each before allocating anything
        doc = base_config()
        doc.setdefault(section, {})[key] = value
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {section}.{key} sizes ")

    def test_the_k_means_block_may_fill_numpys_limit(self, tmp_path, capsys):
        # 6 clusters of 180 pool rows, float32: validated only, never run
        doc = base_config()
        doc["kmeans"]["restarts"] = np.iinfo(np.intp).max // (6 * 180 * 4)
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0
        doc["kmeans"]["restarts"] += 1
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        assert "kmeans.restarts" in capsys.readouterr().err

    def test_non_finite_csv_feature_names_line_and_column(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        csv.write_text("f0,f1,label\n0.5,1.5,0\n1.0,2.0,1\n-1.0,,1\n0.0,0.5,2\n")
        doc = base_config()
        doc["data"] = {"kind": "csv", "path": str(csv)}
        doc["split"]["held_out_classes"] = [2]
        doc["kmeans"]["k"] = 1
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert "line 4, column 'f1'" in capsys.readouterr().err
        assert main(["discover", "--config", path, "--out", str(tmp_path / "x")]) == 1

    def test_bad_idx_magic_names_file(self, tmp_path, capsys, idx_writer):
        images, labels = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        idx_writer(np.zeros((4, 2, 2), dtype=np.uint8), [0, 1, 2, 3], images, labels)
        with open(images, "r+b") as f:
            f.write(struct.pack(">I", 9999))
        doc = base_config()
        doc["data"] = {"kind": "idx", "images": images, "labels": labels}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "bad magic 9999" in err
        assert images in err


class TestConfigRoundTrip:
    def test_parse_then_echo_is_stable(self, tmp_path):
        cfg = parse_config(base_config())
        echoed = config_to_dict(cfg)
        assert parse_config(echoed) == cfg

    def test_defaults_materialized(self):
        cfg = parse_config(base_config())
        doc = config_to_dict(cfg)
        assert doc["adam"]["learning_rate"] == 0.001
        assert doc["adam"]["epsilon"] == 1e-7
        assert doc["kmeans"]["restarts"] == 3
        assert doc["ood_mode"] == "oracle"

    @pytest.mark.parametrize("kind", ["parquet", None, ["csv"]])
    def test_unknown_data_kind_names_data_kind(self, tmp_path, capsys, kind):
        doc = base_config()
        doc["data"]["kind"] = kind
        with pytest.raises(ConfigError, match=re.escape("'data.kind'")):
            parse_config(doc)
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        assert "data.kind" in capsys.readouterr().err

    def test_nested_unknown_key(self):
        doc = base_config()
        doc["adam"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(doc)


class TestConfigTypes:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("split.held_out_classes", "59"),
            ("learnability.use_embeddings", "false"),
            ("kmeans.k", 15.9),
            ("kmeans.k", True),
            ("kmeans.k", "abc"),
            ("seed", None),
            ("net.hidden_dims", 128),
            ("learnability.hidden_dims", 128),
        ],
    )
    def test_wrong_type_names_the_key(self, tmp_path, capsys, key, value):
        doc = base_config()
        *section, name = key.split(".")
        (doc.setdefault(section[0], {}) if section else doc)[name] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            parse_config(doc)
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        assert key in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key, value",
        [
            ("net.hidden_dims", []),
            ("net.hidden_dims", [0]),
            ("net.output_classes", 1),
            ("learnability.hidden_dims", []),
            ("learnability.hidden_dims", [0]),
        ],
    )
    def test_bad_value_names_the_section(self, tmp_path, capsys, key, value):
        doc = base_config()
        section, name = key.split(".")
        doc.setdefault(section, {})[name] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{section}'")):
            parse_config(doc)
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 1
        assert main(["discover", "--config", path, "--out", str(tmp_path / "x")]) == 1


def _section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


_SEEDS = st.integers(-(2**40), 2**40)
_SIZES = st.integers(1, 10_000)
_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_PATHS = st.text(st.characters(exclude_characters="\0"), min_size=1)  # a name a file can have

# Valid `data` documents, one strategy per data kind.
DATA_DOCS = {
    "synthetic": _section(
        {
            "kind": st.just("synthetic"),
            "n_classes": st.integers(2, 100),
            "dim": _SIZES,
            "separation": st.integers(0, 100) | st.floats(0.0, 100.0),
            "per_class_n": _SIZES,
        },
        seed=_SEEDS,
    ),
    "idx": _section({"kind": st.just("idx"), "images": _PATHS, "labels": _PATHS}),
    "csv": _section({"kind": st.just("csv"), "path": _PATHS}),
}

# Valid documents covering every section, kind and optional key.
CONFIG_DOCS = st.fixed_dictionaries(
    {
        "data": st.one_of(*DATA_DOCS.values()),
        "split": _section(
            {"held_out_classes": st.lists(st.integers(0, 255))},
            per_class_cap=st.none() | _SIZES,
            seed=_SEEDS,
        ),
    },
    optional={
        "net": _section(
            hidden_dims=st.lists(_SIZES, min_size=1, max_size=4),
            input_dim=st.none() | _SIZES,
            output_classes=st.none() | st.integers(2, 10_000),
        ),
        "adam": _section(
            learning_rate=st.floats(1e-6, 1.0),
            beta1=st.floats(0.0, 1.0, exclude_max=True),
            beta2=st.floats(0.0, 1.0, exclude_max=True),
            epsilon=st.floats(1e-12, 1e-3),
            batch_size=_SIZES,
            seed=_SEEDS,
        ),
        "kmeans": _section(
            k=_SIZES, restarts=_SIZES, max_iters=_SIZES, tol=st.floats(0.0, 1.0), seed=_SEEDS
        ),
        "policy": _section(kind=st.sampled_from(POLICY_KINDS), seed=_SEEDS, min_accuracy=_UNIT),
        "learnability": _section(
            holdout_fraction=_OPEN_UNIT,
            hidden_dims=st.lists(_SIZES, min_size=1, max_size=4),
            epochs=_SIZES,
            use_embeddings=st.booleans(),
            include_existing=st.booleans(),
        ),
        "epochs_initial": st.integers(0, 1000),
        "epochs_per_round": st.integers(0, 1000),
        "rounds": st.none() | st.integers(0, 1000),
        "ood_mode": st.sampled_from(OOD_MODES),
        "detector_quantile": _OPEN_UNIT,
        "seed": _SEEDS,
    },
)


class TestConfigFixpoint:
    @settings(max_examples=300, deadline=None)
    @given(CONFIG_DOCS)
    def test_parse_echo_is_a_fixpoint(self, doc):
        cfg = parse_config(doc)
        assert cfg.data.kind == doc["data"]["kind"]
        echoed = config_to_dict(cfg)
        assert parse_config(echoed) == cfg
        assert json.dumps(config_to_dict(parse_config(echoed))) == json.dumps(echoed)

    def test_draws_every_data_kind(self):
        assert set(DATA_DOCS) == {source.kind for source in typing.get_args(DataSource)}


class TestDiscover:
    def test_static_run_writes_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run_static"
        assert main(["discover", "--config", path, "--mode", "static", "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "curves.csv").exists()
        assert (out / "clusters.csv").exists()
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "round,dra,mean_cluster_accuracy,ood_pool_size,train_loss"
        assert len(curves) == 2

    def test_dynamic_run_and_report_shape(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run_dyn"
        assert main(["discover", "--config", path, "--mode", "dynamic", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "classdisco-report/v1"
        assert report["mode"] == "dynamic"
        assert len(report["rounds"]) == 4  # 3 held-out classes + round 0
        assert report["final_dra"] == report["rounds"][-1]["dra"]
        assert len(report["accepted"]) == 3
        assert report["seed_registry"]["master"] == 6
        curves = (out / "curves.csv").read_text().splitlines()
        assert len(curves) == 5

    def test_rerun_from_report_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_config())
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main(["discover", "--config", path, "--mode", "dynamic", "--out", str(first)]) == 0
        assert (
            main(
                [
                    "discover",
                    "--config",
                    str(first / "report.json"),
                    "--mode",
                    "dynamic",
                    "--out",
                    str(again),
                ]
            )
            == 0
        )
        assert (first / "curves.csv").read_bytes() == (again / "curves.csv").read_bytes()
        assert (first / "clusters.csv").read_bytes() == (again / "clusters.csv").read_bytes()

    def test_parallel_workers_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["discover", "--config", path, "--mode", "static", "--out", str(serial)]) == 0
        assert cli.WORKERS_NOTE not in capsys.readouterr().err
        assert (
            main(
                [
                    "discover",
                    "--config",
                    path,
                    "--mode",
                    "static",
                    "--out",
                    str(parallel),
                    "--workers",
                    "4",
                ]
            )
            == 0
        )
        assert capsys.readouterr().err.splitlines().count(cli.WORKERS_NOTE) == 1
        for name in ("curves.csv", "clusters.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

        def report_less_wall_clock(out):
            lines = (out / "report.json").read_bytes().splitlines()
            return [line for line in lines if b'"wall_clock_seconds"' not in line]

        assert report_less_wall_clock(serial) == report_less_wall_clock(parallel)

    def test_synthetic_config_reruns_byte_identical(self, tmp_path):
        """Two dynamic runs of configs/synthetic.json, whose main classifier and
        scorer train in float32, write the same bytes apart from the wall clock."""
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            argv = ["discover", "--mode", "dynamic", "--config", str(SYNTHETIC_CONFIG)]
            assert main(argv + ["--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["clusters.csv", "curves.csv", "report.json"]
        first, second = (json.loads((out / "report.json").read_text()) for out in outs)
        first.pop("wall_clock_seconds"), second.pop("wall_clock_seconds")
        assert first == second
        for name in ("curves.csv", "clusters.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_emitted_report_revalidates(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["discover", "--config", path, "--mode", "static", "--out", str(out)]) == 0
        assert main(["validate", "--config", str(out / "report.json")]) == 0

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        doc = base_config()
        doc["data"] = {"kind": "csv", "path": str(tmp_path / "absent.csv")}
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["discover", "--config", path, "--out", str(out)]) == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_config_error_exits_one(self, tmp_path):
        path = write_config(tmp_path, base_config(mystery=1))
        assert main(["discover", "--config", path, "--out", str(tmp_path / "x")]) == 1

    def test_detector_mode_serialized_in_report(self, tmp_path):
        path = write_config(tmp_path, base_config(ood_mode="detector", detector_quantile=0.9))
        out = tmp_path / "det"
        assert main(["discover", "--config", path, "--mode", "static", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        detector = report["detector"]
        assert detector["quantile"] == 0.9
        assert 0.0 <= detector["threshold"] <= 1.0
        assert detector["calibration_size"] == 180

    def test_a_one_cluster_pool_stops_before_round_one(self, tmp_path, capsys):
        doc = json.loads(SYNTHETIC_CONFIG.read_text())
        doc["kmeans"]["k"] = 1
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["discover", "--config", path, "--mode", "dynamic", "--out", str(out)]) == 0
        assert "stopped early: pool exhausted before round 1" in capsys.readouterr().out.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert report["stopped_early"] == "pool exhausted before round 1"
        assert [r["round"] for r in report["rounds"]] == [0]
        assert report["accepted"] == []
        assert len((out / "curves.csv").read_text().splitlines()) == 2

    def test_a_threshold_stop_keeps_the_scores_of_the_round_it_stopped_on(self, tmp_path, capsys):
        # no learnability lies above 1.0, so round 1 scores round 0's clusters and stops
        doc = json.loads(SYNTHETIC_CONFIG.read_text())
        doc.update(epochs_initial=3, epochs_per_round=1)
        doc["policy"] = {"kind": "threshold", "min_accuracy": 1.0}
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["discover", "--config", path, "--mode", "dynamic", "--out", str(out)]) == 0
        stop = "round 1: no cluster above the acceptance threshold"
        assert f"stopped early: {stop}" in capsys.readouterr().out.splitlines()
        lines = (out / "clusters.csv").read_text().splitlines()
        columns = lines[0].split(",")
        scored = [dict(zip(columns, line.split(","))) for line in lines[1:]]
        scored = [row for row in scored if row["round"] == "0" and row["source"] == "cluster"]
        assert len(scored) == 15
        for row in scored:
            assert 0.0 <= float(row["learnability"]) <= 1.0
            assert math.isfinite(float(row["density"]))
            assert row["accepted"] == "0"
        report = json.loads((out / "report.json").read_text())
        assert report["stopped_early"] == stop
        assert [(r["scored_clusters"], r["accepted_cluster"]) for r in report["rounds"]] == [
            ([], None)
        ]
        assert report["accepted"] == []

    def test_a_two_layer_net_runs_end_to_end(self, tmp_path):
        doc = base_config()
        doc["net"]["hidden_dims"] = [16, 8]
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["discover", "--config", path, "--mode", "dynamic", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["net"]["hidden_dims"] == [16, 8]
        assert len(report["rounds"]) == 4
        assert len(report["accepted"]) == 3

    @pytest.mark.parametrize("command", ["discover", "classcount"])
    def test_a_model_too_large_to_allocate_is_a_runtime_failure(self, tmp_path, capsys, command):
        # 10**15 hidden units: a parameter block of hundreds of PiB, beyond
        # any address space, so numpy refuses it outright
        doc = classcount_config()
        doc["net"]["hidden_dims"] = [10**15]
        path = write_config(tmp_path, doc)
        assert main(_argv(command, path, str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: Unable to allocate") and len(err.splitlines()) == 1

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, _poisoned_csv(tmp_path))
        assert main(["discover", "--config", path, "--mode", "static", "--out", str(tmp_path / "x")]) == 2
        assert "runtime failure: non-finite loss" in capsys.readouterr().err

    def test_a_stray_value_error_in_scoring_fails_the_run(self, tmp_path, capsys):
        # only an unscoreable pool stops a run cleanly; any other error is a failure
        stray = ValueError("operands could not be broadcast together")
        out = tmp_path / "run"
        with mock.patch.object(selection, "density_score", side_effect=stray):
            code = main(["discover", "--config", str(SYNTHETIC_CONFIG), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"runtime failure: {stray}\n"
        assert not (out / "report.json").exists()


class TestWorkers:
    @pytest.mark.parametrize("command", ["discover", "classcount"])
    @pytest.mark.parametrize(
        "flag, env, named",
        [
            ("-2", None, "--workers"),
            ("0", None, "--workers"),
            # beside a bad flag, a bad CLASSDISCO_WORKERS is not the one named
            ("0", "two", "--workers"),
        ],
    )
    def test_bad_worker_count_fails_before_training(
        self, tmp_path, capsys, monkeypatch, command, flag, env, named
    ):
        path = write_config(tmp_path, classcount_config())
        if env is not None:
            monkeypatch.setenv("CLASSDISCO_WORKERS", env)
        argv = _argv(command, path, str(tmp_path / "out")) + ["--workers", flag]
        no_training(monkeypatch)
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_environment_variable_is_not_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CLASSDISCO_WORKERS", "two")
        path = write_config(tmp_path, base_config())
        assert main(_argv("discover", path, str(tmp_path / "out"))) == 0
        assert cli.WORKERS_NOTE not in capsys.readouterr().err


class TestClassCount:
    def test_writes_table(self, tmp_path):
        doc = base_config()
        doc["data"]["n_classes"] = 10
        doc["data"]["per_class_n"] = 40
        doc["kmeans"]["k"] = 5
        doc["epochs_initial"] = 3
        path = write_config(tmp_path, doc)
        out = tmp_path / "cc"
        assert main(["classcount", "--config", path, "--counts", "2,3", "--out", str(out)]) == 0
        rows = (out / "classcount.csv").read_text().splitlines()
        assert rows[0] == "class_count,mean_cluster_accuracy"
        assert len(rows) == 3
        assert rows[1].startswith("2,")
        assert rows[2].startswith("3,")

    def test_duplicate_counts_warn_and_dedupe(self, tmp_path, capsys):
        doc = base_config()
        doc["data"]["n_classes"] = 10
        doc["data"]["per_class_n"] = 40
        doc["kmeans"]["k"] = 5
        doc["epochs_initial"] = 3
        path = write_config(tmp_path, doc)
        out = tmp_path / "cc"
        assert main(["classcount", "--config", path, "--counts", "2,2,3", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "duplicate" in captured.err
        rows = (out / "classcount.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_invalid_count_exits_one(self, tmp_path, capsys):
        doc = base_config()
        doc["data"]["n_classes"] = 10
        doc["data"]["per_class_n"] = 40
        path = write_config(tmp_path, doc)
        assert main(["classcount", "--config", path, "--counts", "1", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "counts, message",
        [("2,x", "invalid --counts value '2,x'"), (",", "--counts is empty")],
    )
    def test_unparsable_counts_exit_one(self, tmp_path, capsys, monkeypatch, counts, message):
        path = write_config(tmp_path, classcount_config())
        no_training(monkeypatch)
        argv = ["classcount", "--config", path, "--counts", counts, "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "held_out, k", [([], 5), ([9], 50)], ids=["no-held-out", "k-above-configured-pool"]
    )
    def test_validates_its_own_split(self, tmp_path, capsys, held_out, k):
        # classcount always holds out the last five classes; the configured
        # split is not what it runs, so it must not be what it checks
        def run(held, name):
            doc = classcount_config()
            doc["split"]["held_out_classes"] = held
            doc["kmeans"]["k"] = k
            out = tmp_path / name
            argv = ["classcount", "--config", write_config(tmp_path, doc, f"{name}.json")]
            assert main(argv + ["--counts", "2,3", "--out", str(out)]) == 0, capsys.readouterr().err
            return (out / "classcount.csv").read_bytes()

        assert run(held_out, "configured") == run([5, 6, 7, 8, 9], "default")

    def test_bad_data_fails_as_config_error(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        rows = [f"{c}.0,{c}.5,{c}" for c in range(7) for _ in range(3)]
        rows[4] = "nan,1.5,1"
        csv.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        doc = classcount_config()
        doc["data"] = {"kind": "csv", "path": str(csv)}
        argv = ["classcount", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert "line 6, column 'f0'" in capsys.readouterr().err

    @pytest.mark.parametrize("output_classes", [3, 7])
    def test_set_output_classes_fails_before_training(
        self, tmp_path, capsys, monkeypatch, output_classes
    ):
        # 3 differs from the 7 trainable classes, so validation rejects it; 7
        # passes validation but is wrong for every count, so the engine does.
        doc = classcount_config()
        doc["net"]["output_classes"] = output_classes
        path = write_config(tmp_path, doc)
        no_training(monkeypatch)
        argv = ["classcount", "--config", path, "--counts", "2,3,4", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert "net.output_classes" in capsys.readouterr().err


class TestDataLoadedOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["discover", "--mode", "dynamic"],
            ["discover", "--mode", "static"],
            ["classcount", "--counts", "2"],
        ],
        ids=["discover-dynamic", "discover-static", "classcount"],
    )
    def test_csv_is_parsed_once_per_run(self, tmp_path, argv):
        rng = np.random.default_rng(0)
        rows = [
            ",".join(f"{c * 6 + v:.3f}" for v in rng.standard_normal(2)) + f",{c}"
            for c in range(7)
            for _ in range(12)
        ]
        csv = tmp_path / "data.csv"
        csv.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        doc = classcount_config()
        doc["data"] = {"kind": "csv", "path": str(csv)}
        doc["split"]["held_out_classes"] = [5, 6]
        doc["kmeans"]["k"] = 2
        path = write_config(tmp_path, doc)
        with mock.patch.object(dataset, "load_csv", wraps=dataset.load_csv) as spy:
            assert main(argv + ["--config", path, "--out", str(tmp_path / "out")]) == 0
        assert spy.call_count == 1


def _argv(command, path, out):
    """The argv of ``command``; a ``classcount --counts ...`` command replaces its counts of 2."""
    command, *counts = command.split()
    if command == "validate":
        return ["validate", "--config", path]
    if command == "discover":
        return ["discover", "--config", path, "--mode", "static", "--out", out]
    return ["classcount", "--config", path, *(counts or ["--counts", "2"]), "--out", out]


def _csv_config(tmp_path, text):
    csv = tmp_path / "data.csv"
    csv.write_text(text)
    doc = base_config()
    doc["data"] = {"kind": "csv", "path": str(csv)}
    return doc


def _poisoned_csv(tmp_path):
    """Seven sound classes, trained with a step so large that the loss turns non-finite."""
    rows = ["f0,f1,label", "0.9,0.3,0"]
    rows += [f"0.{i},0.{i},{i % 2}" for i in range(1, 9)]
    rows += [f"0.{i},9.{c},{c}" for c in range(2, 7) for i in range(5, 8)]
    doc = _csv_config(tmp_path, "\n".join(rows) + "\n")
    doc["split"] = {"held_out_classes": [2], "seed": 0}
    doc["kmeans"]["k"] = 2
    doc["adam"]["learning_rate"] = 1e300
    return doc


def _overflowing_detector(tmp_path):
    """One step that leaves the weights finite but so large that the detector's logits overflow."""
    doc = base_config(ood_mode="detector", epochs_initial=1)
    doc["adam"].update(learning_rate=1e30, batch_size=256)  # one batch: no second loss to fail
    return doc


def _float32_overflow_csv(tmp_path):
    return _csv_config(tmp_path, "f0,f1,label\n1e308,0.3,0\n0.1,0.2,1\n")


def _ragged_csv(tmp_path):
    return _csv_config(tmp_path, "a,b,label\n# note\n1,2,0\n3,4\n5,6,1\n")


def _header_only_csv(tmp_path):
    return _csv_config(tmp_path, "a,b,label\n")


def _unknown_key(tmp_path):
    return classcount_config(extra_knob=3)


def _missing_data(tmp_path):
    doc = base_config()
    doc["data"] = {"kind": "csv", "path": str(tmp_path / "absent.csv")}
    return doc


def _narrow_header_csv(tmp_path):
    return _csv_config(tmp_path, "a,b\n1,2,0\n3,4,1\n")


def _idx_config(tmp_path, cut_images=0, cut_labels=0, n_classes=6):
    """A sound IDX pair of ``n_classes`` for ``base_config``, each file cut ``cut_*`` bytes short."""
    images, labels = tmp_path / "im.idx", tmp_path / "lb.idx"
    truth = np.repeat(np.arange(n_classes), 10)
    pixels = np.random.default_rng(0).integers(0, 256, size=(len(truth), 2, 4)).astype(np.uint8)
    write_idx_pair(pixels, truth, str(images), str(labels))
    for path, cut in ((images, cut_images), (labels, cut_labels)):
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - cut)
    doc = base_config()
    doc["data"] = {"kind": "idx", "images": str(images), "labels": str(labels)}
    return doc


def _truncated_images(tmp_path):
    return _idx_config(tmp_path, cut_images=5)


def _truncated_labels(tmp_path):
    return _idx_config(tmp_path, cut_labels=3)


def _zero_width_images(tmp_path):
    """``_idx_config``'s pair rewritten with a 0x28 images header and no pixels."""
    doc = _idx_config(tmp_path)
    images, labels = doc["data"]["images"], doc["data"]["labels"]
    write_idx_pair(np.zeros((60, 0, 28), np.uint8), np.repeat(np.arange(6), 10), images, labels)
    return doc


def _number_literal(section, key, literal):
    """``base_config`` with ``section.key`` written as the raw JSON text ``literal``."""

    def make_doc(tmp_path):
        doc = base_config()
        doc[section][key] = "<literal>"
        return json.dumps(doc).replace('"<literal>"', literal)

    return make_doc


def _huge_data_key(key, value=10**30):
    """``base_config`` with ``data.key`` set to ``value``, by default beyond int64."""

    def make_doc(tmp_path):
        doc = base_config()
        doc["data"][key] = value
        return doc

    return make_doc


def _without(section, key=None):
    """``base_config`` with ``section`` (or ``section.key``) left out."""

    def make_doc(tmp_path):
        doc = base_config()
        if key is None:
            del doc[section]
        else:
            del doc[section][key]
        return doc

    return make_doc


def _scalar_section(tmp_path):
    return base_config(kmeans=3)


def _report_without_config(tmp_path):
    return {"schema": cli.REPORT_SCHEMA, "config": 3}


def _fractional_label_csv(tmp_path):
    return _csv_config(tmp_path, "a,b,label\n1,2,0\n3,4,1.5\n")


def _negative_label_csv(tmp_path):
    return _csv_config(tmp_path, "a,b,label\n1,2,0\n3,4,-1\n")


def _non_utf8_csv(row):
    """A CSV whose line 3 is ``row``, followed by a comment holding a byte that is not UTF-8."""

    def make_doc(tmp_path):
        doc = _csv_config(tmp_path, "")
        text = b"f0,f1,label\n0.5,1.5,0\n" + row + b"\n# \xff\n3.0,4.0,1\n"
        (tmp_path / "data.csv").write_bytes(text)
        return doc

    return make_doc


def _nul_in_path(tmp_path):
    doc = base_config()
    doc["data"] = {"kind": "csv", "path": str(tmp_path / "da\0ta.csv")}
    return doc


def _repeated_key(tmp_path):
    """``kmeans.k`` written twice: keeping the last value would run k=4."""
    return json.dumps(base_config()).replace('"k": 6', '"k": 15, "k": 4')


def _repeated_top_level_key(tmp_path):
    return json.dumps(base_config())[:-1] + ', "seed": 7}'


def _repeated_key_in_report(tmp_path):
    report = {"schema": cli.REPORT_SCHEMA, "config": base_config()}
    return json.dumps(report).replace('"k": 6', '"k": 15, "k": 4')


def _classcount_doc(tmp_path):
    return classcount_config()


def _missing_idx_pair(tmp_path):
    doc = base_config()
    images, labels = str(tmp_path / "absent-im.idx"), str(tmp_path / "absent-lb.idx")
    doc["data"] = {"kind": "idx", "images": images, "labels": labels}
    return doc


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, make_doc, code, message",
        [
            (command, _unknown_key, 1, "extra_knob")
            for command in ("validate", "discover", "classcount")
        ]
        + [
            (command, _missing_data, 1, "absent.csv")
            for command in ("validate", "discover", "classcount")
        ]
        + [
            (command, make_doc, 1, message)
            for command in ("validate", "discover", "classcount")
            for make_doc, message in [
                (_float32_overflow_csv, "data.csv: line 2, column 'f0'"),
                (_ragged_csv, "data.csv: line 4 has 2 columns, not 3"),
                (_header_only_csv, "data.csv: no data rows"),
                (_narrow_header_csv, "data.csv: line 1 (the header) has 2 columns, not 3"),
                (_truncated_images, "im.idx: truncated file, needed 480 bytes at byte offset 16"),
                (_truncated_labels, "lb.idx: truncated file, needed 60 bytes at byte offset 8"),
                (_zero_width_images, "im.idx: bad image size 0x28 at byte offset 8"),
                (_number_literal("kmeans", "seed", "9" * 5000), "is not valid JSON"),
                (_huge_data_key("per_class_n"), "invalid 'data': n_classes x per_class_n x dim"),
                (_huge_data_key("dim"), "invalid 'data': n_classes x per_class_n x dim"),
                # 0 in float32: every update of a dead unit would be 0/0
                (_number_literal("adam", "epsilon", "5e-324"), "invalid 'adam': epsilon must be"),
                # 6 x 10**17 rows of 8 floats: beyond what numpy can address
                (_huge_data_key("per_class_n", 10**17), "invalid 'data': n_classes x per_class_n"),
                (_without("data"), "config error: missing required key 'data'"),
                (
                    _without("split", "held_out_classes"),
                    "config error: missing required key 'split.held_out_classes'",
                ),
                (_scalar_section, "config error: 'kmeans' must be an object, got 3"),
                (_report_without_config, "exp.json carries no embedded config"),
                (_repeated_key, "exp.json is not valid JSON: duplicate key 'k'"),
                (_repeated_top_level_key, "exp.json is not valid JSON: duplicate key 'seed'"),
                (_repeated_key_in_report, "exp.json is not valid JSON: duplicate key 'k'"),
                (_fractional_label_csv, "data.csv: last column must contain integer labels"),
                (_negative_label_csv, "data.csv: labels must be non-negative"),
                (
                    _non_utf8_csv(b"1.0,2\xff,1"),
                    "data.csv: line 3, column 'f1': not a finite float32",
                ),
                (
                    _non_utf8_csv(b"1.0,2.0,\xff"),
                    "data.csv: last column must contain integer labels; line 3 has nan",
                ),
            ]
            + [
                (
                    _number_literal(section, key, literal),
                    f"config error: '{section}.{key}' must be a finite number, got {shown}",
                )
                for section, key, literal, shown in [
                    ("adam", "learning_rate", "NaN", "NaN"),
                    ("adam", "epsilon", "Infinity", "Infinity"),
                    ("data", "separation", "1e400", "Infinity"),
                    ("kmeans", "tol", "NaN", "NaN"),
                    ("kmeans", "tol", "-Infinity", "-Infinity"),
                    ("adam", "learning_rate", "9" * 401, "999"),
                ]
            ]
        ]
        + [
            (command, _nul_in_path, 1, "config error: 'data.path' must be a non-empty string")
            for command in ("validate", "discover", "classcount")
        ]
        + [
            (f"classcount --counts {counts}", _classcount_doc, 1, f"config error: {message}")
            for counts, message in [
                ("2,99", "class count 99 exceeds the 5 available classes"),
                ("1", "class count 1 must be >= 2"),
            ]
        ]
        + [(command, _poisoned_csv, 2, "runtime failure") for command in ("discover", "classcount")]
        + [("discover", _overflowing_detector, 2, "runtime failure: non-finite prediction for row")],
    )
    def test_every_subcommand_maps_failures_alike(
        self, tmp_path, capsys, command, make_doc, code, message
    ):
        path = write_config(tmp_path, make_doc(tmp_path))
        assert main(_argv(command, path, str(tmp_path / "out"))) == code
        assert message in capsys.readouterr().err
        if code == 1:  # a config error is found before the output directory is made
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "label, message",
        [
            ("1e20", "labels must be non-negative integers below 2**63; line 3 has 1e+20"),
            ("inf", "last column must contain integer labels; line 3 has inf"),
            ("nan", "last column must contain integer labels; line 3 has nan"),
        ],
    )
    def test_a_label_beyond_int64_names_its_line_without_a_warning(
        self, tmp_path, capsys, label, message
    ):
        path = write_config(tmp_path, _csv_config(tmp_path, f"a,b,label\n1,2,0\n3,4,{label}\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--config", path]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert f"data.csv: {message}" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["discover", "classcount"])
    def test_data_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys, command):
        # 10 x 10**16 rows of 8 floats pass the config's bound, but their
        # labels alone take 711 PiB, beyond any address space, so numpy
        # refuses them outright
        doc = classcount_config()
        doc["data"]["per_class_n"] = 10**16
        path = write_config(tmp_path, doc)
        assert main(_argv(command, path, str(tmp_path / "out"))) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot load data: Unable to allocate")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["validate", "discover", "classcount"])
    def test_missing_idx_pair_names_the_first_file(self, tmp_path, capsys, command):
        # the labels file is missing too, and the config has cross-field
        # problems (rounds beyond the held-out classes); neither is reported
        doc = _missing_idx_pair(tmp_path)
        doc["rounds"] = 7
        path = write_config(tmp_path, doc)
        assert main(_argv(command, path, str(tmp_path / "out"))) == 1
        expected = f"config error: data file missing: {tmp_path / 'absent-im.idx'}"
        assert capsys.readouterr().err.splitlines() == [expected]

    @pytest.mark.parametrize("command", ["discover", "classcount"])
    def test_divergence_is_one_stderr_line(self, tmp_path, command):
        # a fresh interpreter under the default warning filters, where a
        # numpy RuntimeWarning would print its message and source line
        path = write_config(tmp_path, _poisoned_csv(tmp_path))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "classdisco.cli", *_argv(command, path, str(tmp_path / "o"))]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("runtime failure: non-finite loss")

    def test_a_nan_feature_names_the_first_batch_holding_its_row(self, tmp_path):
        """A NaN in one labeled row (no source can load one, so the run's loader is
        wrapped): ``discover`` prints exactly one stderr line, which names epoch 0 and
        the first batch of the shuffled training rows that holds the row."""
        doc = base_config()
        doc["adam"]["batch_size"] = 16
        path = write_config(tmp_path, doc)
        cfg = parse_config(doc)
        rows = dataset.make_split(dataset.load_data(cfg.data), cfg.split).labeled_indices()
        bad = int(rows[len(rows) // 2])
        shuffled = rows[seeds.spawn(cfg.adam.seed, 0).permutation(len(rows))]
        start = np.flatnonzero(shuffled == bad)[0] // 16 * 16
        assert start > 0
        code = (
            "import dataclasses, sys\n"
            "from classdisco import cli, engine\n"
            "load = engine.load_data\n"
            "def poisoned(source):\n"
            "    data = load(source)\n"
            "    x = data.features.copy()\n"
            f"    x[{bad}, 0] = float('nan')\n"
            "    return dataclasses.replace(data, features=x)\n"
            "engine.load_data = poisoned\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", code, *_argv("discover", path, str(tmp_path / "o"))]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        want = f"runtime failure: non-finite loss in epoch 0, batch starting at sample {start}\n"
        assert proc.stderr == want

    def test_a_data_file_name_with_a_newline_is_one_line(self, tmp_path, capsys):
        doc = base_config()
        doc["data"] = {"kind": "idx", "images": "/nonexistent/imgs\nsecond", "labels": "/x"}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: data file missing: /nonexistent/imgs\\nsecond\n"

    def test_a_config_file_name_with_a_newline_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "exp\r\n.json"
        assert main(["validate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"config error: cannot read config file {tmp_path}/exp\\r\\n.json: "
            f"[Errno 2] No such file or directory: {str(config)!r}\n"
        )

    @pytest.mark.parametrize("command", ["discover", "classcount"])
    def test_uncreatable_out_fails_before_training(self, tmp_path, capsys, monkeypatch, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(tmp_path, classcount_config())
        no_training(monkeypatch)
        assert main(_argv(command, path, str(blocker / "out"))) == 1
        err = capsys.readouterr().err
        assert "config error: cannot create output directory" in err
        assert str(blocker / "out") in err


# six classes of four rows, a comment and a blank line: ``base_config``'s
# split and k validate on it
_FUZZ_CSV = b"f0,f1,label\n# tiny\n" + b"".join(
    b"%d.5,0.%d,%d\n" % (i, c, c) + (b"\n" if i == c == 2 else b"")
    for c in range(6)
    for i in range(4)
)
_FUZZ_BYTES = [b"\xff", b"\x00", b",", b"#", b"\n", b"\r", b" ", b"7"]
# huge, around float32's limit, below its subnormals, a signed zero, and 60 digits
_FUZZ_VALUES = [
    "1e19", "1e20", "-1.5e20", "3.4e38", "-3.4e38", "3.5e38", "1e-45", "-1e-45", "1e-320",
    "-0", "1" * 60, "-" + "9" * 60, "0." + "0" * 58 + "1",
]  # fmt: skip
_VALUE_KINDS = ("cell", "column", "scale")
# six classes of 12 rows in 4 columns, so k-means' clusters of the pool can be scored
_FUZZ_RUN_CSV = b"f0,f1,f2,f3,label\n" + b"".join(
    b",".join(b"%g" % (3 * (c * (j + 1) % 6) + (i * 7 + j * 3) % 10 / 10) for j in range(4))
    + b",%d\n" % c
    for c in range(6)
    for i in range(12)
)


def _revalue(text: bytes, kind: str, at: int, value: str) -> bytes:
    """``text``, a CSV, with one data cell (the ``at``-th, row by row), every cell of
    one column (the ``at``-th), or every feature scaled by ``value``."""
    lines = text.decode().split("\n")
    data = [n for n, line in enumerate(lines[1:], 1) if line.split("#", 1)[0].strip()]
    rows = [lines[n].split(",") for n in data]
    width = len(rows[0])
    if kind == "cell":
        row, column = divmod(at % (len(rows) * width), width)
        rows[row][column] = value
    for cells in rows:
        if kind == "column":
            cells[at % width] = value
        if kind == "scale":
            cells[:-1] = [repr(float(cell) * float(value)) for cell in cells[:-1]]
    for n, cells in zip(data, rows):
        lines[n] = ",".join(cells)
    return "\n".join(lines).encode()


@st.composite
def _mutated_csv(draw, base=_FUZZ_CSV, kinds=("truncate", "insert", "drop", "duplicate")):
    """``base`` cut at a byte, with a byte inserted, with a line dropped or doubled, or
    with a value of ``_FUZZ_VALUES`` put in by ``_revalue``."""
    kind = draw(st.sampled_from(kinds + _VALUE_KINDS))
    if kind in _VALUE_KINDS:
        at, value = draw(st.integers(0, 10**4)), draw(st.sampled_from(_FUZZ_VALUES))
        return _revalue(base, kind, at, value)
    if kind in ("drop", "duplicate"):
        lines = base.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        lines[at : at + 1] = [] if kind == "drop" else [lines[at]] * 2
        return b"".join(lines)
    at = draw(st.integers(0, len(base)))
    if kind == "truncate":
        return base[:at]
    return base[:at] + draw(st.sampled_from(_FUZZ_BYTES)) + base[at:]


class TestCsvFuzz:
    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        return write_config(tmp, _csv_config(tmp, ""))

    def test_the_unmutated_file_validates(self, config):
        Path(config).with_name("data.csv").write_bytes(_FUZZ_CSV)
        assert main(["validate", "--config", config]) == 0

    @settings(max_examples=300, deadline=None)
    @given(text=_mutated_csv())
    def test_validate_exits_one_naming_the_file_or_zero(self, config, text):
        Path(config).with_name("data.csv").write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", "--config", config])
        assert code in (0, 1)
        lines = err.getvalue().splitlines()
        assert bool(lines) == (code == 1)
        assert all(line.startswith("config error: ") for line in lines)
        if "cannot load data" in err.getvalue():
            assert "data.csv: " in err.getvalue()

    @pytest.fixture(scope="class")
    def run_config(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("run-fuzz")
        doc = _tiny(config_to_dict(parse_config(_csv_config(tmp, ""))))
        doc.update(epochs_initial=1, epochs_per_round=1, rounds=1)
        return write_config(tmp, doc)

    def test_the_unmutated_file_runs(self, run_config):
        Path(run_config).with_name("data.csv").write_bytes(_FUZZ_RUN_CSV)
        assert _run_fuzzed(run_config) == (0, [])

    # at most about 0.3 s a run: 72 rows, a width-8 network and a width-4 scorer
    @settings(max_examples=60, deadline=None)
    @given(text=_mutated_csv(_FUZZ_RUN_CSV, kinds=()))
    @example(text=_revalue(_FUZZ_RUN_CSV, "cell", 180, "3.4e38"))  # a pool row overflows embed
    def test_discover_exits_zero_names_the_cell_or_fails_non_finite(self, run_config, text):
        """Exit 0; 1 naming a key, or the file and line (and column, for a feature);
        or 2 from one non-finite value, which no bound on the features rules out:
        any ``adam.learning_rate`` is accepted, so training can scale the embeddings."""
        Path(run_config).with_name("data.csv").write_bytes(text)
        code, lines = _run_fuzzed(run_config)
        assert code in (0, 1, 2) and bool(lines) == (code != 0), lines
        if code == 1:
            assert all(line.startswith("config error: ") for line in lines), lines
            assert all(_PLACE.search(line) for line in lines), lines
        if any("not a finite float32" in line for line in lines):
            assert re.search(r"data\.csv: line \d+, column 'f\d'", lines[0]), lines
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("runtime failure: non-finite "), lines


def _run_fuzzed(config):
    """A one-round dynamic ``discover`` of ``config``: its exit code and stderr lines."""
    out, err = Path(config).with_name("out"), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["discover", "--mode", "dynamic", "--config", config, "--out", str(out)])
    return code, err.getvalue().splitlines()


def _validate(config):
    """``validate``'s exit code and the messages it printed, one line each; an
    exception escaping ``main`` fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", "--config", config])
    lines = err.getvalue().splitlines()
    assert code in (0, 1)
    assert all(line.startswith("config error: ") for line in lines), lines
    assert bool(lines) == (code == 1)
    return code, [line.removeprefix("config error: ") for line in lines]


# a key path in quotes ('kmeans.k', '<root>'), a dotted key (split.held_out_classes)
# or a key before its value (rounds (7)), a line, or a byte offset
_PLACE = re.compile(
    r"'[\w<][\w.<>\[\]]*'|\b[a-z_]+\.[a-z_]+\b|\b[a-z_]+ \(\d|\bline \d|byte offset \d"
)
_ODD_VALUES = [
    None, True, 0, -1, 2**63, -(2**64), 10**30, 0.5, -0.0, 1e308, 5e-324,
    float("nan"), float("inf"), float("-inf"), "", "x", [], [[]], {}, {"kind": "csv"},
]  # fmt: skip


def _one_line(text):
    """``text`` as ``main`` prints it in a message: ``\\r`` and ``\\n`` escaped."""
    return text.replace("\r", "\\r").replace("\n", "\\n")


def _locations(doc, at=()):
    """The path of every section, key and list item in ``doc``."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    return [loc for key, value in items for loc in [at + (key,), *_locations(value, at + (key,))]]


@st.composite
def _mutated_config(draw, bases, odd_paths):
    """One of ``bases`` with one key dropped, retyped, nested one level deeper,
    or given an unknown sibling, or with a data file path made odd."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    path = draw(st.sampled_from(_locations(doc)))
    parent, key = doc, path[-1]
    for step in path[:-1]:
        parent = parent[step]
    files = [k for k in ("path", "images", "labels") if k in doc["data"]]
    kind = draw(st.sampled_from(["drop", "retype", "nest", "unknown", "path" if files else "drop"]))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(_ODD_VALUES))
    elif kind == "nest":
        parent[key] = draw(st.sampled_from([[parent[key]], {"x": parent[key]}]))
    elif kind == "unknown":
        (parent if isinstance(parent, dict) else doc)["zzz"] = 1
    else:
        doc["data"][draw(st.sampled_from(files))] = draw(st.sampled_from(odd_paths))
    return doc


class TestConfigFuzz:
    """Runs on tiny sound configs of every data source, each mutated once. Each
    source has 7 classes, so ``classcount --counts 2`` has 2 besides the 5 it holds out."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("config-fuzz")
        full = config_to_dict(parse_config(base_config()))  # every default as a key
        full["data"]["n_classes"] = 7
        csv = _FUZZ_CSV.decode() + "".join(f"{i}.5,0.6,6\n" for i in range(4))
        data = [_csv_config(tmp, csv)["data"], _idx_config(tmp, n_classes=7)["data"]]
        odd_paths = [
            "", "/", str(tmp), str(tmp / "absent.csv"), str(tmp / "im.idx"), str(tmp / "exp.json"),
            "da\0ta.csv", "x" * 5000, str(tmp / "data.csv") + "\n", "~",
        ]  # fmt: skip
        return tmp / "exp.json", [full] + [{**full, "data": d} for d in data], odd_paths

    def test_every_base_validates(self, sources):
        config, bases, _ = sources
        for doc in bases:
            config.write_text(json.dumps(doc))
            assert _validate(str(config)) == (0, [])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_validate_exits_one_naming_a_key_file_line_or_offset(self, sources, data):
        config, bases, odd_paths = sources
        doc = data.draw(_mutated_config(bases, odd_paths))
        config.write_text(json.dumps(doc))
        _, messages = _validate(str(config))
        source = doc.get("data") if isinstance(doc.get("data"), dict) else {}
        files = [str(config), *(v for v in source.values() if isinstance(v, str) and v)]
        files = [_one_line(f) for f in files]
        for message in messages:
            assert any(f in message for f in files) or _PLACE.search(message), message

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_run_on_a_tiny_valid_config_exits_cleanly(self, sources, data):
        """When ``validate`` says ok and the config is within ``_within_budget``, a
        one-epoch, one-round dynamic ``discover`` (oracle or detector) or a
        ``classcount --counts 2`` exits 0, 1 from a config error naming a key, or 2
        only from divergence."""
        config, bases, odd_paths = sources
        run = data.draw(st.sampled_from(["oracle", "detector", "classcount"]))
        mode = {"ood_mode": "detector"} if run == "detector" else {}
        doc = data.draw(_mutated_config([{**_tiny(base), **mode} for base in bases], odd_paths))
        config.write_text(json.dumps(doc))
        if _validate(str(config))[0] != 0:
            return
        doc.update(epochs_initial=1, epochs_per_round=1, rounds=1)
        if not _within_budget(parse_config(doc)):
            return
        config.write_text(json.dumps(doc))
        command = ["discover", "--mode", "dynamic"]
        command = ["classcount", "--counts", "2"] if run == "classcount" else command
        out, err = config.with_name("out"), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--config", str(config), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:  # a config error found by the run's own checks
            assert lines and all(line.startswith("config error: ") for line in lines), lines
            assert all(_PLACE.search(line) for line in lines), lines
        if code == 2:  # divergence: a non-finite loss, weight, prediction or k-means distance
            assert err.getvalue().startswith("runtime failure: non-finite "), err.getvalue()


def _tiny(doc):
    """``doc`` shrunk to the run budget: 28 rows a synthetic class, k=4."""
    doc = copy.deepcopy(doc)
    if doc["data"]["kind"] == "synthetic":
        doc["data"]["per_class_n"] = 28
    doc["net"]["hidden_dims"] = [8]
    doc["learnability"]["hidden_dims"] = [4]
    doc["kmeans"].update(k=4, restarts=2)
    return doc


def _within_budget(cfg):
    """Small enough to run ``discover`` on: at most 200 rows, width and hidden
    widths of at most 16, k <= 5, 2 restarts, and default iteration counts."""
    width, counts = cfg.data.shape()
    hidden = max(cfg.net.hidden_dims + cfg.learnability.hidden_dims)
    return (
        sum(counts.values()) <= 200
        and max(width, hidden) <= 16
        and cfg.kmeans.k <= 5
        and cfg.kmeans.restarts <= 2
        and cfg.kmeans.max_iters <= KMeansConfig.max_iters
        and cfg.learnability.epochs <= LearnabilityConfig.epochs
    )


@st.composite
def _mutated_idx(draw, images, labels):
    """The pair swapped, or one file cut at a byte or with one header byte flipped."""
    kind = draw(st.sampled_from(["swap", "truncate", "flip"]))
    if kind == "swap":
        return labels, images
    pair = [images, labels]
    which = draw(st.integers(0, 1))
    data = pair[which]
    if kind == "truncate":
        pair[which] = data[: draw(st.integers(0, len(data) - 1))]
    else:  # the images header is 16 bytes, the labels header 8
        at = draw(st.integers(0, 15 - 8 * which))
        pair[which] = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    return tuple(pair)


class TestIdxFuzz:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("idx-fuzz")
        doc = _idx_config(tmp)
        files = [Path(doc["data"][key]) for key in ("images", "labels")]
        return write_config(tmp, doc), files, [f.read_bytes() for f in files]

    def test_the_unmutated_pair_validates(self, pair):
        config, _, _ = pair
        assert _validate(config) == (0, [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_format_fault_names_its_file_and_byte_offset(self, pair, data):
        config, files, sound = pair
        for path, content in zip(files, data.draw(_mutated_idx(*sound))):
            path.write_bytes(content)
        _, messages = _validate(config)
        for message in messages:
            assert "im.idx" in message or "lb.idx" in message, message
            assert re.search(r"byte offset \d", message), message


def _detector_round():
    """``configs/synthetic.json`` routed by the detector for one round, which it
    reaches: on ``base_config`` the detector leaves too little pool for round 1."""
    doc = json.loads(SYNTHETIC_CONFIG.read_text())
    doc.update(ood_mode="detector", epochs_initial=10, epochs_per_round=2, rounds=1)
    return doc


class TestImportsOnlyWhatARunUses:
    @pytest.mark.parametrize(
        "command, doc",
        [
            (["discover", "--mode", "dynamic"], base_config()),
            (["discover", "--mode", "dynamic"], _detector_round()),
            (["classcount", "--counts", "2,3"], classcount_config()),
        ],
        ids=["dynamic", "detector", "classcount"],
    )
    def test_a_run_never_imports_numpy_ma(self, tmp_path, command, doc):
        # a plain np.unique reaches np.ma.is_masked, which imports numpy.ma
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys; from classdisco.cli import main; "
            "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
        )
        argv = [*command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr

    def test_the_config_loads_without_the_engine_or_the_cli(self):
        # the package's __init__ exports the engine's run_dynamic, so the package
        # is registered bare: what loads is the config module's own imports
        package = os.path.dirname(cli.__file__)
        script = (
            "import sys, types; package = types.ModuleType('classdisco'); "
            f"package.__path__ = [{package!r}]; sys.modules['classdisco'] = package; "
            "import classdisco.config; print(*sorted(m for m in sys.modules if 'classdisco' in m))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        loaded = proc.stdout.split()
        assert "classdisco.config" in loaded, proc.stderr
        assert not {"classdisco.engine", "classdisco.cli"} & set(loaded), loaded


class TestCsvCells:
    def test_a_cell_is_written_as_str_writes_it(self):
        row = (1, np.int64(3), 0.1, np.float64(0.5), np.float32(0.25), float("nan"), -0.0)
        text = cli._csv("abcdefg", [row])
        assert text == "a,b,c,d,e,f,g\n1,3,0.1,0.5,0.25,nan,-0.0\n"


class TestReportFormat:
    def test_discover_report_keys_are_pinned(self, tmp_path):
        def run(doc, mode):
            out = tmp_path / mode
            path = write_config(tmp_path, doc, f"{mode}.json")
            assert main(["discover", "--config", path, "--mode", mode, "--out", str(out)]) == 0
            return json.loads((out / "report.json").read_text())

        report = run(base_config(), "dynamic")
        assert list(report) == [
            "schema",
            "mode",
            "config",
            "seed_registry",
            "dra_accounting",
            "rounds",
            "accepted",
            "detector",
            "final_dra",
            "stopped_early",
            "wall_clock_seconds",
        ]
        for rec in report["rounds"]:
            assert list(rec) == [
                "round",
                "dra",
                "mean_cluster_accuracy",
                "ood_pool_size",
                "train_loss",
                "report",
                "scored_clusters",
                "accepted_cluster",
            ]
            assert list(rec["report"]) == [
                "ell",
                "o",
                "n_total",
                "weighted_ood_accuracy",
                "dra",
                "routed_total",
                "routed_correct",
            ]
        scored = [f for rec in report["rounds"] for f in rec["scored_clusters"]]
        assert scored and report["accepted"]
        for f in scored:
            assert list(f) == ["cluster_id", "size", "learnability", "density", "flagged_small"]
        for a in report["accepted"]:
            assert list(a) == ["round", "new_label", "plurality_label", "size", "learnability"]
        detector = run(base_config(ood_mode="detector", detector_quantile=0.9), "static")["detector"]
        assert list(detector) == ["threshold", "quantile", "calibration_size"]

    def test_classcount_report_keys_are_pinned(self, tmp_path):
        out = tmp_path / "cc"
        path = write_config(tmp_path, classcount_config())
        assert main(["classcount", "--config", path, "--counts", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == [
            "schema",
            "mode",
            "config",
            "seed_registry",
            "counts",
            "rows",
            "wall_clock_seconds",
        ]
        assert [list(row) for row in report["rows"]] == [["class_count", "mean_cluster_accuracy"]]


class _DiskFull:
    """A file that keeps half of the first write, then fails as a full disk does."""

    def __init__(self, path, mode="r"):
        self._file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def write(self, text):
        self._file.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicOutputs:
    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, base_config())
        argv = ["discover", "--config", path, "--mode", "static", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        report = tmp_path / "run" / "report.json"
        before = report.read_bytes()
        monkeypatch.setattr(cli, "open", _DiskFull, raising=False)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"runtime failure: cannot write {report}" in err
        assert "No space left" in err
        assert not list((tmp_path / "run").glob("*.tmp"))
        assert report.read_bytes() == before
