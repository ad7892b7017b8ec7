import errno
import json
import os
import re
import struct
import subprocess
import sys
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classdisco import cli, dataset, engine
from classdisco.cli import main
from classdisco.config import ConfigError, config_to_dict, parse_config
from classdisco.dataset import DataSource
from classdisco.engine import OOD_MODES
from classdisco.selection import POLICY_KINDS
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
            ([3, 4, 9], "held-out classes not present in data: [9]"),
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
    "idx": _section({"kind": st.just("idx"), "images": st.text(), "labels": st.text()}),
    "csv": _section({"kind": st.just("csv"), "path": st.text()}),
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
    if command == "validate":
        return ["validate", "--config", path]
    if command == "discover":
        return ["discover", "--config", path, "--mode", "static", "--out", out]
    return ["classcount", "--config", path, "--counts", "2", "--out", out]


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


def _idx_config(tmp_path, cut_images=0, cut_labels=0):
    """A sound IDX pair for ``base_config``, each file cut ``cut_*`` bytes short."""
    images, labels = tmp_path / "im.idx", tmp_path / "lb.idx"
    truth = np.repeat(np.arange(6), 10)
    pixels = np.random.default_rng(0).integers(0, 256, size=(60, 2, 4)).astype(np.uint8)
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


def _huge_data_key(key):
    """``base_config`` with ``data.key`` set to 10**30, beyond int64."""

    def make_doc(tmp_path):
        doc = base_config()
        doc["data"][key] = 10**30
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
                (_huge_data_key("per_class_n"), "invalid 'data': n_classes x per_class_n must"),
                (_huge_data_key("dim"), "invalid 'data': dim must be at most"),
                (_without("data"), "config error: missing required key 'data'"),
                (
                    _without("split", "held_out_classes"),
                    "config error: missing required key 'split.held_out_classes'",
                ),
                (_scalar_section, "config error: 'kmeans' must be an object, got 3"),
                (_report_without_config, "exp.json carries no embedded config"),
                (_fractional_label_csv, "data.csv: last column must contain integer labels"),
                (_negative_label_csv, "data.csv: labels must be non-negative"),
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
        + [(command, _poisoned_csv, 2, "runtime failure") for command in ("discover", "classcount")],
    )
    def test_every_subcommand_maps_failures_alike(
        self, tmp_path, capsys, command, make_doc, code, message
    ):
        path = write_config(tmp_path, make_doc(tmp_path))
        assert main(_argv(command, path, str(tmp_path / "out"))) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["discover", "classcount"])
    def test_data_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys, command):
        # 6 x 10**17 rows: exabytes of labels alone, beyond any address
        # space, so numpy refuses them outright
        doc = classcount_config()
        doc["data"]["per_class_n"] = 10**17
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
