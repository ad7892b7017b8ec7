"""Run the same seed-0 invocations on two source trees and compare their outputs.

    python3 scripts/cmp_outputs.py PARENT_TREE [TREE]

``TREE`` defaults to the tree holding this script. ``PARENT_TREE`` is a
directory, or else a git revision of ``TREE``'s repository (``HEAD``,
``main~1``), which ``git archive`` exports into the temporary directory the
runs use. Note that ``HEAD`` is the last commit: uncommitted edits count only
on the ``TREE`` side. Each invocation runs
``python -m classdisco.cli`` with the tree's ``src`` first on ``PYTHONPATH``,
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONHASHSEED=0``, one at a time. Every
``curves.csv``, ``clusters.csv`` and ``classcount.csv`` must be byte-equal,
``report.json`` equal once ``wall_clock_seconds`` is dropped, and stdout
equal once the output directory is replaced by ``<out>``. Each output that
differs is printed, and the exit status is 1 if any output differs.

The 18 invocations are the seed-0 configs of the benchmark's three workloads
(read from ``TREE/bench/workloads.py``), and ``configs/synthetic.json`` at 10
initial and 2 per-round epochs: run static; dynamic; dynamic with the
detector; under the threshold, random and density policies; with a
``split.per_class_cap`` of 150; under the other three ``learnability``
settings of ``use_embeddings`` and ``include_existing``; dynamic at 0
initial and 0 per-round epochs, an untrained model whose embeddings are its
random first layer and whose ``train_loss`` is NaN; and dynamic with the
detector on a two-layer net (``hidden_dims`` ``[32, 16]``), so the embedding
passes through a hidden layer, scored by a two-layer scorer (``[16, 8]``) on
embeddings with the labeled rows' embeddings as distractors. Then the
``mnist784-dynamic`` config under the threshold policy, which stops at round
1 with no cluster above the threshold, so the early stop is compared too,
and with it the scores of the round the run stopped on in ``clusters.csv``.
The last two run dynamic on a CSV file and on an IDX pair, 6 classes of 60
rows each, which ``write_inputs`` draws from ``random.Random(0)`` into the
temporary directory, so the loaders' hand-over is compared too. Only the
standard library and the ``git`` binary are used.
"""

from __future__ import annotations

import copy
import importlib.util
import io
import json
import os
import random
import struct
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

OUTPUTS = ("curves.csv", "clusters.csv", "classcount.csv", "report.json")
BENCH_WORKLOADS = ("synth-dynamic", "mnist784-dynamic", "mnist784-classcount")


def _discover(mode: str):
    return lambda config, out: ["discover", "--mode", mode, "--config", config, "--out", out]


def write_inputs(dest: Path) -> dict[str, dict]:
    """Write a CSV file and an IDX pair into ``dest``; return the ``data`` config of each.

    Each has 6 classes of 60 rows, row ``i`` in class ``i % 6``: 8 Gaussian
    features around its class's center per CSV row, and per image 8x8
    pixels, each its class's prototype byte plus Gaussian noise.
    """
    rng = random.Random(0)
    n_classes, n_rows, side = 6, 360, 8
    centers = [[rng.gauss(0, 3) for _ in range(side)] for _ in range(n_classes)]
    lines = [",".join([*(f"f{i}" for i in range(side)), "label"])]
    for row in range(n_rows):
        c = row % n_classes
        lines.append(",".join([*(repr(m + rng.gauss(0, 1)) for m in centers[c]), str(c)]))
    csv = dest / "data.csv"
    csv.write_text("\n".join(lines) + "\n")

    protos = [[rng.randrange(256) for _ in range(side * side)] for _ in range(n_classes)]
    pixels = bytearray()
    for row in range(n_rows):
        proto = protos[row % n_classes]
        pixels += bytes(min(255, max(0, round(p + rng.gauss(0, 40)))) for p in proto)
    images, labels = dest / "images.idx", dest / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 2051, n_rows, side, side) + pixels)
    classes = bytes(row % n_classes for row in range(n_rows))
    labels.write_bytes(struct.pack(">II", 2049, n_rows) + classes)
    return {
        "csv": {"kind": "csv", "path": str(csv)},
        "idx": {"kind": "idx", "images": str(images), "labels": str(labels)},
    }


def invocations(tree: Path, data_dir: Path) -> list[tuple[str, dict, object]]:
    """``(name, config, argv(config_path, out_dir))`` of each invocation; the
    CSV and IDX inputs are written into ``data_dir``."""
    spec = importlib.util.spec_from_file_location("cmp_workloads", tree / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    spec.loader.exec_module(workloads)
    runs = []
    for name in BENCH_WORKLOADS:
        first = workloads.WORKLOADS[name].invocations(0)[0]
        runs.append((name, first.config, first.argv))

    base = json.loads((tree / "configs" / "synthetic.json").read_text())
    base.update(epochs_initial=10, epochs_per_round=2)
    variants = [("static", {}), ("dynamic", {}), ("detector", {"ood_mode": "detector"})]
    variants += [(kind, {"policy": {"kind": kind}}) for kind in ("threshold", "random", "density")]
    variants.append(("capped", {"split": {**base["split"], "per_class_cap": 150}}))
    for emb, ext in ((False, True), (True, False), (True, True)):
        learn = {"use_embeddings": emb, "include_existing": ext}
        variants.append((f"embeddings-{emb}-existing-{ext}", {"learnability": learn}))
    variants.append(("untrained", {"epochs_initial": 0, "epochs_per_round": 0}))
    scorer = {"hidden_dims": [16, 8], "use_embeddings": True, "include_existing": True}
    deep = {"net": {"hidden_dims": [32, 16]}, "learnability": scorer, "ood_mode": "detector"}
    variants.append(("deep-detector", deep))
    for name, update in variants:
        config = copy.deepcopy(base)
        config.update(update)
        mode = "static" if name == "static" else "dynamic"
        runs.append((f"synthetic-{name}", config, _discover(mode)))

    _, mnist, mnist_argv = runs[BENCH_WORKLOADS.index("mnist784-dynamic")]
    threshold = copy.deepcopy(mnist)
    threshold["policy"]["kind"] = "threshold"
    runs.append(("mnist784-threshold", threshold, mnist_argv))

    for kind, data in write_inputs(data_dir).items():
        config = copy.deepcopy(base)
        config.update(data=data, epochs_initial=5, epochs_per_round=2, net={"hidden_dims": [16]})
        config["split"]["held_out_classes"] = [4, 5]
        config["kmeans"].update(k=6, restarts=3)
        runs.append((kind, config, _discover("dynamic")))
    return runs


def export(revision: str, repo: Path, dest: Path) -> Path:
    """Write the files of git ``revision`` of the repository at ``repo`` into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=zip", revision],
        capture_output=True,
        check=True,
    ).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as files:
        files.extractall(dest)
    return dest


def _run(tree: Path, config: dict, argv, work: Path) -> tuple[Path, subprocess.CompletedProcess]:
    work.mkdir(parents=True)
    config_path, out = work / "config.json", work / "out"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "classdisco.cli", *argv(str(config_path), str(out))],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    return out, proc


def _stdout(proc: subprocess.CompletedProcess, out: Path) -> str:
    """What ``proc`` printed, its output directory ``out`` replaced by ``<out>``."""
    return proc.stdout.replace(str(out), "<out>")


def _content(path: Path):
    """The bytes compared for ``path``; None if it was not written."""
    if not path.exists():
        return None
    if path.name != "report.json":
        return path.read_bytes()
    report = json.loads(path.read_text())
    report.pop("wall_clock_seconds", None)
    return json.dumps(report, indent=2)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: python3 scripts/cmp_outputs.py PARENT_TREE [TREE]", file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    tree = Path(args[1]).resolve() if len(args) == 2 else Path(__file__).resolve().parents[1]
    differ = compared = 0
    with tempfile.TemporaryDirectory(prefix="cmp-outputs-") as tmp:
        if not parent.is_dir():
            try:
                parent = export(args[0], tree, Path(tmp) / "parent-tree")
            except subprocess.CalledProcessError as exc:
                print(f"cannot export {args[0]!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
                return 2
        for name, config, command in invocations(tree, Path(tmp)):
            old_out, old = _run(parent, config, command, Path(tmp) / name / "parent")
            new_out, new = _run(tree, config, command, Path(tmp) / name / "tree")
            for side, proc in (("parent", old), ("tree", new)):
                if proc.returncode != 0:
                    print(f"{name}: {side} exited {proc.returncode}: {proc.stderr.strip()}")
            if old.returncode != new.returncode:
                differ += 1
                print(f"DIFF {name}: exit {old.returncode} vs {new.returncode}")
            outputs = {file: (_content(old_out / file), _content(new_out / file)) for file in OUTPUTS}
            outputs["stdout"] = (_stdout(old, old_out), _stdout(new, new_out))
            for file, (before, after) in outputs.items():
                if before is None and after is None:
                    continue
                compared += 1
                if before != after:
                    differ += 1
                    print(f"DIFF {name}/{file}")
            print(f"done {name}", flush=True)
    print(f"{differ} of {compared} outputs differ (files and stdout)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
