"""The benchmark's workloads: each turns a workload seed into CLI invocations.

A workload is a list of invocations of ``classdisco.cli.main`` that the
runner executes one at a time, each in a fresh child process. The program
only ever sees the generated config; the seed enters through ``data.seed``.
No invocation passes ``--workers``, so k-means restarts run on the default
single worker.

Every workload has a smoke-sized variant, named ``<name>-smoke``, with the
same invocation shape on tiny data. The benchmark's tests run those.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

DYNAMIC = "dynamic"
CLASSCOUNT = "classcount"

# Rounds every dynamic invocation must finish: one per held-out class.
HELD_OUT = [5, 6, 7, 8, 9]
CLASSCOUNT_COUNTS = (2, 3, 4, 5)

# configs/synthetic.json, with data.seed supplied by the workload.
_SYNTHETIC = {
    "data": {
        "kind": "synthetic",
        "n_classes": 10,
        "dim": 16,
        "separation": 6.0,
        "per_class_n": 200,
        "seed": 3,
    },
    "split": {"held_out_classes": HELD_OUT, "seed": 0},
    "net": {"hidden_dims": [128]},
    "adam": {
        "learning_rate": 0.001,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-7,
        "batch_size": 128,
        "seed": 0,
    },
    "kmeans": {"k": 15, "restarts": 10, "seed": 0},
    "policy": {"kind": "learnability", "seed": 0},
    "epochs_initial": 30,
    "epochs_per_round": 5,
    "ood_mode": "oracle",
    "seed": 0,
}

# The MNIST-shaped synthetic: 10 classes of 784-d Gaussians, 1000 points each.
_MNIST784 = copy.deepcopy(_SYNTHETIC)
_MNIST784["data"].update(dim=784, per_class_n=1000)
_MNIST784.update(epochs_initial=5, epochs_per_round=1)

# Class count on the same kind of data with 30 initial epochs. A single
# invocation's mean accuracy spreads by about 12% across seeds, so the
# workload averages three data seeds at 300 points per class.
_MNIST784_CLASSCOUNT = copy.deepcopy(_MNIST784)
_MNIST784_CLASSCOUNT["data"].update(per_class_n=300)
_MNIST784_CLASSCOUNT.update(epochs_initial=30)

_SMOKE = {"per_class_n": 100, "k": 5, "restarts": 2, "epochs_initial": 3, "epochs_per_round": 1}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its subcommand kind and the config it is given."""

    kind: str
    config: dict

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        if self.kind == DYNAMIC:
            return ["discover", "--mode", "dynamic", "--config", config_path, "--out", out_dir]
        counts = ",".join(str(c) for c in CLASSCOUNT_COUNTS)
        return ["classcount", "--counts", counts, "--config", config_path, "--out", out_dir]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    base: dict
    data_seeds: int  # invocations, with data.seed = s, s+1, ...
    smoke: bool = False

    def invocations(self, seed: int) -> list[Invocation]:
        out = []
        for offset in range(self.data_seeds):
            cfg = copy.deepcopy(self.base)
            cfg["data"]["seed"] = seed + offset
            if self.smoke:
                cfg["data"]["per_class_n"] = _SMOKE["per_class_n"]
                cfg["kmeans"].update(k=_SMOKE["k"], restarts=_SMOKE["restarts"])
                cfg["epochs_initial"] = min(cfg["epochs_initial"], _SMOKE["epochs_initial"])
                cfg["epochs_per_round"] = _SMOKE["epochs_per_round"]
            out.append(Invocation(self.kind, cfg))
        return out

    def smoke_variant(self) -> "Workload":
        return Workload(f"{self.name}-smoke", self.kind, self.base, min(self.data_seeds, 2), True)


FULL = (
    # Acceptance scale: tiny matrices, so per-call numpy and Python overhead dominates.
    Workload("synth-dynamic", DYNAMIC, _SYNTHETIC, data_seeds=5),
    # Bulk regime: Lloyd on pools of up to 5000 x 128, the scorer on 784-d features.
    Workload("mnist784-dynamic", DYNAMIC, _MNIST784, data_seeds=1),
    # Runs the learnability scorer zero times; main training is its largest
    # share after k-means.
    Workload("mnist784-classcount", CLASSCOUNT, _MNIST784_CLASSCOUNT, data_seeds=3),
)

WORKLOADS = {w.name: w for w in FULL}
WORKLOADS.update({s.name: s for s in (w.smoke_variant() for w in FULL)})
