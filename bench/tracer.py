"""Spans and counts at the public boundaries of classdisco's modules.

The tracer wraps functions from outside the program: it replaces the module
attribute that the caller looks up, so ``engine.fit_with_restarts`` is
wrapped where the engine imported it and ``clustering.lloyd_fit`` where
``fit_with_restarts`` finds it. Every wrap point is listed once, in
``WRAP_POINTS``; a missing attribute stops installation with ``TraceError``,
so a rename cannot silently report zero.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
when the traced invocation ends. Calls are assumed to come from one thread,
which holds because the benchmark never passes ``--workers``.

Private kernels (``_sq_dists``, ``_class_means``, ``_adam_update``) are not
wrapped: their cost shows as the self time of ``clustering.lloyd_fit`` and
of the two ``train_epochs`` spans.
"""

from __future__ import annotations

import functools
import importlib
import time


class TraceError(RuntimeError):
    """A wrap point does not resolve to a callable attribute."""


def _count_lloyd(counts: dict, args, result) -> None:
    points, init = args[0], args[1]
    n, d = points.shape
    k = init.shape[0]
    iters = result.iterations_run
    counts["clustering.lloyd_iterations"] = counts.get("clustering.lloyd_iterations", 0) + iters
    counts["clustering.lloyd_flop"] = counts.get("clustering.lloyd_flop", 0) + iters * 2 * n * k * d


# (module, attribute the caller looks up, span name, count hook or None)
WRAP_POINTS = (
    ("classdisco.cli", "main", "cli.main", None),
    ("classdisco.cli", "load_config", "config.load_config", None),
    ("classdisco.cli", "validate_config", "config.validate_config", None),
    ("classdisco.engine", "run_dynamic", "engine.run_dynamic", None),
    ("classdisco.engine", "run_static", "engine.run_static", None),
    ("classdisco.engine", "run_class_count_experiment", "engine.run_class_count", None),
    ("classdisco.engine", "load_data", "dataset.load_data", None),
    ("classdisco.engine", "make_split", "dataset.make_split", None),
    ("classdisco.engine", "add_class", "dataset.add_class", None),
    ("classdisco.engine", "train_epochs", "learner.train_main", None),
    ("classdisco.engine", "embed", "learner.embed", None),
    ("classdisco.engine", "expand_outputs", "learner.expand_outputs", None),
    ("classdisco.engine", "fit_with_restarts", "clustering.fit_with_restarts", None),
    ("classdisco.clustering", "kmeanspp_init", "clustering.kmeanspp_init", None),
    ("classdisco.clustering", "lloyd_fit", "clustering.lloyd_fit", _count_lloyd),
    ("classdisco.selection", "learnability_scores", "selection.learnability_scores", None),
    ("classdisco.selection", "train_epochs", "selection.scorer_train", None),
    ("classdisco.selection", "density_score", "selection.density_score", None),
    ("classdisco.learner", "loss_and_gradients", "learner.loss_and_gradients", None),
    ("classdisco.metrics", "dataset_reconstruction_accuracy", "metrics.dataset_reconstruction_accuracy", None),
    ("classdisco.metrics", "cluster_accuracy", "metrics.cluster_accuracy", None),
    ("classdisco.ood", "calibrate", "ood.calibrate", None),
    ("classdisco.ood", "partition", "ood.partition", None),
)

# Spans that orchestrate; their self time is engine.self_s and cli.self_s.
ENGINE_SPANS = ("engine.run_dynamic", "engine.run_static", "engine.run_class_count")
ROOT_SPAN = "cli.main"


def resolve() -> list[tuple[object, str, object]]:
    """Look up every wrap point; raise TraceError naming the first that is missing."""
    found = []
    for module_name, attr, _, _ in WRAP_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceError(f"wrap point {module_name}.{attr} is missing or not callable")
        found.append((module, attr, fn))
    return found


class Tracer:
    """Installs the wrap points, records spans and counts, and restores on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = resolve()
        for (module, attr, fn), (_, _, name, hook) in zip(targets, WRAP_POINTS):
            setattr(module, attr, self._wrap(name, fn, hook))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "counts": dict(self.counts),
        }


# (metric, unit, better) for every per-layer number the traced run reports.
# The ood spans are wrapped but not reported: every workload routes by
# oracle, so they would read 0 on every run.
LAYER_METRICS = (
    ("clustering.fit_with_restarts.s", "s", "lower"),
    ("clustering.fit_with_restarts.self_s", "s", "lower"),
    ("clustering.fit_with_restarts.share", "fraction", "lower"),
    ("clustering.kmeanspp_init.s", "s", "lower"),
    ("clustering.lloyd_fit.s", "s", "lower"),
    ("clustering.lloyd_iterations", "count", "lower"),
    ("clustering.fits", "count", "lower"),
    ("clustering.lloyd_gflop", "GFLOP", "lower"),
    ("clustering.lloyd_gflops_rate", "GFLOP/s", "higher"),
    ("clustering.restart_yield", "fraction", "higher"),
    ("selection.learnability_scores.s", "s", "lower"),
    ("selection.learnability_scores.self_s", "s", "lower"),
    ("selection.scorer_train.s", "s", "lower"),
    ("selection.scorer_train.self_s", "s", "lower"),
    ("selection.scorer_train.share", "fraction", "lower"),
    ("selection.scorer_steps", "count", "lower"),
    ("learner.train_main.s", "s", "lower"),
    ("learner.train_main.self_s", "s", "lower"),
    ("learner.train_main.share", "fraction", "lower"),
    ("learner.train_main.steps", "count", "lower"),
    ("learner.loss_and_gradients.main_s", "s", "lower"),
    ("learner.loss_and_gradients.scorer_s", "s", "lower"),
    ("learner.embed.s", "s", "lower"),
    ("learner.expand_outputs.s", "s", "lower"),
    ("dataset.load_data.s", "s", "lower"),
    ("dataset.make_split.s", "s", "lower"),
    ("dataset.add_class.s", "s", "lower"),
    ("metrics.dataset_reconstruction_accuracy.s", "s", "lower"),
    ("metrics.cluster_accuracy.s", "s", "lower"),
    ("selection.density_score.s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("config.validate_config.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage", "fraction", "higher"),
)

# Counts must repeat exactly between two traced runs of the same inputs.
COUNT_METRICS = tuple(m for m, unit, _ in LAYER_METRICS if unit == "count")


def layer_metrics(dumps: list[dict], untraced_wall_s: float) -> dict[str, float]:
    """Aggregate the span dumps of one traced pass into the per-layer metrics."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    lag_by_parent: dict[str, float] = {}
    lag_calls_by_parent: dict[str, int] = {}
    counts: dict[str, int] = {}
    n_spans = 0
    for dump in dumps:
        names = dump["names"]
        spans = dump["spans"]
        n_spans += len(spans)
        child_time = [0.0] * len(spans)
        for name_i, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_i, start, end, parent) in enumerate(spans):
            name = names[name_i]
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "learner.loss_and_gradients" and parent >= 0:
                by = names[spans[parent][0]]
                lag_by_parent[by] = lag_by_parent.get(by, 0.0) + dur
                lag_calls_by_parent[by] = lag_calls_by_parent.get(by, 0) + 1
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value

    wall = total.get(ROOT_SPAN, 0.0)
    engine_self = sum(self_time.get(n, 0.0) for n in ENGINE_SPANS)
    cli_self = self_time.get(ROOT_SPAN, 0.0)
    fits = calls.get("clustering.lloyd_fit", 0)
    lloyd_s = total.get("clustering.lloyd_fit", 0.0)
    gflop = counts.get("clustering.lloyd_flop", 0) / 1e9

    def share(name: str) -> float:
        return total.get(name, 0.0) / wall if wall else 0.0

    out = {
        "clustering.lloyd_iterations": counts.get("clustering.lloyd_iterations", 0),
        "clustering.fits": fits,
        "clustering.lloyd_gflop": gflop,
        "clustering.lloyd_gflops_rate": gflop / lloyd_s if lloyd_s else 0.0,
        "clustering.restart_yield": (
            calls.get("clustering.fit_with_restarts", 0) / fits if fits else 0.0
        ),
        "clustering.fit_with_restarts.self_s": self_time.get("clustering.fit_with_restarts", 0.0),
        "clustering.fit_with_restarts.share": share("clustering.fit_with_restarts"),
        "selection.learnability_scores.self_s": self_time.get("selection.learnability_scores", 0.0),
        "selection.scorer_train.self_s": self_time.get("selection.scorer_train", 0.0),
        "selection.scorer_train.share": share("selection.scorer_train"),
        "selection.scorer_steps": lag_calls_by_parent.get("selection.scorer_train", 0),
        "learner.train_main.self_s": self_time.get("learner.train_main", 0.0),
        "learner.train_main.share": share("learner.train_main"),
        "learner.train_main.steps": lag_calls_by_parent.get("learner.train_main", 0),
        "learner.loss_and_gradients.main_s": lag_by_parent.get("learner.train_main", 0.0),
        "learner.loss_and_gradients.scorer_s": lag_by_parent.get("selection.scorer_train", 0.0),
        "engine.self_s": engine_self,
        "cli.self_s": cli_self,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall_s,
        "trace.spans": n_spans,
        "trace.coverage": (wall - engine_self - cli_self) / wall if wall else 0.0,
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in out:
            continue
        if not metric.endswith(".s"):
            raise KeyError(f"no rule computes per-layer metric {metric}")
        out[metric] = total.get(metric[: -len(".s")], 0.0)
    return out
