"""K-means with k-means++ seeding and restarts.

Candidate classes come from partitioning embeddings with Lloyd's algorithm,
initialized by k-means++ and restarted several times; the restart with the
lowest inertia (sum of squared distances to assigned centroids) wins. All
tie-breaks are pinned so runs reproduce exactly: equidistant points go to the
lower centroid index, equal-inertia restarts to the lower sub-seed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import seeds

WORKERS_ENV = "CLASSDISCO_WORKERS"


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 15
    restarts: int = 10
    max_iters: int = 300
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass(frozen=True)
class Clustering:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations_run: int
    inertia_trace: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def _sq_dists(points: np.ndarray, norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n, k), clipped at zero against rounding.

    norms is ``(points * points).sum(axis=1)``, computed once per fit by the caller.
    """
    d2 = (
        norms[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * points @ centroids.T
    )
    return np.maximum(d2, 0.0, out=d2)


def kmeanspp_init(points, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, the rest proportional to D^2."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    rng = seeds.spawn(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    norms = (pts * pts).sum(axis=1)
    closest = _sq_dists(pts, norms, centroids[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:  # every point coincides with a chosen centroid
            idx = rng.integers(n)
        centroids[i] = pts[idx]
        np.minimum(closest, _sq_dists(pts, norms, centroids[i : i + 1])[:, 0], out=closest)
    return centroids


def _class_means(points, assign, k, fallback):
    """Cluster means; an empty cluster keeps its fallback row.

    Each cluster's rows are summed in index order, as np.add.at adds them, so
    the means are bit-identical to it. numpy sums one column pairwise, not in
    order, so a single column goes through bincount, which adds in order.
    """
    if points.shape[1] == 1:
        sums = np.bincount(assign, weights=points[:, 0], minlength=k)[:, None]
    else:
        sums = np.array([points[assign == j].sum(axis=0) for j in range(k)])
    counts = np.bincount(assign, minlength=k)
    means = fallback.copy()
    nonempty = counts > 0
    means[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    return means


def _inertia(points, centroids, assign, buf):
    """Sum of squared distances to the assigned centroids, computed in buf (n, d)."""
    # assign is in range (from argmin); mode="raise" would copy through a temporary
    np.take(centroids, assign, axis=0, out=buf, mode="clip")
    np.subtract(points, buf, out=buf)
    np.multiply(buf, buf, out=buf)
    return float(buf.sum())


def _repair_empty(points, norms, centroids, assign, k):
    """Reseed each empty cluster at the point farthest from its assigned centroid."""
    for _ in range(k):
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            break
        d2 = _sq_dists(points, norms, centroids)
        dist_to_own = d2[np.arange(len(assign)), assign]
        centroids[empties[0]] = points[int(dist_to_own.argmax())]
        assign = _sq_dists(points, norms, centroids).argmin(axis=1)
    return centroids, assign


def lloyd_fit(points, init_centroids, max_iters: int = 300, tol: float = 1e-4) -> Clustering:
    """Lloyd iterations from the given centroids until fixpoint, max_iters, or tol.

    tol is relative inertia improvement. Inertia is checked non-increasing on
    every iteration; the returned assignments point to the nearest final
    centroid and the returned inertia is recomputed against them.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 0:
        raise ValueError("cannot cluster zero points")
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    if centroids.shape[1] != pts.shape[1]:
        raise ValueError("centroid width does not match point width")
    k = centroids.shape[0]
    norms = (pts * pts).sum(axis=1)
    buf = np.empty(pts.shape)

    prev_inertia = None
    trace: list[float] = []
    iterations = 0
    assign = np.zeros(pts.shape[0], dtype=np.int64)
    for it in range(max_iters):
        assign = _sq_dists(pts, norms, centroids).argmin(axis=1)
        centroids, assign = _repair_empty(pts, norms, centroids, assign, k)
        new_centroids = _class_means(pts, assign, k, fallback=centroids)
        inertia = _inertia(pts, new_centroids, assign, buf)
        trace.append(inertia)
        iterations = it + 1
        if prev_inertia is not None and inertia > prev_inertia * (1 + 1e-12) + 1e-12:
            raise RuntimeError(
                f"inertia increased from {prev_inertia} to {inertia} at iteration {iterations}"
            )
        converged = np.array_equal(new_centroids, centroids)
        centroids = new_centroids
        if converged:
            break
        if prev_inertia is not None and (prev_inertia - inertia) < tol * prev_inertia:
            break
        prev_inertia = inertia

    # Reconcile against the final centroids so assignments are truly nearest.
    final_assign = _sq_dists(pts, norms, centroids).argmin(axis=1)
    if not np.array_equal(final_assign, assign):
        centroids, final_assign = _repair_empty(pts, norms, centroids, final_assign, k)
        assign = final_assign
        inertia = _inertia(pts, centroids, assign, buf)
        trace.append(inertia)
    return Clustering(
        centroids=centroids,
        assignments=assign,
        inertia=inertia,
        iterations_run=iterations,
        inertia_trace=tuple(trace),
    )


def resolve_workers(requested: int | None = None) -> int:
    """Worker count for the restarts: ``requested``, else ``$CLASSDISCO_WORKERS``, else 1."""
    if requested is None:
        env = os.environ.get(WORKERS_ENV) or "1"
        if not env.isdigit() or int(env) < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
        return int(env)
    if requested < 1:
        raise ValueError(f"the worker count must be >= 1, got {requested}")
    return requested


def fit_with_restarts(points, cfg: KMeansConfig, workers: int | None = None) -> Clustering:
    """Best-of-restarts k-means; sub-seed i is cfg.seed + i, ties go to the lowest i.

    The reduction is deterministic regardless of worker count.
    """
    pts = np.asarray(points, dtype=np.float64)

    def trial(i: int) -> Clustering:
        init = kmeanspp_init(pts, cfg.k, seed=cfg.seed + i)
        return lloyd_fit(pts, init, max_iters=cfg.max_iters, tol=cfg.tol)

    n_workers = resolve_workers(workers)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(trial, range(cfg.restarts)))
    else:
        results = [trial(i) for i in range(cfg.restarts)]

    best = results[0]
    for cand in results[1:]:
        if cand.inertia < best.inertia:
            best = cand
    return best

