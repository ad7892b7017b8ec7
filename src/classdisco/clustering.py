"""K-means with k-means++ seeding and restarts.

Candidate classes come from partitioning embeddings with Lloyd's algorithm,
initialized by k-means++ and restarted several times; the restart with the
lowest inertia (sum of squared distances to assigned centroids) wins. All
tie-breaks are pinned so runs reproduce exactly: equidistant points go to the
lower centroid index, equal-inertia restarts to the lower sub-seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds


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
    The factor 2 scales the (k, d) centroids, not the (n, d) points; doubling
    is exact, so the product is bit-identical to ``2.0 * points @ centroids.T``.
    """
    d2 = (
        norms[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - points @ (2.0 * centroids).T
    )
    return np.maximum(d2, 0.0, out=d2)


def center(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mu, ctr, norms)``: the mean of the points, the points centered at
    it, and the squared row norms of the centered points. The centered arrays
    are read-only because every restart's seeding and Lloyd loop reuse them:
    an in-place write in one restart would silently skew all later ones.
    """
    if points.shape[0] == 0:
        raise ValueError("cannot cluster zero points")
    mu = points.mean(axis=0)
    ctr = points - mu
    norms = (ctr * ctr).sum(axis=1)
    ctr.flags.writeable = norms.flags.writeable = False
    return mu, ctr, norms


def kmeanspp_init(points, k: int, seed: int, centered=None) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, the rest proportional to D^2.

    D^2 is taken on the points centered at their mean, as in ``lloyd_fit``, so
    the seeding does not depend on where the data sits; the centroids
    returned are rows of the given points. ``centered`` is ``center(points)``
    when the caller has it already; without it the points are centered here.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    rng = seeds.spawn(seed)
    _, ctr, norms = center(pts) if centered is None else centered
    chosen = [int(rng.integers(n))]
    closest = _sq_dists(ctr, norms, ctr[chosen])[:, 0]
    for _ in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:  # every point coincides with a chosen centroid
            idx = rng.integers(n)
        chosen.append(int(idx))
        np.minimum(closest, _sq_dists(ctr, norms, ctr[chosen[-1:]])[:, 0], out=closest)
    return pts[chosen]


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


def _repair_empty(points, centroids, d2, assign, dists):
    """Reseed each empty cluster at the point farthest from its assigned centroid.

    d2 is the distance block of centroids; dists(centroids) recomputes it after a move.
    """
    k = centroids.shape[0]
    for _ in range(k):
        empties = np.flatnonzero(np.bincount(assign, minlength=k) == 0)
        if empties.size == 0:
            break
        dist_to_own = d2[np.arange(len(assign)), assign]
        centroids[empties[0]] = points[int(dist_to_own.argmax())]
        d2 = dists(centroids)
        assign = d2.argmin(axis=1)
    return centroids, d2, assign


def lloyd_fit(
    points, init_centroids, max_iters: int = 300, tol: float = 1e-4, centered=None
) -> Clustering:
    """Lloyd iterations from the given centroids until fixpoint, max_iters, or tol.

    tol is relative inertia improvement. Distances are taken on points centered
    at their mean, which keeps _sq_dists precise far from the origin; centroids
    stay means (or rows) of the given points. Each iteration computes one
    distance block, for its new centroids: it gives this iteration's inertia
    and the next one's assignments. Inertia is checked non-increasing on every
    iteration; the returned assignments point to the nearest final centroid.
    ``centered`` is as in ``kmeanspp_init``.
    """
    pts = np.asarray(points, dtype=np.float64)
    centroids = np.array(init_centroids, dtype=np.float64, copy=True)
    if centroids.shape[1] != pts.shape[1]:
        raise ValueError("centroid width does not match point width")
    k = centroids.shape[0]
    mu, ctr, norms = center(pts) if centered is None else centered
    rows = np.arange(pts.shape[0])

    def dists(c):
        return _sq_dists(ctr, norms, c - mu)

    d2 = dists(centroids)
    prev_inertia = None
    trace: list[float] = []
    iterations = 0
    for it in range(max_iters):
        centroids, d2, assign = _repair_empty(pts, centroids, d2, d2.argmin(axis=1), dists)
        new_centroids = _class_means(pts, assign, k, fallback=centroids)
        d2 = dists(new_centroids)
        inertia = float(d2[rows, assign].sum())
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

    # Reconcile against the final centroids (d2 is their block) so assignments are truly nearest.
    final_assign = d2.argmin(axis=1)
    if not np.array_equal(final_assign, assign):
        centroids, d2, assign = _repair_empty(pts, centroids, d2, final_assign, dists)
        inertia = float(d2[rows, assign].sum())
        trace.append(inertia)
    return Clustering(
        centroids=centroids,
        assignments=assign,
        inertia=inertia,
        iterations_run=iterations,
        inertia_trace=tuple(trace),
    )


def fit_with_restarts(points, cfg: KMeansConfig) -> Clustering:
    """Best-of-restarts k-means; sub-seed i is cfg.seed + i, ties go to the lowest i.

    The points are centered once and every restart's seeding and Lloyd loop
    share the result. Restarts run one after another: each one's numpy calls
    are too small to overlap on threads.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = center(pts)

    def trial(i: int) -> Clustering:
        init = kmeanspp_init(pts, cfg.k, seed=cfg.seed + i, centered=centered)
        return lloyd_fit(pts, init, max_iters=cfg.max_iters, tol=cfg.tol, centered=centered)

    results = [trial(i) for i in range(cfg.restarts)]
    return min(results, key=lambda c: c.inertia)  # min keeps the first: the lowest sub-seed

