"""K-means with k-means++ seeding and restarts.

Candidate classes come from partitioning embeddings with Lloyd's algorithm,
initialized by k-means++ and restarted several times; the restart with the
lowest inertia (sum of squared distances to assigned centroids) wins. All
tie-breaks are pinned so runs reproduce exactly: equidistant points go to the
lower centroid index, equal-inertia restarts to the lower sub-seed.

Restarts run in lockstep on a leading restart axis: each seeding step draws
every restart's next centroid from its own stream and updates D^2 for all of
them in one call, and each Lloyd iteration computes one ``(R, k, n)`` distance
block by a stacked matmul (one GEMM per restart, never one fused GEMM across
restarts, so a restart's bits do not depend on its neighbours). A single
restart is the ``R = 1`` case of the same code.
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


def _sq_dists(ctr, norms, cents, out):
    """Squared distances from each restart's centroids to the centered points.

    cents is ``(R, k, d)`` in the centered frame; out is the caller's
    ``(R, k, n)`` block, filled in place as ``((-2 c) @ x.T + |c|^2) + |x|^2``
    clipped at zero against rounding. norms is ``|x|^2``, computed once per
    fit. Doubling and negating are exact; each restart's product is its own
    GEMM.
    """
    np.matmul(-2.0 * cents, ctr.T, out=out)
    out += (cents * cents).sum(axis=2)[:, :, None]
    out += norms
    return np.maximum(out, 0.0, out=out)


def _nearest(d2: np.ndarray) -> np.ndarray:
    """Each restart's nearest centroid per point, ``(R, n)``: the lowest index
    at the minimum over k, as ``argmin(axis=1)`` gives, without the
    contiguous copy of the block that argmin makes for a middle axis."""
    low = d2.min(axis=1)
    nearest = np.empty(low.shape, dtype=np.intp)
    for j in range(d2.shape[1] - 1, -1, -1):  # the lowest index is written last
        nearest[d2[:, j] == low] = j
    return nearest


def center(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mu, ctr, norms)``: the mean of the points, the points centered at
    it, and the squared row norms of the centered points. ``ctr`` is an
    ``(n, d)`` view of a ``(d, n)`` array, so ``ctr.T`` is C-contiguous, the
    layout in which the distance product is fastest; the norms are summed
    without a temporary copy of the points. The centered arrays are
    read-only because every restart's seeding and Lloyd loop reuse them: an
    in-place write in one restart would silently skew all later ones.
    """
    if points.shape[0] == 0:
        raise ValueError("cannot cluster zero points")
    mu = points.mean(axis=0)
    ctr = np.subtract(points.T, mu[:, None], out=np.empty(points.shape[::-1])).T
    norms = np.einsum("ij,ij->i", ctr, ctr)
    ctr.flags.writeable = norms.flags.writeable = False
    return mu, ctr, norms


def kmeanspp_init(points, k: int, seed, centered=None) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, the rest proportional to D^2.

    seed is one sub-seed, giving ``(k, d)`` centroids, or a sequence of them,
    giving an ``(R, k, d)`` stack whose row i is exactly what ``seed[i]``
    alone gives. D^2 is taken on the points centered at their mean, as in
    ``lloyd_fit``; the centroids returned are rows of the given points.
    ``centered`` is ``center(points)`` when the caller has it already.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    single = isinstance(seed, (int, np.integer))
    rngs = [seeds.spawn(s) for s in ([seed] if single else seed)]
    _, ctr, norms = center(pts) if centered is None else centered
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    block = np.empty((len(rngs), 1, n))
    closest = _sq_dists(ctr, norms, ctr[chosen[:, :1]], block)[:, 0].copy()
    for j in range(1, k):
        for r, rng in enumerate(rngs):  # each restart draws from its own stream
            total = closest[r].sum()
            # a zero total: every point coincides with a chosen centroid
            chosen[r, j] = rng.choice(n, p=closest[r] / total) if total > 0 else rng.integers(n)
        d2 = _sq_dists(ctr, norms, ctr[chosen[:, j : j + 1]], block)
        np.minimum(closest, d2[:, 0], out=closest)
    return pts[chosen[0] if single else chosen]


def _class_means(ctr, assign, fallback, block):
    """Each restart's cluster means, ``(R, k, d)``; an empty cluster keeps its fallback row.

    The sums are one-hot products: the ``(R, k, n)`` block is overwritten
    with each point's one-hot assignment, and times the points it is one GEMM
    per restart.
    """
    k = block.shape[1]
    block.fill(0.0)
    np.put_along_axis(block, assign[:, None, :], 1.0, axis=1)
    sums = np.matmul(block, ctr)
    counts = _counts(assign, k)[:, :, None]
    return np.where(counts > 0, sums / np.maximum(counts, 1), fallback)


def _counts(assign, k):
    """Cluster sizes of each restart's assignments, ``(R, k)``."""
    offsets = k * np.arange(assign.shape[0])[:, None]
    return np.bincount((assign + offsets).ravel(), minlength=offsets.size * k).reshape(-1, k)


def _repair_empty(ctr, norms, cents, d2, assign, which):
    """Reseed each empty cluster at the point farthest from its assigned centroid.

    Works in place on the restarts flagged in which: cents, their rows of the
    distance block d2 and their assignments. Empty clusters are rare, so the
    restarts that have one are repaired one at a time, each through the
    one-restart case of ``_sq_dists``.
    """
    k = cents.shape[1]
    rows = np.arange(assign.shape[1])
    for r in np.flatnonzero(which & (_counts(assign, k) == 0).any(axis=1)):
        for _ in range(k):
            empties = np.flatnonzero(np.bincount(assign[r], minlength=k) == 0)
            if empties.size == 0:
                break
            cents[r, empties[0]] = ctr[int(d2[r, assign[r], rows].argmax())]
            assign[r] = _nearest(_sq_dists(ctr, norms, cents[r : r + 1], d2[r : r + 1]))


def _inertia(d2, assign):
    """Each restart's sum of the distances at its assignments, ``(R,)``."""
    return np.take_along_axis(d2, assign[:, None, :], axis=1)[:, 0].sum(axis=1)


def lloyd_fit(
    points, init_centroids, max_iters: int = 300, tol: float = 1e-4, centered=None
) -> Clustering:
    """Lloyd iterations from the given centroids until fixpoint, max_iters, or tol.

    init_centroids is ``(k, d)`` for one restart or an ``(R, k, d)`` stack;
    a stack runs in lockstep and returns the lowest-inertia restart (ties to
    the lowest index), bit for bit what that restart gives alone. tol is
    relative inertia improvement. Distances are taken on the points centered
    at their mean, which keeps them precise far from the origin. Each
    iteration computes one distance block, for its new centroids: it gives
    this iteration's inertia and the next one's assignments, and the same
    block holds the one-hot assignments for the class sums. A restart leaves
    the block once it stops. Inertia is checked non-increasing on every
    iteration; the returned assignments point to the nearest final centroid.
    ``centered`` is as in ``kmeanspp_init``.
    """
    pts = np.asarray(points, dtype=np.float64)
    init = np.asarray(init_centroids, dtype=np.float64)
    if init.shape[-1] != pts.shape[1]:
        raise ValueError("centroid width does not match point width")
    mu, ctr, norms = center(pts) if centered is None else centered
    cents = init.reshape(-1, *init.shape[-2:]) - mu
    restarts, k, _ = cents.shape
    block = np.empty((restarts, k, ctr.shape[0]))
    ids = np.arange(restarts)  # the stack positions of the restarts still running
    prev = np.full(restarts, np.nan)  # no inertia yet: neither check below can fire
    traces = [[] for _ in range(restarts)]  # each restart's inertia per iteration
    best, best_at = None, None  # the best stopped restart and its stack position
    d2 = _sq_dists(ctr, norms, cents, block)
    assign = _nearest(d2)
    _repair_empty(ctr, norms, cents, d2, assign, np.ones(restarts, dtype=bool))
    for it in range(1, max_iters + 1):
        d2 = block[: len(ids)]
        new = _class_means(ctr, assign, cents, d2)
        _sq_dists(ctr, norms, new, d2)
        inertia = _inertia(d2, assign)
        for i, value in zip(ids.tolist(), inertia.tolist()):
            traces[i].append(value)
        rising = np.flatnonzero(inertia > prev * (1 + 1e-12) + 1e-12)
        if rising.size:
            r = rising[0]
            raise RuntimeError(
                f"inertia increased from {prev[r]} to {inertia[r]} at iteration {it}"
            )
        done = (new == cents).all(axis=(1, 2)) | ((prev - inertia) < tol * prev) | (it == max_iters)
        cents, prev = new, inertia
        # Reconcile stopping restarts against their final centroids (d2 is
        # their block) so assignments are truly nearest.
        final = _nearest(d2)
        moved = (final != assign).any(axis=1)
        _repair_empty(ctr, norms, cents, d2, final, ~done | moved)
        if done.any():
            last = np.where(moved, _inertia(d2, final), inertia)
            for r in np.flatnonzero(done):
                # ties go to the lowest stack position, whichever stops first
                if best is None or (last[r], ids[r]) < (best.inertia, best_at):
                    best_at = ids[r]
                    best = Clustering(
                        centroids=cents[r] + mu,
                        assignments=final[r].copy(),  # not a view holding every restart's row
                        inertia=float(last[r]),
                        iterations_run=it,
                        inertia_trace=tuple(traces[best_at] + [float(last[r])] * bool(moved[r])),
                    )
            keep = ~done
            ids, cents, prev, final = ids[keep], cents[keep], prev[keep], final[keep]
            if not ids.size:
                break
        assign = final
    return best


def fit_with_restarts(points, cfg: KMeansConfig) -> Clustering:
    """Best-of-restarts k-means; sub-seed i is cfg.seed + i, ties go to the lowest i.

    The result equals, bit for bit, the best of
    ``lloyd_fit(points, kmeanspp_init(points, cfg.k, seed=cfg.seed + i))``.
    The points are centered once, and the restarts run in lockstep in as few
    equal groups as keep each group's ``(R, k, n)`` block no larger than the
    centered points (``R * k <= d``; one restart at a time when ``k > d``).
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = center(pts)
    groups = -(-cfg.restarts // max(1, pts.shape[1] // cfg.k))
    bounds = [cfg.restarts * g // groups for g in range(groups + 1)]
    best = None
    for lo, hi in zip(bounds, bounds[1:]):
        subseeds = range(cfg.seed + lo, cfg.seed + hi)
        init = kmeanspp_init(pts, cfg.k, seed=subseeds, centered=centered)
        fit = lloyd_fit(pts, init, max_iters=cfg.max_iters, tol=cfg.tol, centered=centered)
        if best is None or fit.inertia < best.inertia:  # strict: ties keep the lower sub-seed
            best = fit
    return best
