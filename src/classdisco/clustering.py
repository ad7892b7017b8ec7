"""K-means with k-means++ seeding and restarts.

Candidate classes come from partitioning embeddings with Lloyd's algorithm,
initialized by k-means++ and restarted several times; the restart with the
lowest inertia (sum of squared distances to assigned centroids) wins. All
tie-breaks are pinned so runs reproduce exactly: equidistant points go to the
lower centroid index, equal-inertia restarts to the lower sub-seed.

Restarts run in lockstep on a leading restart axis: each seeding step draws
every restart's next centroid from its own stream and updates D^2 for all of
them in one call, and each Lloyd iteration computes one ``(R, k, n)`` distance
block. A restart's bits never depend on its neighbours: each product is a
stacked matmul (one GEMM per restart) unless ``_fused`` says that one 2-D
GEMM with the restarts stacked along its rows, ``(R k, d) @ (d, n)``, gives
every restart the bits of its own GEMM. On OpenBLAS that holds for float32
products above the small-matrix bound at d >= 32, and folding the restarts
into the rows reads the shared points once instead of R times. The other
orientation, one ``(n, R k)`` product, changed float64 bits (acceptance
criterion 3) and is not used. A single restart is the ``R = 1`` case of the
same code.

k-means follows the dtype of its points: float32 points are centered,
seeded, distanced and averaged in float32, and centroids come back float32;
any other input is clustered in float64. Inertias are summed in float64,
k-means++ forms its draw weights in float64, and Lloyd's rounding floor and
its rising-inertia check scale with the dtype's ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .learner import as_float


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
        if not 0 <= self.tol <= 1:  # a relative improvement: any tol above 1 acts as 1
            raise ValueError("tol must lie in [0, 1]")


@dataclass(frozen=True)
class Clustering:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations_run: int
    inertia_trace: tuple[float, ...] = ()
    # every restart of the fit, in sub-seed order: Lloyd iterations and final inertia
    restart_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp))
    restart_inertias: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


# OpenBLAS runs a product of at most this many multiply-adds in its
# small-matrix kernel, whose bits differ from the general kernel's
_SMALL_GEMM = 1e6


def _fused(ctr, k: int) -> bool:
    """Whether a lockstep product of k centroids per restart with the
    ``(n, d)`` points ctr may run as one 2-D GEMM over the restarts.

    Stacking the restarts' ``(k, .)`` operands along the rows of one GEMM
    gave every restart the bits of its own GEMM wherever this is true, over
    random shapes under one and two BLAS threads: float32 points, more than
    one centroid (a one-centroid product is a ``gemv``), each restart's
    product above the small-matrix bound, and d >= 32 (two threads split
    narrower class sums differently).
    """
    return ctr.dtype == np.float32 and k > 1 and k * ctr.size > _SMALL_GEMM and ctr.shape[1] >= 32


def _sq_dists(ctr, norms, cents, out):
    """Squared distances from each restart's centroids to the centered points.

    cents is ``(R, k, d)`` in the centered frame; out is the caller's
    C-contiguous ``(R, k, n)`` block, filled in place as
    ``((-2 c) @ x.T + |c|^2) + |x|^2`` clipped at zero against rounding. norms
    is ``|x|^2``, computed once per fit. Doubling and negating are exact. The
    product is one GEMM per restart, or where ``_fused`` allows, one
    ``(R k, d) @ (d, n)`` GEMM written through a view of out, with the same
    bits in about half the time at the workloads' 5000x128 pools.
    """
    restarts, k, d = cents.shape
    if _fused(ctr, k):
        flat = out.reshape(restarts * k, -1)  # a view: out is C-contiguous
        np.matmul((-2.0 * cents).reshape(restarts * k, d), ctr.T, out=flat)
    else:
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
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite norms are reported below
        mu = points.mean(axis=0)
        ctr = np.subtract(points.T, mu[:, None], out=np.empty(points.shape[::-1], points.dtype)).T
        norms = np.einsum("ij,ij->i", ctr, ctr)
    # no centroid lies farther out than a point, so 4x the largest norm bounds every distance
    if not norms.max() <= np.finfo(norms.dtype).max / 4:
        raise ValueError(f"non-finite squared distances: points too far apart for {norms.dtype}")
    ctr.flags.writeable = norms.flags.writeable = False
    return mu, ctr, norms


def kmeanspp_init(points, k: int, seed, centered=None) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, the rest proportional to D^2.

    seed is one sub-seed, giving ``(k, d)`` centroids, or a sequence of them,
    giving an ``(R, k, d)`` stack whose row i is exactly what ``seed[i]``
    alone gives. D^2 is taken on the points centered at their mean, as in
    ``lloyd_fit``; the centroids returned are rows of the given points.
    ``centered`` is ``center(points)`` when the caller has it already. Each
    draw's probabilities are D^2 over its sum, both in float64.
    """
    pts = as_float(points)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} is below 1 or exceeds the {n} available points")
    single = isinstance(seed, (int, np.integer))
    rngs = [seeds.spawn(s) for s in ([seed] if single else seed)]
    if not rngs:
        raise ValueError("seed must be one sub-seed or a non-empty sequence of them")
    _, ctr, norms = center(pts) if centered is None else centered
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    block = np.empty((len(rngs), 1, n), pts.dtype)
    closest = _sq_dists(ctr, norms, ctr[chosen[:, :1]], block)[:, 0].copy()
    for j in range(1, k):
        for r, rng in enumerate(rngs):  # each restart draws from its own stream
            weights = closest[r].astype(np.float64, copy=False)
            total = weights.sum()
            # a zero total: every point coincides with a chosen centroid
            chosen[r, j] = rng.choice(n, p=weights / total) if total > 0 else rng.integers(n)
        d2 = _sq_dists(ctr, norms, ctr[chosen[:, j : j + 1]], block)
        np.minimum(closest, d2[:, 0], out=closest)
    return pts[chosen[0] if single else chosen]


def _class_means(ctr, assign, fallback, block):
    """Each restart's cluster means, ``(R, k, d)``; an empty cluster keeps its fallback row.

    The sums are one-hot products: the ``(R, k, n)`` block is overwritten
    with each point's one-hot assignment, and times the points it is one GEMM
    per restart, or where ``_fused`` allows, one ``(R k, n) @ (n, d)`` GEMM
    over a view of the block, with the same bits.
    """
    restarts, k, n = block.shape
    block.fill(0.0)
    np.put_along_axis(block, assign[:, None, :], 1.0, axis=1)
    if _fused(ctr, k):
        sums = (block.reshape(restarts * k, n) @ ctr).reshape(restarts, k, -1)
    else:
        sums = np.matmul(block, ctr)
    counts = _counts(assign, k)[:, :, None]
    return np.where(counts > 0, sums / np.maximum(counts, 1).astype(sums.dtype), fallback)


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
    """Each restart's sum of the distances at its assignments, ``(R,)``, in float64."""
    return np.take_along_axis(d2, assign[:, None, :], axis=1)[:, 0].sum(axis=1, dtype=np.float64)


def lloyd_fit(
    points, init_centroids, max_iters: int = 300, tol: float = 1e-4, centered=None
) -> Clustering:
    """Lloyd iterations from the given centroids until fixpoint, max_iters, or tol.

    init_centroids is ``(k, d)`` for one restart or an ``(R, k, d)`` stack,
    run in lockstep, each restart bit for bit as it runs alone. tol is
    relative inertia improvement. Distances are taken on the points centered
    at their mean, which keeps them precise far from the origin. Each
    iteration computes one distance block, for its new centroids: it gives
    this iteration's inertia and the next one's assignments, and the same
    block holds the one-hot assignments for the class sums. A restart that
    stops leaves the block for a per-restart record: its final centroids,
    assignments to them, inertia trace, iterations and inertia. The result is
    the record at its lowest final inertia (ties to the lowest stack
    position), with every restart's iterations and final inertia. An inertia
    summed from the expanded distances carries a rounding error of up to
    ``4 (d + 2) eps sum|x|^2``, eps of the points' dtype; below that floor it
    is noise that may rise, so a restart also stops once its inertia reaches
    it, and one that rises by more than the floor plus underflow's error
    raises RuntimeError. ``centered`` is as in ``kmeanspp_init``.
    """
    pts = as_float(points)
    init = np.asarray(init_centroids, dtype=pts.dtype)
    d = pts.shape[1]
    if init.ndim not in (2, 3) or 0 in init.shape[:-1] or init.shape[-1] != d:
        raise ValueError(f"init_centroids {init.shape} must be (k, {d}) or (R, k, {d}) with R, k >= 1")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    mu, ctr, norms = center(pts) if centered is None else centered
    cents = init.reshape(-1, *init.shape[-2:]) - mu
    restarts, k = cents.shape[:2]
    fin = np.finfo(pts.dtype)
    floor = 4 * (d + 2) * float(fin.eps) * norms.sum(dtype=np.float64)
    # rounding may lift an inertia by up to the floor, and underflow by up to
    # one subnormal per product of each distance
    slack = floor + 4 * (d + 2) * ctr.shape[0] * float(fin.smallest_subnormal)
    block = np.empty((restarts, k, ctr.shape[0]), pts.dtype)
    ids = np.arange(restarts)  # the stack positions of the restarts still running
    prev = np.full(restarts, np.nan)  # no inertia yet: neither check below can fire
    traces = [[] for _ in range(restarts)]  # each restart's inertia per iteration
    # the rest of each restart's record, written when it stops
    iterations, finals = np.zeros(restarts, np.intp), np.zeros(restarts)
    centroids, assignments = np.empty_like(cents), np.empty((restarts, ctr.shape[0]), np.intp)
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
        rising = np.flatnonzero(inertia > prev + slack)
        if rising.size:
            r = rising[0]
            raise RuntimeError(f"inertia increased from {prev[r]} to {inertia[r]} at iteration {it}")
        done = (new == cents).all(axis=(1, 2)) | ((prev - inertia) < tol * prev) | (it == max_iters)
        done |= inertia <= floor  # its points sit on their centroids to within rounding
        cents, prev = new, inertia
        # Reconcile stopping restarts against their final centroids (d2 is
        # their block) so assignments are truly nearest.
        final = _nearest(d2)
        moved = (final != assign).any(axis=1)
        _repair_empty(ctr, norms, cents, d2, final, ~done | moved)
        if done.any():
            last = np.where(moved, _inertia(d2, final), inertia)
            iterations[ids[done]], finals[ids[done]] = it, last[done]
            centroids[ids[done]], assignments[ids[done]] = cents[done], final[done]
            for r in np.flatnonzero(done & moved):  # the reconciled inertia ends its trace
                traces[ids[r]].append(float(last[r]))
            ids, cents, prev, final = ids[~done], cents[~done], prev[~done], final[~done]
            if not ids.size:
                break
        assign = final
    best = int(np.argmin(finals))  # the first minimum: ties go to the lowest stack position
    return Clustering(
        centroids=centroids[best] + mu,
        assignments=assignments[best].copy(),  # not a view holding every restart's row
        inertia=float(finals[best]),
        iterations_run=int(iterations[best]),
        inertia_trace=tuple(traces[best]),
        restart_iterations=iterations,
        restart_inertias=finals,
    )


def fit_with_restarts(points, cfg: KMeansConfig) -> Clustering:
    """Best-of-restarts k-means; sub-seed i is cfg.seed + i, ties go to the lowest i.

    The result equals, bit for bit, the best of
    ``lloyd_fit(points, kmeanspp_init(points, cfg.k, seed=cfg.seed + i))``.
    The points are centered once, and every restart runs in one lockstep
    stack, whose ``(R, k, n)`` block grows linearly in ``cfg.restarts``.
    """
    pts = as_float(points)
    centered = center(pts)
    subseeds = range(cfg.seed, cfg.seed + cfg.restarts)
    init = kmeanspp_init(pts, cfg.k, seed=subseeds, centered=centered)
    return lloyd_fit(pts, init, max_iters=cfg.max_iters, tol=cfg.tol, centered=centered)
