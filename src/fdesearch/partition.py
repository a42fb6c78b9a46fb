"""Randomized partitions of R^d used to bucket token embeddings.

Two families are provided:

* sign hashing against random Gaussian hyperplanes (the default): a point
  x maps to the integer whose bit i-1 is 1(<g_i, x> > 0). Closer points
  disagree on fewer bits, with a single hyperplane separating unit vectors
  x, y with probability angle(x, y) / pi.
* nearest-center assignment, with centers trained by Lloyd's algorithm on
  a sample of token embeddings.

Bit order is LSB-first (hyperplane i owns bit i-1) and a dot product of
exactly zero hashes to bit 0; both are fixed here for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import HYPERPLANES, KMEANS_INIT, _row_chunks, as_matrix, derive_rng, product

MAX_K_SIM = 24  # 2^24 buckets is already far beyond any sane configuration
KMEANS_MAX_ITERS = 100  # Lloyd updates at most
KMEANS_TOL = 1e-4  # stop once the MSE falls by a smaller relative amount
# bit i-1 of a hash, as integers: packing the bits is an exact integer product, without BLAS (a float
# one is a gemv, which OpenBLAS runs on its thread pool above 9216 entries)
_BIT_VALUES = 1 << np.arange(MAX_K_SIM, dtype=np.int64)
# distances a strip of lloyd_kmeans' partial refresh holds (1 MB of float64): few, large strips, since
# eight strips of 2^18 multiply-adds made pq-1k's build ~5% slower than one product (2 vCPU)
_STRIP_DISTANCES = 1 << 17


@dataclass(frozen=True, eq=False)
class SimHashPartitioner:
    """Hyperplane sign hash: R^d -> [2^k_sim]."""

    gaussians: np.ndarray  # (k_sim, d) i.i.d. standard normal rows

    @property
    def k_sim(self) -> int:
        return self.gaussians.shape[0]

    @property
    def dim(self) -> int:
        return self.gaussians.shape[1]

    @property
    def num_clusters(self) -> int:
        return 1 << self.k_sim


@dataclass(frozen=True, eq=False)
class KMeansPartitioner:
    """Nearest-center assignment: R^d -> [len(centers)]."""

    centers: np.ndarray  # (B, d)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]


def simhash_new(k_sim: int, d: int, seed: int, rep: int = 0) -> SimHashPartitioner:
    """Draw k_sim Gaussian hyperplanes, deterministic in (seed, rep)."""
    if not 1 <= k_sim <= MAX_K_SIM:
        raise ValueError(f"k_sim must be in [1, {MAX_K_SIM}], got {k_sim}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    g = derive_rng(seed, HYPERPLANES, rep).standard_normal((k_sim, d))
    return SimHashPartitioner(gaussians=g)


def assign_many(partitioner, X) -> np.ndarray:
    """Cluster indices for the rows of an (m, d) matrix."""
    return assign_with_dists(partitioner, X)[0]


def assign_with_dists(partitioner, X) -> tuple[np.ndarray, np.ndarray | None]:
    """assign_many's indices plus what they were chosen from.

    For a nearest-center partitioner that is the (m, B) matrix of squared
    distances to every center; sign hashing returns None instead.
    """
    Xa = as_matrix(X)
    if Xa.shape[1] != partitioner.dim:
        raise ValueError(f"dimension mismatch: points have d={Xa.shape[1]}, partitioner expects {partitioner.dim}")
    if isinstance(partitioner, SimHashPartitioner):
        bits = product(Xa, partitioner.gaussians) > 0.0  # strict: a zero dot is bit 0
        return bits @ _BIT_VALUES[:partitioner.k_sim], None
    if isinstance(partitioner, KMeansPartitioner):
        d2 = sq_dists(Xa, partitioner.centers)
        return np.argmin(d2, axis=1).astype(np.int64), d2  # ties -> lowest index
    raise TypeError(f"unknown partitioner type {type(partitioner).__name__}")


def sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(m, B) squared Euclidean distances from the rows of X to the rows of C."""
    return _sq_from_dots(product(X, C), np.sum(X * X, axis=1), np.sum(C * C, axis=1))


def _sq_from_dots(t: np.ndarray, xx: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """xx[:, None] - 2 t + cc worked in place on the dot products t, so each entry rounds as
    xx - 2 x.c + cc is written (a -2 folded into C would not, for subnormals)."""
    t *= -2.0
    t += xx[:, None]
    t += cc
    return t


def distinct_rows(pts: np.ndarray) -> np.ndarray:
    """np.unique(pts, axis=0) without its structured-row sort: sorted by the first column when it has
    no ties, else by one lexsort; rows equal up to signs of zeros keep the first in pts."""
    order = np.argsort(pts[:, 0], kind="stable")
    first = pts[order, 0]
    if (first[1:] == first[:-1]).any():
        order = np.lexsort(pts.T[::-1])
    rows = pts[order]
    changed = np.ones(len(rows), dtype=bool)
    changed[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[changed]


def lloyd_kmeans(points, k: int, seed: int, rep: int = 0) -> tuple[np.ndarray, list[float], np.ndarray | None]:
    """Lloyd's algorithm with seeded distinct-point initialization.

    Returns (centers, history, labels). k is reduced to the number of
    distinct points when necessary. history[t] is the mean squared
    distance to the nearest center before the t-th update; it never
    increases. The loop stops after KMEANS_MAX_ITERS updates or when the
    relative decrease of the MSE falls below KMEANS_TOL. labels is each
    point's nearest final center (ties to the lowest) when the last update
    moved no center, else None.

    The (n, k) squared distances are kept across updates. Entry (i, j)
    depends only on point i and center j, so after an update only the
    columns of centers whose bits changed (a -0.0/+0.0 flip counts) are
    refreshed, and all of them when more than an eighth moved (past that,
    the strided gather and scatter cost more than they save). The refresh
    still takes the product of the points with every center and picks the
    moved columns from it: BLAS computes the columns past the last
    multiple of its kernel width with another kernel, so a product with
    the moved centers alone would round some columns differently. It
    takes that product one strip of rows at a time (util._row_chunks:
    at most _STRIP_DISTANCES entries, when that leaves a strip at least
    2^17 multiply-adds, so it rounds as the whole product does), so the
    distances are the only (n, k) array. The distances, and so the labels
    and the history, are bit for bit those of recomputing every column on
    every update.
    """
    pts = np.ascontiguousarray(as_matrix(points))  # a strided group slice makes every product slower
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    distinct = distinct_rows(pts)
    k_eff = min(k, distinct.shape[0])
    rng = derive_rng(seed, KMEANS_INIT, rep)
    centers = distinct[rng.choice(distinct.shape[0], size=k_eff, replace=False)].copy()

    n, d = pts.shape
    xx, weights = np.sum(pts * pts, axis=1), pts.ravel()  # once per call, not per update
    d2 = np.empty((n, k_eff))  # reused across updates
    strips = _row_chunks(n, k_eff * d, _STRIP_DISTANCES * d)
    history: list[float] = []
    moved = None  # before the first update: every column is computed
    for _ in range(KMEANS_MAX_ITERS):
        if moved is None or 8 * len(moved) > k_eff:
            _sq_from_dots(np.matmul(pts, centers.T, out=d2), xx, np.sum(centers * centers, axis=1))
        elif len(moved):
            cc = np.sum(centers * centers, axis=1)[moved]
            for lo, hi in zip(strips[:-1], strips[1:]):
                d2[lo:hi, moved] = _sq_from_dots((pts[lo:hi] @ centers.T)[:, moved], xx[lo:hi], cc)
        labels = np.argmin(d2, axis=1)
        mse = float(np.maximum(d2.take(np.arange(n) * k_eff + labels), 0.0).mean())
        history.append(mse)
        counts = np.bincount(labels, minlength=k_eff)
        # one flat bincount sums each center's points from 0 in point order, as np.add.at did
        sums = np.bincount((labels[:, None] * d + np.arange(d)).ravel(), weights=weights,
                           minlength=k_eff * d).reshape(k_eff, d)
        nonempty = np.flatnonzero(counts)  # empty clusters keep their center
        updated = sums[nonempty] / counts[nonempty, None]
        changed = (updated.view(np.uint64) != centers[nonempty].view(np.uint64)).any(axis=1)
        moved = nonempty[changed]
        centers[moved] = updated[changed]
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 0.0 or (prev - cur) / prev < KMEANS_TOL:
                break
    return centers, history, labels if len(moved) == 0 else None


def kmeans_train(points, b: int, seed: int, rep: int = 0) -> KMeansPartitioner:
    """Train a nearest-center partitioner with B centers on the given points."""
    centers = lloyd_kmeans(points, b, seed, rep=rep)[0]
    return KMeansPartitioner(centers=centers)
