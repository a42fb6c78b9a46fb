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

from dataclasses import dataclass, field

import numpy as np

from .util import HYPERPLANES, KMEANS_INIT, as_matrix, derive_rng

MAX_K_SIM = 24  # 2^24 buckets is already far beyond any sane configuration


@dataclass(frozen=True, eq=False)
class SimHashPartitioner:
    """Hyperplane sign hash: R^d -> [2^k_sim]."""

    gaussians: np.ndarray  # (k_sim, d) i.i.d. standard normal rows
    seed: int = 0
    rep: int = 0

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
    requested_b: int = 0
    mse_history: tuple = field(default=(), repr=False)

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
    return SimHashPartitioner(gaussians=g, seed=int(seed), rep=int(rep))


def simhash_from_gaussians(gaussians) -> SimHashPartitioner:
    """Build a partitioner from explicit hyperplanes (testing / analysis)."""
    g = as_matrix(gaussians)
    if g.shape[0] > MAX_K_SIM:
        raise ValueError(f"at most {MAX_K_SIM} hyperplanes supported, got {g.shape[0]}")
    return SimHashPartitioner(gaussians=g)


def assign_many(partitioner, X) -> np.ndarray:
    """Cluster indices for the rows of an (m, d) matrix."""
    Xa = as_matrix(X)
    if Xa.shape[1] != partitioner.dim:
        raise ValueError(f"dimension mismatch: points have d={Xa.shape[1]}, partitioner expects {partitioner.dim}")
    if isinstance(partitioner, SimHashPartitioner):
        bits = (Xa @ partitioner.gaussians.T) > 0.0  # strict: a zero dot is bit 0
        weights = (1 << np.arange(partitioner.k_sim, dtype=np.int64))
        return bits.astype(np.int64) @ weights
    if isinstance(partitioner, KMeansPartitioner):
        c = partitioner.centers
        d2 = np.sum(Xa * Xa, axis=1)[:, None] - 2.0 * (Xa @ c.T) + np.sum(c * c, axis=1)[None, :]
        return np.argmin(d2, axis=1).astype(np.int64)  # argmin ties -> lowest index
    raise TypeError(f"unknown partitioner type {type(partitioner).__name__}")


def hamming(a: int, b: int, k_sim: int) -> int:
    """Number of disagreeing bits between two cluster indices."""
    if not 1 <= k_sim <= MAX_K_SIM:
        raise ValueError(f"k_sim must be in [1, {MAX_K_SIM}], got {k_sim}")
    a, b = int(a), int(b)
    limit = 1 << k_sim
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"indices must be < 2^{k_sim}, got {a}, {b}")
    return (a ^ b).bit_count()


def lloyd_kmeans(points, k: int, seed: int, max_iters: int = 100, tol: float = 1e-4,
                 rep: int = 0) -> tuple[np.ndarray, list[float]]:
    """Lloyd's algorithm with seeded distinct-point initialization.

    Returns (centers, mse_history). k is reduced to the number of distinct
    points when necessary. mse_history[t] is the mean squared distance to
    the nearest center before the t-th update; it never increases. The
    loop stops after max_iters updates or when the relative decrease of
    the MSE falls below tol.
    """
    pts = as_matrix(points)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    distinct = np.unique(pts, axis=0)
    k_eff = min(k, distinct.shape[0])
    rng = derive_rng(seed, KMEANS_INIT, rep)
    centers = distinct[rng.choice(distinct.shape[0], size=k_eff, replace=False)].copy()

    sq_pts = np.sum(pts * pts, axis=1)
    history: list[float] = []
    for _ in range(max_iters):
        d2 = sq_pts[:, None] - 2.0 * (pts @ centers.T) + np.sum(centers * centers, axis=1)[None, :]
        labels = np.argmin(d2, axis=1)
        mse = float(np.maximum(d2[np.arange(pts.shape[0]), labels], 0.0).mean())
        history.append(mse)
        counts = np.bincount(labels, minlength=k_eff)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, pts)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]  # empty clusters keep their center
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 0.0 or (prev - cur) / prev < tol:
                break
    return centers, history


def kmeans_train(points, b: int, seed: int, max_iters: int = 100, tol: float = 1e-4,
                 rep: int = 0) -> KMeansPartitioner:
    """Train a nearest-center partitioner with B centers on the given points."""
    centers, history = lloyd_kmeans(points, b, seed, max_iters=max_iters, tol=tol, rep=rep)
    return KMeansPartitioner(centers=centers, requested_b=int(b), mse_history=tuple(history))
