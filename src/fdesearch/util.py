"""Shared helpers: deterministic RNG derivation, input checks and ranking.

Every random draw in the library flows through :func:`derive_rng` so that
a (seed, purpose, repetition) triple fully determines the draw, no matter
in which order callers ask for it. Purpose tags keep the hyperplanes,
projection matrices, k-means initializations etc. of one seed independent
of each other.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for derive_rng. Values are arbitrary but frozen: changing
# them changes every generated encoding.
HYPERPLANES = 0x68
INNER_PROJ = 0x69
FINAL_PROJ = 0x6A
KMEANS_INIT = 0x6B
PQ_SAMPLE = 0x6C
SYNTH = 0x6D
KMEANS_SAMPLE = 0x6E

# top_k full-sorts inputs of at most this many scores: one lexsort beats partial selection's
# ~40 numpy calls below ~1.2-1.3k entries (one row, k=100: 0.043-0.057 vs 0.063-0.069 ms at 1.2k,
# 0.062-0.083 vs 0.054-0.080 ms at 1.3k, 0.135-0.148 vs 0.056-0.067 ms at 2k; 2 vCPU, numpy 2.4)
FULL_SORT_MAX = 1200


def derive_rng(seed: int, purpose: int, rep: int = 0) -> np.random.Generator:
    """Return a Generator keyed by (seed, purpose, rep)."""
    return np.random.default_rng([int(seed), int(purpose), int(rep)])


def as_matrix(x, dtype=np.float64) -> np.ndarray:
    """Coerce an array-like to a 2-D matrix of dtype (float64 by default).

    Raises ValueError for anything that is not a nonempty (m, d) matrix
    with m >= 1 and d >= 1.
    """
    data = np.asarray(x, dtype=dtype)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D (rows, dim) matrix, got ndim={data.ndim}")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {data.shape}")
    return data


def as_matrices(mats) -> list[np.ndarray]:
    """as_matrix of each, except that a float32 array stays float32 and is not copied."""
    return [as_matrix(m, np.float32 if getattr(m, "dtype", None) == np.float32 else np.float64) for m in mats]


def require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return x, or raise ValueError naming what when an entry is NaN or inf."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def shortlist(approx: np.ndarray, slack: np.ndarray, k: int):
    """Positions whose upper bound approx + slack reaches the k-th largest lower bound approx - slack
    (the others are strictly beaten by k; ties at the cut stay); all (slice(None)) if any is not finite."""
    if not (np.isfinite(approx).all() and np.isfinite(slack).all()):
        return slice(None)
    lo = approx - slack
    kth = len(lo) - min(k, len(lo))
    return np.flatnonzero(approx + slack >= np.partition(lo, kth)[kth])


def top_k(ids, scores, k: int) -> np.ndarray:
    """Positions of the best min(k, n) entries along the last axis.

    The one ranking rule of the package: descending score, ties broken by
    ascending id, then by position. NaN ranks after every number (NaN ties
    broken the same way); +-inf rank by value. scores may be 2-D (one row
    per query); ids broadcast against it.

    The result equals a full sort by (-score, id), but only the entries
    scoring at least a row's k-th best score are sorted, and the scores are
    never copied. A row is cut in two steps:

    1. Split it into w = min(n, 8k) stripes (positions j, j+w, j+2w, ...)
       and take each stripe's NaN-ignoring maximum. The maxima are entries
       at w distinct positions of the row, so their k-th best is a lower
       bound on the row's k-th best score: at least k entries reach it.
    2. The entries reaching that bound (about k of them on untied data) go
       into a small NaN-padded matrix, whose partition at k-1 gives each
       row's exact k-th best score. Every entry at least that good is
       sorted, ties at the cut included, so the cut cannot change the order.

    Inputs of at most FULL_SORT_MAX scores take the full sort, and so do rows
    where fewer than k stripes hold a number (the bound is NaN).
    """
    scores = np.asarray(scores)
    ids = np.broadcast_to(ids, scores.shape)
    n = scores.shape[-1]
    if 0 < k < n and scores.size > FULL_SORT_MAX:
        flat = scores.reshape(-1, n)
        rows, w = len(flat), min(n, 8 * k)
        whole = n - n % w
        # one reduce over the stripes of a (rows, n//w, w) view: ~4x faster than max over short blocks
        peaks = np.fmax.reduce(flat[:, :whole].reshape(rows, -1, w), axis=1)
        np.fmax(peaks[:, :n - whole], flat[:, whole:], out=peaks[:, :n - whole])
        np.negative(peaks, out=peaks)
        peaks.partition(k - 1, axis=1)  # partition puts NaN last, as the ranking does
        bound = -peaks[:, k - 1:k]
        if not np.isnan(bound).any():
            # row-major, so equal keys keep their position order (flatnonzero: ~10x faster than 2-D nonzero)
            row, col = np.divmod(np.flatnonzero(flat >= bound), n)
            neg = -flat[row, col]
            first = np.searchsorted(row, np.arange(rows))  # row ascends: where each row's survivors start
            at = np.arange(len(row)) - first[row]
            padded = np.full((rows, at.max() + 1), np.nan)
            padded[row, at] = neg
            padded.partition(k - 1, axis=1)
            keep = neg <= padded[row, k - 1]  # the exact cut: the row's k-th best and every tie
            row, col, neg = row[keep], col[keep], neg[keep]
            order = np.lexsort((ids.reshape(-1, n)[row, col], neg, row))
            first = np.searchsorted(row, np.arange(rows))
            return col[order[first[:, None] + np.arange(k)]].reshape(scores.shape[:-1] + (k,))
    return np.lexsort((ids, -scores), axis=-1)[..., :max(k, 0)]
