"""Shared helpers: deterministic RNG derivation, input checks, token sets and ranking.

Every random draw in the library flows through :func:`derive_rng` so that
a (seed, purpose, repetition) triple fully determines the draw, no matter
in which order callers ask for it. Purpose tags keep the hyperplanes,
projection matrices, k-means initializations etc. of one seed independent
of each other.
"""

from __future__ import annotations

from typing import Sequence

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

    dtype=None keeps a float32 array float32 and makes anything else
    float64, so float32 input is not widened and float64 input is not
    rounded. Raises ValueError for anything that is not a nonempty (m, d)
    matrix with m >= 1 and d >= 1.
    """
    if dtype is None:
        dtype = np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64
    data = np.asarray(x, dtype=dtype)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D (rows, dim) matrix, got ndim={data.ndim}")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {data.shape}")
    return data


def require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Return x, or raise ValueError naming what when an entry is NaN or inf."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


class TokenCorpus:
    """Token sets stacked into one (T, d) matrix: the one container and check for token-set input.

    Every document must be a nonempty 2-D matrix of finite entries, all of
    one width: dim when given (the width a config expects), else the first
    document's. ids gives each document a distinct integer id (positions by
    default); errors name a document by name and id ("document 3"; a batch
    of queries passes name="query"). The stack is float32 when
    every document is float32, else float64, so float32 input is not
    widened and float64 input is not rounded. doc(i) is a view; norms[i] is
    document i's largest token norm in float64 (inf when a float64 token's
    squared norm overflows).
    """

    def __init__(self, docs: Sequence, ids: Sequence[int] | None = None, dim: int | None = None,
                 name: str = "document"):
        mats = [as_matrix(m, None) for m in docs]
        if not mats:
            raise ValueError("corpus is empty")
        n = len(mats)
        if ids is None:  # positions: distinct by construction
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.array([int(i) for i in ids], dtype=np.int64)
            if len(self.ids) != n:
                raise ValueError(f"got {len(self.ids)} doc ids for {n} documents")
            distinct, counts = np.unique(self.ids, return_counts=True)
            if len(distinct) != n:
                raise ValueError(f"doc ids must be distinct, got repeats of {distinct[counts > 1][:5].tolist()}")
        self.lengths, widths = np.array([m.shape for m in mats]).T
        want = widths[0] if dim is None else dim
        bad = np.flatnonzero(widths != want)
        if bad.size:
            expected = f"{name} {self.ids[0]} has d={want}" if dim is None else f"config.dim={dim}"
            raise ValueError(f"{name} {self.ids[bad[0]]} tokens have d={widths[bad[0]]}, {expected}")
        self.tokens = np.concatenate(mats)  # float32 only when every document is
        self.starts = np.cumsum(self.lengths) - self.lengths
        sq = np.einsum("ij,ij->i", self.tokens, self.tokens, dtype=np.float64)
        self.norms = np.sqrt(np.maximum.reduceat(sq, self.starts))
        for i in np.flatnonzero(~np.isfinite(self.norms)):  # a finite norm has finite entries
            require_finite(self.doc(i), f"{name} {self.ids[i]} tokens")

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]

    def doc(self, i: int) -> np.ndarray:
        return self.tokens[self.starts[i]:self.starts[i] + self.lengths[i]]


def product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W.T, always as a matrix-matrix product: a one-row W gets a zero row appended and the
    first column of the product is returned. BLAS computes a one-column product as a
    matrix-vector product, which rounds X's last rows (M mod 4 in OpenBLAS) with another
    kernel, so a row's value would depend on how many rows follow it."""
    if len(W) == 1:
        return (X @ np.vstack([W, np.zeros_like(W)]).T)[:, :1]
    return X @ W.T


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
       When more than 2k entries a row reach the bound (on average), most
       tie at it (all-equal or few-valued scores), and of those only each
       row's first k by (id, position) go on: an entry at the bound behind
       k others at it cannot rank.

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
            hits = np.flatnonzero(flat >= bound)  # ~10x faster than 2-D nonzero
            if len(hits) > 2 * rows * k:  # mostly ties at the bound: keep only the ones that can rank
                by_row = ids.reshape(-1, n)
                hits = np.concatenate([_reach(flat[r], by_row[r], bound[r, 0], k) + r * n for r in range(rows)])
            # row-major, so equal keys keep their position order
            row, col = np.divmod(hits, n)
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


def _reach(scores: np.ndarray, ids: np.ndarray, bound, k: int) -> np.ndarray:
    """Ascending positions of the entries of one row above bound, and of the first k entries at
    bound by (id, position): an entry at bound behind k others at bound can never make the top k."""
    at = np.flatnonzero(scores == bound)
    if len(at) > k:
        key = ids[at]
        last = np.partition(key, k - 1)[k - 1]  # the k-th lowest id at the bound
        first = key < last
        first[np.flatnonzero(key == last)[:k - np.count_nonzero(first)]] = True
        at = at[first]
    return np.union1d(np.flatnonzero(scores > bound), at)
