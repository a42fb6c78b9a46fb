"""Shared helpers: deterministic RNG derivation, input checks, token sets and ranking.

Every random draw in the library flows through :func:`derive_rng` so that
a (seed, purpose, repetition) triple fully determines the draw, no matter
in which order callers ask for it. Purpose tags keep the hyperplanes,
projection matrices, k-means initializations etc. of one seed independent
of each other.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

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

# multiply-adds in one chunk of a product: OpenBLAS 0.3.31 runs a call of at most 2^18 of them on
# the calling thread, without its thread pool (product, _row_chunks)
_PRODUCT_MACS = 1 << 18
# most threads _run_pool runs: each holds its own buffers and temporaries and its own glibc malloc
# arena, so a peak grows with the thread count; the speed-ups and peaks were measured on 2 CPUs only
_MAX_WORKERS = 2


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


def _chunk_count(rows: int, macs_per_row: int) -> int:
    """How many row chunks _row_chunks cuts a product of that many rows of macs_per_row multiply-adds into."""
    most = _PRODUCT_MACS // macs_per_row  # rows a chunk holds at most
    least = max(2, -(-(_PRODUCT_MACS // 2) // macs_per_row))  # rows a split chunk holds at least
    return max(1, min(-(-rows // most), rows // least)) if most >= least else 1


def _row_chunks(rows: int, macs_per_row: int) -> list[int]:
    """Bounds of the row chunks of a product of that many rows of macs_per_row multiply-adds each.

    A chunk holds at most _PRODUCT_MACS multiply-adds when it can, so that OpenBLAS runs it on the
    calling thread, and a split chunk at least _PRODUCT_MACS / 2 and two rows, so that it rounds
    like the whole product. The chunk sizes differ by at most one row.
    """
    chunks = _chunk_count(rows, macs_per_row)
    return [rows * i // chunks for i in range(chunks + 1)]


def _strip_entries(rows: int, cols: int, depth: int) -> int:
    """Entries of the largest row chunk of a product of that many rows with 1 to cols columns of
    depth multiply-adds each: a strip buffer this long holds any chunk of any of them."""
    return max(-(-rows // _chunk_count(rows, k * depth)) * k for k in range(1, cols + 1))


def product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W.T, bit for bit, multiplied in the row chunks of _row_chunks.

    A chunk of at most _PRODUCT_MACS multiply-adds runs on the calling thread, where a larger
    OpenBLAS call would start its thread pool and leave the pool spinning for ~0.1 s of CPU
    after it returns. A chunk of more than 38 400 multiply-adds rounds each row as the whole
    product does (below that OpenBLAS takes its small-matrix kernel); split chunks keep at
    least _PRODUCT_MACS / 2. A one-row W gets a zero row appended and the first column of the
    product is returned: BLAS computes a one-column product as a matrix-vector product, which
    rounds X's last rows (M mod 4 in OpenBLAS) with another kernel, so a row's value would
    depend on how many rows follow it. The bounds were measured on OpenBLAS 0.3.31 (SkylakeX
    kernels).
    """
    one = len(W) == 1
    if one:
        W = np.vstack([W, np.zeros_like(W)])
    # one chunk, as most products of a served query: a plain call. Going through the chunk loop
    # made a 20-repetition query's encoding 0.39 -> 0.58 ms and pq-1k's p50 4% slower (2 vCPU)
    if len(X) * W.size <= _PRODUCT_MACS:
        out = X @ W.T
    else:
        bounds = _row_chunks(len(X), W.size)
        out = np.empty((len(X), len(W)), dtype=np.result_type(X, W))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            np.matmul(X[lo:hi], W.T, out=out[lo:hi])
    return out[:, :1] if one else out


def _workers() -> int:
    """Threads of _run_pool: the CPUs this process may run on, at most _MAX_WORKERS (tests patch it)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _run_pool(fn: Callable, items: Sequence, scratch: Callable = lambda: None) -> None:
    """Call fn(item, buffers) for every item: on _workers() threads when each thread gets at least
    two items, else in order on the calling thread.

    Each thread gets its own buffers = scratch(), all made here on the calling thread, so that
    large buffers come from the caller's heap and not from a worker's malloc arena; the threads
    pull items from one shared iterator. Each call runs in its own copy of the caller's context,
    so numpy's errstate (a context variable) holds in the workers as in the caller. The calls
    must write disjoint outputs. When some fail, the first failing item's error is raised once
    every call has returned.
    """
    workers = min(_workers(), len(items) // 2)
    if workers < 2:
        buffers = scratch()
        for item in items:
            fn(item, buffers)
        return
    context, todo, lock, failed = contextvars.copy_context(), iter(enumerate(items)), threading.Lock(), {}

    def work(buffers) -> None:
        while True:
            with lock:
                nxt = next(todo, None)
            if nxt is None:
                return
            try:
                context.copy().run(fn, nxt[1], buffers)
            except Exception as error:  # raised below, once every call has returned
                failed[nxt[0]] = error

    with ThreadPoolExecutor(workers) as pool:
        done = [pool.submit(work, buffers) for buffers in [scratch() for _ in range(workers)]]
    for future in done:
        future.result()
    if failed:
        raise failed[min(failed)]


def _screen_slack(d: int, n, dq, r, rounded: bool, m: int):
    """How far a float32 screen can be from the float64 value it screens for: the one bound of the
    package's three float32 screens (ExactScanBackend, chamfer_top_k, the token baseline's scan).

    The screen rounds m query tokens q_i to q32_i = float32(q_i), and a row x to x32 = float32(x)
    when rounded (else x is float32 already). It takes each dot q32_i·x32 in float32, in any order,
    fused or not, optionally the maximum of such dots over a document's rows, and sums the m
    results in float64. The float64 value takes the float64 dots q_i·x instead. For rows of norm
    at most r, the two differ by at most

        e = 2·(c·n + dq)·r + 2·(m + ρ·(n + dq))·d·2⁻¹⁴⁹,   c = (d+4+ρ)·u + (d+2m)·2⁻⁵³,   u = 2⁻²⁴,

    where n = Σ‖q_i‖, dq = Σ‖q_i − q32_i‖ and ρ = 1 for rounded rows. With η = 2⁻¹⁵⁰, the largest
    error of rounding into float32's subnormal range, and γ = d·u/(1 − d·u) ≤ (4/3)·d·u, one
    query token's dot moves by at most:
    - the float32 dot: γ·‖q32_i‖·‖x32‖ + d·η, as each of the d products may land on the
      subnormal grid (sums of subnormals are exact);
    - the rounding of the query: ‖q_i − q32_i‖·‖x32‖;
    - the rounding of a rounded row: ‖q_i‖·(u·‖x‖ + √d·η);
    - the float64 dot: 1.01·d·2⁻⁵³·‖q_i‖·‖x‖ (its underflow, below d·2⁻¹⁰⁷⁵, is under the floor);
    with ‖q32_i‖ ≤ ‖q_i‖ + ‖q_i − q32_i‖ and ‖x32‖ ≤ (1 + ρ·u)·‖x‖ + ρ·√d·η. A maximum over
    rows moves by at most the largest of their moves. The two float64 sums of m terms add at most
    1.01·m·2⁻⁵³ times their magnitudes, at most 1.34·n·r to first order. Summed over the query
    tokens, the first-order terms come to (4/3·d·u + ρ·u + 1.4·(d + 2m)·2⁻⁵³)·n·r + 1.34·dq·r +
    (m + ρ·(n + dq))·d·η. e exceeds that: its factor 2 covers the 4/3, and the 4u of c the
    second-order terms and the float64 rounding of n, dq, r and e themselves.

    The bound needs d·u ≤ 1/4. Beyond that the slack is inf, as it is when n, dq or r overflow:
    a screen then rescores every row. n, dq and r may be arrays; they broadcast.
    """
    if d * 2.0 ** -24 > 0.25:
        return np.inf
    c = (d + 4 + rounded) * 2.0 ** -24 + (d + 2 * m) * 2.0 ** -53
    return 2 * (c * n + dq) * r + 2 * (m + rounded * (n + dq)) * d * 2.0 ** -149


def _stripe_bound(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th best stripe maximum, a lower bound on its k-th best score (0 < k <= n; NaN
    when fewer than k stripes hold a number). A row is cut into w = min(n, 8k) stripes (positions
    j, j+w, j+2w, ...), whose NaN-ignoring maxima are entries at w distinct positions of the row,
    so at least k entries reach their k-th best."""
    rows, n = scores.shape
    w = min(n, 8 * k)
    whole = n - n % w
    # one reduce over the stripes of a (rows, n//w, w) view: ~4x faster than max over short blocks
    peaks = np.fmax.reduce(scores[:, :whole].reshape(rows, -1, w), axis=1)
    np.fmax(peaks[:, :n - whole], scores[:, whole:], out=peaks[:, :n - whole])
    np.negative(peaks, out=peaks)
    peaks.partition(k - 1, axis=1)  # partition puts NaN last, as the ranking does
    return -peaks[:, k - 1]


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

    1. The k-th best of its stripe maxima (_stripe_bound) is a lower bound
       on the row's k-th best score: at least k entries reach it.
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
        rows = len(flat)
        bound = _stripe_bound(flat, k)[:, None]
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
