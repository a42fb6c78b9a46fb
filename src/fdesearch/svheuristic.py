"""Single-vector heuristic baseline for multi-vector retrieval.

The classic workaround for Chamfer-style retrieval: pool every document
token into one flat index, fetch the k nearest tokens for each query
token by inner product, and read candidate documents off the owners of
those tokens. Candidates are ordered rank-major: all rank-1 hits for
query tokens 1..m, then all rank-2 hits, and so on. Optionally duplicate
document ids are dropped keeping the first occurrence.

The token search is exact on purpose: the baseline's cost model is
"floats touched", which an exact scan makes explicit -- every query token
reads all tokens times d floats (``TokenIndex.scan_cost``). The index
keeps the corpus dtype (float32 stays float32). A query is scanned with
one float32 product, and only the hits that product cannot rule out are
scored exactly, in float64 (``sv_candidates``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .util import TokenCorpus, as_matrix, top_k

_EXACT_BLOCK = 1 << 14  # (query token, index token) pairs scored exactly at once: bounds two (pairs, d) gathers


class TokenIndex(TokenCorpus):
    """A TokenCorpus scanned flat as one set of tokens, with the id of the document owning each."""

    def __init__(self, docs: Sequence, ids: Sequence[int] | None = None):
        super().__init__(docs, ids)
        self.owners = np.repeat(self.ids, self.lengths)  # (total_tokens,) doc id per token

    @property
    def num_tokens(self) -> int:
        return self.tokens.shape[0]

    def scan_cost(self, num_query_vectors: int) -> int:
        """Floats an exact scan touches for a query with that many tokens."""
        return int(num_query_vectors) * self.num_tokens * self.dim


def build_token_index(corpus: Sequence, doc_ids: Sequence[int] | None = None) -> TokenIndex:
    """Stack every document's tokens and remember which document owns each.

    The corpus is checked as a TokenCorpus: mixed widths, repeated doc ids
    and non-finite tokens raise ValueError. Its dtype is kept: the stack is
    float32 when every document is float32 (half the bytes of float64),
    else float64, so float64 input is not rounded.
    """
    return TokenIndex(corpus, doc_ids)


def sv_candidates(Q, index: TokenIndex, k_per_query: int, dedup: bool) -> list[int]:
    """Ordered candidate doc ids for one query.

    For each query token, the k_per_query nearest corpus tokens by inner
    product, ranked by (-dot, token position) as top_k ranks. The hits are
    interleaved rank-major and mapped to owning doc ids. With dedup, later
    repeats of a doc id are removed, keeping the first occurrence.
    k_per_query larger than the token count is clamped. Q is checked once,
    as a TokenCorpus: non-finite query tokens raise ValueError naming
    "query 0". Finite ones whose dots with the index tokens overflow raise
    ValueError naming the query token. The scan touches
    index.scan_cost(len(Q)) floats.

    A dot is one value: the float64 einsum of the query token with the
    index token widened to float64, the same whatever else is scored, so a
    query token's hits do not depend on the other tokens of its query. The
    scan (_screen) takes one float32 product of the query with the index
    and scores exactly only the pairs it cannot rule out. When the float32
    product could overflow, when k > n/2 for n index tokens, or when more
    than min(4k, n/2) tokens survive it for some query token (mass ties),
    every dot is scored exactly instead, one query token at a time. Memory
    stays one (m, n) float32 product plus O(n·d).
    """
    if k_per_query < 1:
        raise ValueError(f"k_per_query must be >= 1, got {k_per_query}")
    query = TokenCorpus([Q], name="query")
    if query.dim != index.dim:
        raise ValueError(f"dimension mismatch: query tokens have d={query.dim}, index has d={index.dim}")
    q = as_matrix(query.tokens)
    n = index.num_tokens
    k = min(k_per_query, n)
    top = _screen(q, index, k)
    if top is None:
        every = np.arange(n)
        top = np.empty((len(q), k), dtype=np.intp)
        for i in range(len(q)):
            dots = _dots(q, index.tokens, np.full(n, i), every)
            if not np.isfinite(dots).all():
                raise ValueError(f"query token {i} overflows its dots with the index tokens")
            top[i] = top_k(every, dots, k)
    hits = top.T.ravel()  # rank-major: rank 1 for all tokens, then rank 2, ...
    if dedup:  # keep each document's first hit: no sort, one pass over the hits
        doc, at = np.searchsorted(index.starts, hits, side="right") - 1, np.arange(len(hits))
        first = np.full(len(index), len(hits))
        np.minimum.at(first, doc, at)
        hits = hits[first[doc] == at]
    return index.owners[hits].tolist()


def _screen(q: np.ndarray, index: TokenIndex, k: int) -> np.ndarray | None:
    """(m, k) positions of each query token's best k index tokens, found through a float32 screen;
    None when the exact path must run instead.

    The screen S = q32 @ t32.T is within

        e_i = 2·(((d+5)·u·‖q_i‖ + ‖q_i − q32_i‖)·T + d·2⁻¹⁴⁹·‖q_i‖) + d·2⁻¹²⁰,   u = 2⁻²⁴,

    of every exact dot of query token i, T the largest index token norm: ExactScanBackend's bound
    (both sums' rounding, the rounding of q to float32, float32 products that underflow, a
    factor-2 margin), plus the rounding of a float64 index to float32 (one u, and d·2⁻¹⁴⁹ for
    tokens that round to subnormals). Row i's stripe peaks (the maxima of its positions j, j+w,
    j+2w, ..., w = min(n, 8k)) are screen values at w distinct positions, so their k-th best
    minus e_i bounds the row's k-th best exact dot from below; a pair whose screen value plus e_i
    lies below that is beaten by k pairs. The rest are scored exactly and ranked by (-dot, position).
    """
    (m, d), n, u = q.shape, index.num_tokens, 2.0 ** -24
    qn = np.sqrt(np.einsum("ij,ij->i", q, q))  # inf when a square overflows; einsum does not warn
    qmax, t = float(qn.max()), float(index.norms.max())  # Python floats overflow to inf silently
    cap = min(4 * k, n // 2)  # tokens a query token may keep; more mostly tie at the cut
    # norms and their products below 1e38 keep every float32 entry, product and partial sum finite
    if k > cap or d * u > 0.25 or not max(qmax, t, qmax * t) < 1e38:
        return None
    q32 = q.astype(np.float32)
    screen = q32 @ index.tokens.astype(np.float32, copy=False).T  # (m, n)
    slack = 2 * (((d + 5) * u * qn + np.linalg.norm(q - q32, axis=1)) * t + d * 2.0 ** -149 * qn)
    slack += d * 2.0 ** -120
    w = min(n, 8 * k)
    whole = n - n % w
    peaks = screen[:, :whole].reshape(m, -1, w).max(axis=1)
    np.maximum(peaks[:, :n - whole], screen[:, whole:], out=peaks[:, :n - whole])
    peaks.partition(w - k, axis=1)
    cut = peaks[:, w - k] - 2 * slack
    cut = np.nextafter(cut.astype(np.float32), np.float32(-np.inf))  # a float32 cut at or below it
    found = []
    for lo in range(0, m, 4):  # a few rows at a time: cache-sized masks, and no pass to count them
        found.append(np.flatnonzero(screen[lo:lo + 4] >= cut[lo:lo + 4, None]) + lo * n)
        if len(found[-1]) > 4 * cap:  # mostly ties: stop before their positions fill memory
            return None
    del screen
    row, col = np.divmod(np.concatenate(found), n)  # by row, then position
    counts = np.bincount(row, minlength=m)
    if counts.max() > cap:
        return None
    at = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    neg = np.full((m, counts.max()), np.inf)  # padding ranks last
    neg[row, at] = -_dots(q, index.tokens, row, col)
    pos = np.zeros(neg.shape, dtype=np.intp)
    pos[row, at] = col
    # a stable sort of each row ranks by (-dot, position), as top_k does
    return np.take_along_axis(pos, np.argsort(neg, axis=1, kind="stable")[:, :k], axis=1)


def _dots(q: np.ndarray, tokens: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """float64 dots of the query tokens rows with the index tokens cols, pair by pair: one einsum
    over contiguous float64 gathers, which gives a pair one value whatever else is scored (a BLAS
    product does not)."""
    out = np.empty(len(rows))
    for lo in range(0, len(rows), _EXACT_BLOCK):  # einsum overflows to inf or NaN without a warning
        pick = slice(lo, lo + _EXACT_BLOCK)
        np.einsum("ij,ij->i", q.take(rows[pick], axis=0),
                  tokens.take(cols[pick], axis=0).astype(np.float64, copy=False), out=out[pick])
    return out
