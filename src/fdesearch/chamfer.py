"""Exact Chamfer / normalized Chamfer similarity and a brute-force top-k.

Chamfer similarity between two sets of vectors Q and P is

    sum over q in Q of  max over p in P of  <q, p>

i.e. every query token is matched to its best document token and the
winning inner products are summed (also known as MaxSim). It is
asymmetric in its arguments. ``nchamfer`` divides by |Q|, which keeps the
value in [-1, 1] for unit-norm rows and does not change document ranking
for a fixed query.

``chamfer`` is the ground-truth reference that the approximate encoding
pipeline is measured against, and the only source of exact scores: scores
are accumulated in float64 regardless of input dtype. ``chamfer_top_k``
ranks many documents by it, screening them first with a float32 pass that
provably cannot drop a document of the exact top k.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .util import as_matrices, as_matrix, shortlist, top_k

SCREEN_BLOCK = 1 << 21  # entries per screening block: bounds its (tokens, d) gather and (m, tokens) dots


class TokenCorpus:
    """Token matrices stacked into one (T, d) matrix, float32 when every document is float32, else
    float64. doc(i) is a view; norms[i] is document i's largest token norm in float64 (not finite
    when the document has a non-finite entry, or float64 entries whose squares overflow)."""

    def __init__(self, docs: Sequence):
        mats = as_matrices(docs)
        if not mats:
            raise ValueError("corpus is empty")
        self.tokens = np.concatenate(mats)  # float32 only when every document is
        self.lengths = np.array([m.shape[0] for m in mats])
        self.starts = np.cumsum(self.lengths) - self.lengths
        sq = np.einsum("ij,ij->i", self.tokens, self.tokens, dtype=np.float64)
        self.norms = np.sqrt(np.maximum.reduceat(sq, self.starts))

    def __len__(self) -> int:
        return len(self.lengths)

    def doc(self, i: int) -> np.ndarray:
        return self.tokens[self.starts[i]:self.starts[i] + self.lengths[i]]


def chamfer(Q, P) -> float:
    """Sum over rows of Q of the max inner product against rows of P."""
    q = as_matrix(Q)
    p = as_matrix(P)
    if q.shape[1] != p.shape[1]:
        raise ValueError(f"dimension mismatch: Q has d={q.shape[1]}, P has d={p.shape[1]}")
    sims = q @ p.T
    return float(sims.max(axis=1).sum())


def nchamfer(Q, P) -> float:
    """chamfer(Q, P) divided by the number of rows of Q."""
    q = as_matrix(Q)
    return chamfer(q, P) / q.shape[0]


def chamfer_top_k(Q, corpus: TokenCorpus, rows, ids, k: int) -> list:
    """The best min(k, len(rows)) of the documents at positions rows by chamfer(Q, doc), as
    (ids[i], score) pairs ranked by top_k: bit for bit, every document scored with chamfer and sorted.

    A float32 screen (q32 @ G.T over the gathered tokens, np.maximum.reduceat per document, a
    float64 sum over the m query tokens; blocks of about SCREEN_BLOCK entries) is within

        e_j = 2·(c·N + D)·P_j + 2·(N + D + m)·d·2⁻¹⁴⁹,   c = (d+4)·2⁻²⁴ + (d+2m)·2⁻⁵³,

    of chamfer(Q, doc j); N = Σ‖q_i‖, D = Σ‖q_i − q32_i‖, P_j the largest token norm of document
    j. It covers the float32 rounding of Q and of a float64 corpus, the float32 dots (underflow
    included), the float64 dots in chamfer and the float64 sums over query tokens, with a factor-2
    margin, for d·2⁻²⁴ ≤ 1/4. Only the documents util.shortlist keeps are scored with chamfer;
    all are when the screen is not finite (overflow, a non-finite token) or d·2⁻²⁴ > 1/4, and
    when k ≥ len(rows), where the screen is skipped because it could drop none.
    """
    q = as_matrix(Q)
    m, d = q.shape
    if d != corpus.tokens.shape[1]:
        raise ValueError(f"dimension mismatch: Q has d={d}, P has d={corpus.tokens.shape[1]}")
    rows, ids = np.asarray(rows, dtype=np.intp), np.asarray(ids, dtype=np.int64)
    if k >= len(rows):
        keep = slice(None)
    else:
        starts = np.cumsum(corpus.lengths[rows]) - corpus.lengths[rows]
        blocks = np.split(rows, np.flatnonzero(np.diff(starts // max(1, SCREEN_BLOCK // max(m, d)))) + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite screen rescores every document
            q32 = q.astype(np.float32)
            approx = np.concatenate([_screen(q32, corpus, block) for block in blocks])
            c = (d + 4) * 2.0 ** -24 + (d + 2 * m) * 2.0 ** -53 if d * 2.0 ** -24 <= 0.25 else np.inf
            n, dq = np.linalg.norm(q, axis=1).sum(), np.linalg.norm(q - q32, axis=1).sum()
            slack = 2 * (c * n + dq) * corpus.norms[rows] + 2 * (n + dq + m) * d * 2.0 ** -149
        keep = shortlist(approx, slack, k)
    ids = ids[keep]
    scores = np.array([chamfer(q, corpus.doc(r)) for r in rows[keep]])
    return [(int(ids[i]), float(scores[i])) for i in top_k(ids, scores, k)]


def _screen(q32: np.ndarray, corpus: TokenCorpus, rows: np.ndarray) -> np.ndarray:
    """float32 Chamfer scores of the documents at rows, summed over query tokens in float64."""
    lengths = corpus.lengths[rows]
    offsets = np.cumsum(lengths) - lengths
    gather = np.repeat(corpus.starts[rows] - offsets, lengths) + np.arange(offsets[-1] + lengths[-1])
    # take: ~1.7x faster than fancy indexing; (m, tokens): reduceat runs along rows
    sims = q32 @ corpus.tokens.take(gather, axis=0).astype(np.float32, copy=False).T
    return np.maximum.reduceat(sims, offsets, axis=1).sum(axis=0, dtype=np.float64)


def brute_force_topk(Q, corpus: Sequence, k: int, doc_ids: Sequence[int] | None = None):
    """Exact Chamfer nearest neighbors of Q over a corpus (token matrices or a TokenCorpus).

    Returns the min(k, n) highest-scoring documents as (doc_id, score)
    pairs, sorted by descending score with ties broken by ascending
    doc_id; chamfer_top_k over every document.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tokens = corpus if isinstance(corpus, TokenCorpus) else TokenCorpus(corpus)  # raises when empty
    n = len(tokens)
    ids = np.asarray(range(n) if doc_ids is None else [int(i) for i in doc_ids], dtype=np.int64)
    if len(ids) != n:
        raise ValueError(f"got {len(ids)} doc ids for {n} documents")
    return chamfer_top_k(Q, tokens, np.arange(n), ids, k)
