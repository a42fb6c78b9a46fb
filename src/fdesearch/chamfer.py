"""Exact Chamfer / normalized Chamfer similarity and a brute-force top-k.

Chamfer similarity between two sets of vectors Q and P is

    sum over q in Q of  max over p in P of  <q, p>

i.e. every query token is matched to its best document token and the
winning inner products are summed (also known as MaxSim). It is
asymmetric in its arguments. ``nchamfer`` divides by |Q|, which keeps the
value in [-1, 1] for unit-norm rows and does not change document ranking
for a fixed query.

Everything in this module is exact and deliberately simple; it is the
ground-truth reference that the approximate encoding pipeline is measured
against. Scores are accumulated in float64 regardless of input dtype.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .util import as_matrix, top_k


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


def brute_force_topk(Q, corpus: Sequence, k: int, doc_ids: Sequence[int] | None = None):
    """Exact Chamfer nearest neighbors of Q over a corpus.

    Returns the min(k, n) highest-scoring documents as (doc_id, score)
    pairs, sorted by descending score with ties broken by ascending
    doc_id. Slow by design: every document is scored.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(corpus)
    if n == 0:
        raise ValueError("corpus is empty")
    ids = np.asarray(range(n) if doc_ids is None else [int(i) for i in doc_ids], dtype=np.int64)
    if len(ids) != n:
        raise ValueError(f"got {len(ids)} doc ids for {n} documents")
    scores = np.array([chamfer(Q, P) for P in corpus])
    return [(int(ids[i]), float(scores[i])) for i in top_k(ids, scores, k)]
