"""Single-vector heuristic baseline for multi-vector retrieval.

The classic workaround for Chamfer-style retrieval: pool every document
token into one flat index, fetch the k nearest tokens for each query
token by inner product, and read candidate documents off the owners of
those tokens. Candidates are ordered rank-major: all rank-1 hits for
query tokens 1..m, then all rank-2 hits, and so on. Optionally duplicate
document ids are dropped keeping the first occurrence.

The token search is an exact scan on purpose: the baseline's cost model
is "floats touched", which the exact scan makes explicit -- every query
token reads all tokens times d floats (``TokenIndex.scan_cost``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .util import TokenCorpus, as_matrix, require_finite, top_k


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
    """Stack every document's tokens (in float64) and remember which document owns each.

    The corpus is checked as a TokenCorpus: mixed widths, repeated doc ids
    and non-finite tokens raise ValueError.
    """
    return TokenIndex([as_matrix(p) for p in corpus], doc_ids)


def sv_candidates(Q, index: TokenIndex, k_per_query: int, dedup: bool) -> list[int]:
    """Ordered candidate doc ids for one query.

    For each query token, the k_per_query nearest corpus tokens by inner
    product (exact scan; ties go to the lower token position). The hits
    are interleaved rank-major and mapped to owning doc ids. With dedup,
    later repeats of a doc id are removed, keeping the first occurrence.
    k_per_query larger than the token count is clamped. Non-finite query
    tokens, and finite ones whose dots with the index tokens overflow, raise
    ValueError. The scan touches index.scan_cost(len(Q)) floats.
    """
    if k_per_query < 1:
        raise ValueError(f"k_per_query must be >= 1, got {k_per_query}")
    Qa = require_finite(as_matrix(Q), "query tokens")
    if Qa.shape[1] != index.dim:
        raise ValueError(f"dimension mismatch: query tokens have d={Qa.shape[1]}, index has d={index.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        dots = Qa @ index.tokens.astype(np.float64, copy=False).T  # (m, total_tokens)
    # Cauchy-Schwarz: below 1e300 no product or partial sum of a dot can overflow (Python floats:
    # their product overflows to inf without a warning)
    if not float(TokenCorpus([Qa]).norms[0]) * float(index.norms.max()) < 1e300:
        bad = np.flatnonzero(~np.isfinite(dots).all(axis=1))
        if bad.size:
            raise ValueError(f"query token {bad[0]} overflows its dots with the index tokens")
    top = top_k(np.arange(index.num_tokens), dots, k_per_query)  # (m, k); ties by token position
    interleaved = index.owners[top.T.ravel()]  # rank-major: rank 1 for all tokens, then rank 2, ...
    if dedup:
        _, first = np.unique(interleaved, return_index=True)
        interleaved = interleaved[np.sort(first)]
    return interleaved.tolist()
