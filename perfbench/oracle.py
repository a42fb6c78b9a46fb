"""Independent exact Chamfer 1-NN, the yardstick for recall_1nn_at10.

Vectorized on purpose and free of fdesearch.chamfer, so that a change to
the library's Chamfer code cannot move its own yardstick: all corpus
tokens are stacked once, each query takes one matmul against them, and
np.maximum.reduceat takes the per-document maxima.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fdesearch import chamfer_one_nn

TIE_RTOL = 1e-9  # two scores this close are a tie that summation order may break either way


class ChamferOracle:
    """Exact Chamfer scores of a query against every document of a corpus."""

    def __init__(self, corpus: Sequence[np.ndarray]):
        self.tokens = np.vstack(corpus).astype(np.float64)
        self.starts = np.cumsum([0] + [len(m) for m in corpus[:-1]])

    def scores(self, Q) -> np.ndarray:
        sims = np.asarray(Q, dtype=np.float64) @ self.tokens.T  # (|Q|, total tokens)
        return np.maximum.reduceat(sims, self.starts, axis=1).sum(axis=0)

    def one_nn(self, Q) -> int:
        """Position of the best document; argmax takes the lowest on ties."""
        return int(np.argmax(self.scores(Q)))


def cross_check(oracle: ChamferOracle, Q, corpus: Sequence, expected: int) -> str | None:
    """Compare the oracle's 1-NN of Q with fdesearch's chamfer_one_nn.

    Returns None when they agree or when the two picks' exact scores tie
    within TIE_RTOL; else a message.
    """
    ref = chamfer_one_nn([Q], corpus)[0]
    if ref == expected:
        return None
    scores = oracle.scores(Q)
    a, b = scores[expected], scores[ref]
    if abs(a - b) <= TIE_RTOL * max(1.0, abs(a)):
        return None
    return f"oracle 1-NN {expected} (score {a!r}) != chamfer_one_nn {ref} (score {b!r})"
