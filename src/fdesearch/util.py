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


def derive_rng(seed: int, purpose: int, rep: int = 0) -> np.random.Generator:
    """Return a Generator keyed by (seed, purpose, rep)."""
    return np.random.default_rng([int(seed), int(purpose), int(rep)])


def as_matrix(x) -> np.ndarray:
    """Coerce an array-like to a 2-D float64 matrix.

    Raises ValueError for anything that is not a nonempty (m, d) matrix
    with m >= 1 and d >= 1.
    """
    data = np.asarray(x, dtype=np.float64)
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


def top_k(ids, scores, k: int) -> np.ndarray:
    """Positions of the best min(k, n) entries along the last axis.

    The one ranking rule of the package: descending score, ties broken by
    ascending id. scores may be 2-D (one row per query); ids broadcast
    against it.
    """
    scores = np.asarray(scores)
    return np.lexsort((np.broadcast_to(ids, scores.shape), -scores), axis=-1)[..., :max(k, 0)]
