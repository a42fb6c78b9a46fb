"""Fixed dimensional encodings of token-embedding sets.

A set of vectors is turned into one fixed-length vector so that the dot
product of a query encoding with a document encoding approximates their
normalized Chamfer similarity, letting a plain MIPS index stand in for
multi-vector search.

Construction, per repetition:

1. every token is assigned to one of B clusters by a randomized partition
   (sign hashing by default, nearest-center optionally);
2. the query encoding stores, per cluster, the *sum* of the query tokens
   that landed there; the document encoding stores their *centroid*;
3. document clusters that received no token are optionally filled with the
   single document token whose hash has the fewest disagreeing bits
   (``fill_empty``); query clusters are never filled, an empty cluster
   stays a zero block;
4. each d-dimensional block may be reduced to d_proj dimensions by a
   seeded random +/-1 projection (identity when d_proj == d).

The R_reps repetitions are concatenated repetition-major (then cluster
index, then coordinate). Each repetition's blocks are scaled by
1/sqrt(R_reps) on both sides so that the query-document dot product is the
*average* of the per-repetition estimates; this keeps the dot product on
the similarity scale for every R_reps and does not affect ranking. An
optional final +/-1 projection reduces the concatenated vector to d_final.

All randomness is derived from (seed, purpose, repetition), so query and
document sides generated with equal configs share the same partitions and
projections, and generation order cannot change outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import (
    KMeansPartitioner,
    SimHashPartitioner,
    assign_many,
    kmeans_train,
    simhash_new,
)
from .util import FINAL_PROJ, INNER_PROJ, KMEANS_SAMPLE, as_matrix, derive_rng


@dataclass(frozen=True, eq=False)
class FdeConfig:
    """All knobs of the encoding.

    dim is the token embedding dimension d. d_proj=None means "no inner
    projection" (blocks keep d coordinates). fill_empty applies to the
    document side only. For partitioner="kmeans" the trained per-repetition
    partitioners must be attached (see with_kmeans_partitions); the number
    of clusters then comes from them instead of 2^k_sim.
    """

    dim: int
    k_sim: int = 4
    d_proj: int | None = None
    r_reps: int = 10
    d_final: int | None = None
    fill_empty: bool = True
    partitioner: str = "simhash"
    seed: int = 0
    kmeans_partitioners: tuple[KMeansPartitioner, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.partitioner not in ("simhash", "kmeans"):
            raise ValueError(f"partitioner must be 'simhash' or 'kmeans', got {self.partitioner!r}")
        if self.partitioner == "simhash" and not 1 <= self.k_sim <= 24:
            raise ValueError(f"k_sim must be in [1, 24], got {self.k_sim}")
        if self.r_reps < 1:
            raise ValueError(f"r_reps must be >= 1, got {self.r_reps}")
        if self.proj_dim > self.dim:
            raise ValueError(f"d_proj={self.d_proj} exceeds input dimension {self.dim}")
        if self.proj_dim < 1:
            raise ValueError(f"d_proj must be >= 1, got {self.d_proj}")
        if self.d_final is not None and self.d_final < 1:
            raise ValueError(f"d_final must be >= 1, got {self.d_final}")
        if self.kmeans_partitioners is not None:
            parts = self.kmeans_partitioners
            if len(parts) != self.r_reps:
                raise ValueError(f"need one k-means partitioner per repetition: got {len(parts)} for r_reps={self.r_reps}")
            bs = {p.num_clusters for p in parts}
            if len(bs) != 1:
                raise ValueError(f"k-means partitioners disagree on cluster count: {sorted(bs)}")
            if any(p.dim != self.dim for p in parts):
                raise ValueError("k-means partitioner dimension does not match config dim")

    @property
    def proj_dim(self) -> int:
        return self.dim if self.d_proj is None else self.d_proj

    @property
    def num_clusters(self) -> int:
        if self.partitioner == "simhash":
            return 1 << self.k_sim
        if self.kmeans_partitioners is None:
            raise ValueError("kmeans config has no trained partitioners attached")
        return self.kmeans_partitioners[0].num_clusters


@dataclass(frozen=True, eq=False)
class Fde:
    """A single dense encoding plus the side and config it came from."""

    values: np.ndarray
    side: str  # "query" | "doc"
    fingerprint: str


def fde_dim(config: FdeConfig) -> int:
    """Output dimension: d_final if set, else B * d_proj * R_reps."""
    raw = config.num_clusters * config.proj_dim * config.r_reps
    if config.d_final is None:
        return raw
    if config.d_final >= raw:
        raise ValueError(f"d_final={config.d_final} must be < the unprojected dimension {raw}")
    return config.d_final


PARAM_NAMES = tuple(f.name for f in dataclasses.fields(FdeConfig) if f.name != "kmeans_partitioners")


def config_params(config: FdeConfig) -> dict:
    """The scalar parameters of config in declaration order, d_proj resolved.

    This is the one list that fingerprints, index headers, run metadata,
    ``inspect`` output and build presets are derived from; trained k-means
    partitioners are not parameters and are left out.
    """
    params = {name: getattr(config, name) for name in PARAM_NAMES}
    params["d_proj"] = config.proj_dim
    return params


def config_fingerprint(config: FdeConfig) -> str:
    """Short stable digest of every parameter that affects the encoding."""
    h = hashlib.sha256()
    h.update(";".join(f"{k}={v}" for k, v in config_params(config).items()).encode())
    if config.kmeans_partitioners is not None:
        for p in config.kmeans_partitioners:
            h.update(np.ascontiguousarray(p.centers, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def train_kmeans_partitions(tokens, b: int, r_reps: int, seed: int,
                            max_tokens: int | None = 100_000) -> tuple[KMeansPartitioner, ...]:
    """Train one nearest-center partitioner per repetition.

    tokens is the pool of token embeddings (typically all corpus tokens
    stacked). Each repetition trains on its own seeded sample of up to
    max_tokens rows; pass max_tokens=None to train every repetition on the
    full pool.
    """
    pool = as_matrix(tokens)
    parts = []
    for rep in range(r_reps):
        sample = pool
        if max_tokens is not None and pool.shape[0] > max_tokens:
            sel = derive_rng(seed, KMEANS_SAMPLE, rep).choice(pool.shape[0], size=max_tokens, replace=False)
            sample = pool[np.sort(sel)]
        parts.append(kmeans_train(sample, b, seed, rep=rep))
    return tuple(parts)


def with_kmeans_partitions(config: FdeConfig, tokens, b: int,
                           max_tokens: int | None = 100_000) -> FdeConfig:
    """Return a copy of config using k-means partitions trained on tokens."""
    parts = train_kmeans_partitions(tokens, b, config.r_reps, config.seed, max_tokens=max_tokens)
    return dataclasses.replace(config, partitioner="kmeans", kmeans_partitioners=parts)


def partitioner_for_rep(config: FdeConfig, rep: int):
    if config.partitioner == "simhash":
        return simhash_new(config.k_sim, config.dim, config.seed, rep)
    if config.kmeans_partitioners is None:
        raise ValueError("kmeans config has no trained partitioners attached")
    return config.kmeans_partitioners[rep]


def projection_matrix(config: FdeConfig, rep: int) -> np.ndarray | None:
    """The (d_proj, d) +/-1 matrix for one repetition, or None when identity."""
    t, d = config.proj_dim, config.dim
    if t == d:
        return None
    rng = derive_rng(config.seed, INNER_PROJ, rep)
    return (rng.integers(0, 2, size=(t, d), dtype=np.int8) * 2 - 1).astype(np.float64)


def inner_project(x, rep: int, config: FdeConfig) -> np.ndarray:
    """Apply one repetition's block projection to a single d-vector."""
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim != 1 or xa.shape[0] != config.dim:
        raise ValueError(f"expected a vector of dimension {config.dim}, got shape {xa.shape}")
    S = projection_matrix(config, rep)
    if S is None:
        return xa.copy()
    return (S @ xa) / np.sqrt(config.proj_dim)


def _final_matrix(in_dim: int, d_final: int, seed: int) -> np.ndarray:
    rng = derive_rng(seed, FINAL_PROJ, 0)
    return rng.integers(0, 2, size=(d_final, in_dim), dtype=np.int8) * 2 - 1


def final_project_many(V, d_final: int, seed: int) -> np.ndarray:
    """Project rows of V from their dimension down to d_final."""
    Va = as_matrix(V)
    in_dim = Va.shape[1]
    if d_final >= in_dim:
        raise ValueError(f"d_final={d_final} must be < input dimension {in_dim}")
    if d_final < 1:
        raise ValueError(f"d_final must be >= 1, got {d_final}")
    S = _final_matrix(in_dim, d_final, seed)
    out = np.empty((Va.shape[0], d_final), dtype=np.float64)
    block = max(1, min(d_final, (1 << 21) // max(in_dim, 1)))  # bound the f64 slice of S
    for j in range(0, d_final, block):
        out[:, j:j + block] = Va @ S[j:j + block].T.astype(np.float64)
    out /= np.sqrt(d_final)
    return out


def _encode_batch(matrices: Sequence[np.ndarray], side: str, config: FdeConfig,
                  partitioners: Sequence | None = None) -> np.ndarray:
    """Shared query/document encoder over a batch of token matrices."""
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        raise ValueError("no inputs to encode")
    for m in mats:
        if m.shape[1] != config.dim:
            raise ValueError(f"dimension mismatch: tokens have d={m.shape[1]}, config.dim={config.dim}")
    if partitioners is not None and len(partitioners) != config.r_reps:
        raise ValueError(f"need one partitioner per repetition, got {len(partitioners)}")

    b = partitioners[0].num_clusters if partitioners is not None else config.num_clusters
    t = config.proj_dim
    r = config.r_reps
    raw_dim = b * t * r
    scale = 1.0 / np.sqrt(r)
    fill = config.fill_empty and side == "doc"

    stacked = np.vstack(mats)
    bounds = np.cumsum([0] + [m.shape[0] for m in mats])
    out = np.zeros((len(mats), raw_dim), dtype=np.float64)

    for rep in range(r):
        part = partitioners[rep] if partitioners is not None else partitioner_for_rep(config, rep)
        if part.num_clusters != b:
            raise ValueError("partitioners disagree on cluster count")
        idx_all = assign_many(part, stacked)
        S = projection_matrix(config, rep)
        proj_all = stacked if S is None else (stacked @ S.T) / np.sqrt(t)

        base = rep * b * t
        for j in range(len(mats)):
            lo, hi = bounds[j], bounds[j + 1]
            idx = idx_all[lo:hi]
            proj = proj_all[lo:hi]
            acc = np.zeros((b, t), dtype=np.float64)
            np.add.at(acc, idx, proj)
            if side == "doc":
                counts = np.bincount(idx, minlength=b)
                nonempty = counts > 0
                acc[nonempty] /= counts[nonempty, None]
                if fill and not nonempty.all():
                    empty = np.flatnonzero(~nonempty)
                    if isinstance(part, SimHashPartitioner):
                        dist = np.bitwise_count(idx[:, None] ^ empty[None, :])  # Hamming distances
                    else:
                        ec = part.centers[empty]
                        pts = stacked[lo:hi]
                        dist = (np.sum(pts * pts, axis=1)[:, None]
                                - 2.0 * (pts @ ec.T) + np.sum(ec * ec, axis=1)[None, :])
                    nearest = np.argmin(dist, axis=0)  # ties -> lowest token index
                    acc[empty] = proj[nearest]
            out[j, base:base + b * t] = acc.ravel()
    out *= scale
    if config.d_final is not None:
        out = final_project_many(out, config.d_final, config.seed)
    return out


def generate_query_fdes(queries: Sequence, config: FdeConfig,
                        partitioners: Sequence | None = None) -> np.ndarray:
    """Encode a batch of queries; returns an (n, fde_dim) matrix."""
    return _encode_batch(queries, "query", config, partitioners)


def generate_doc_fdes(docs: Sequence, config: FdeConfig,
                      partitioners: Sequence | None = None) -> np.ndarray:
    """Encode a batch of documents; returns an (n, fde_dim) matrix."""
    return _encode_batch(docs, "doc", config, partitioners)


def generate_query_fde(Q, config: FdeConfig, partitioners: Sequence | None = None) -> Fde:
    """Encode one query. Empty clusters stay zero blocks; never filled."""
    values = _encode_batch([Q], "query", config, partitioners)[0]
    return Fde(values=values, side="query", fingerprint=config_fingerprint(config))


def generate_doc_fde(P, config: FdeConfig, partitioners: Sequence | None = None) -> Fde:
    """Encode one document (centroids per cluster, empty-cluster fill per config)."""
    values = _encode_batch([P], "doc", config, partitioners)[0]
    return Fde(values=values, side="doc", fingerprint=config_fingerprint(config))
