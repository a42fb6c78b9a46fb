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
   (``fill_empty``; nearest-center: the token nearest the cluster's
   center), ties to the lowest token. With sign hashing a cluster id is a
   hash value, so the fill walks the hash values 1, 2, ... bits away from
   the cluster while that costs fewer lookups than pairing the cluster
   with every token of its document, and pairs them after that; query
   clusters are never filled, an empty cluster stays a zero block;
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
projections, and generation order cannot change outputs. A config draws
it once, on first use, and every later encoding reuses the draws.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import (
    MAX_K_SIM,
    KMeansPartitioner,
    assign_with_dists,
    kmeans_train,
    simhash_new,
)
from .util import FINAL_PROJ, INNER_PROJ, KMEANS_SAMPLE, TokenCorpus, as_matrix, derive_rng, product


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
        if self.partitioner == "simhash" and not 1 <= self.k_sim <= MAX_K_SIM:
            raise ValueError(f"k_sim must be in [1, {MAX_K_SIM}], got {self.k_sim}")
        if self.r_reps < 1:
            raise ValueError(f"r_reps must be >= 1, got {self.r_reps}")
        if self.proj_dim > self.dim:
            raise ValueError(f"d_proj={self.d_proj} exceeds input dimension {self.dim}")
        if self.proj_dim < 1:
            raise ValueError(f"d_proj must be >= 1, got {self.d_proj}")
        if self.d_final is not None and self.d_final < 1:
            raise ValueError(f"d_final must be >= 1, got {self.d_final}")
        if self.kmeans_partitioners is not None:
            if self.partitioner != "kmeans":
                raise ValueError(f"k-means partitioners need partitioner='kmeans', got {self.partitioner!r}")
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

    @functools.cached_property
    def _draws(self) -> tuple[tuple, np.ndarray | None]:
        """Each repetition's (partitioner, projection or None), and the final matrix or None.

        Drawn on first use and kept: the config is frozen, so they cannot go
        stale. Concurrent first uses draw the same values, so a race only
        repeats the work.
        """
        reps = tuple((partitioner_for_rep(self, rep), projection_matrix(self, rep)) for rep in range(self.r_reps))
        raw = self.num_clusters * self.proj_dim * self.r_reps
        return reps, None if self.d_final is None else _final_matrix(raw, self.d_final, self.seed)


@dataclass(frozen=True, eq=False)
class Fde:
    """One query encoding plus the fingerprint of the config it came from."""

    values: np.ndarray
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


def with_kmeans_partitions(config: FdeConfig, tokens, b: int,
                           max_tokens: int | None = 100_000) -> FdeConfig:
    """Return a copy of config using k-means partitions trained on tokens.

    tokens is the pool of token embeddings (typically all corpus tokens
    stacked). Each repetition trains B centers on its own seeded sample of
    up to max_tokens rows; pass max_tokens=None to train every repetition
    on the full pool. A float32 pool stays float32: only the rows a
    repetition samples are widened, by its training.
    """
    pool = as_matrix(tokens, None)
    parts = []
    for rep in range(config.r_reps):
        sample = pool
        if max_tokens is not None and pool.shape[0] > max_tokens:
            sel = derive_rng(config.seed, KMEANS_SAMPLE, rep).choice(pool.shape[0], size=max_tokens, replace=False)
            sample = pool[np.sort(sel)]
        parts.append(kmeans_train(sample, b, config.seed, rep=rep))
    return dataclasses.replace(config, partitioner="kmeans", kmeans_partitioners=tuple(parts))


def partitioner_for_rep(config: FdeConfig, rep: int):
    """Draw one repetition's partitioner; the encoder reads config._draws, which calls this once."""
    if config.partitioner == "simhash":
        return simhash_new(config.k_sim, config.dim, config.seed, rep)
    if config.kmeans_partitioners is None:
        raise ValueError("kmeans config has no trained partitioners attached")
    return config.kmeans_partitioners[rep]


def projection_matrix(config: FdeConfig, rep: int) -> np.ndarray | None:
    """Draw the (d_proj, d) +/-1 matrix for one repetition, or None when identity."""
    t, d = config.proj_dim, config.dim
    if t == d:
        return None
    rng = derive_rng(config.seed, INNER_PROJ, rep)
    return (rng.integers(0, 2, size=(t, d), dtype=np.int8) * 2 - 1).astype(np.float64)


def _final_matrix(in_dim: int, d_final: int, seed: int) -> np.ndarray:
    """Draw the (d_final, in_dim) int8 +/-1 final projection."""
    if d_final >= in_dim:
        raise ValueError(f"d_final={d_final} must be < input dimension {in_dim}")
    rng = derive_rng(seed, FINAL_PROJ, 0)
    return rng.integers(0, 2, size=(d_final, in_dim), dtype=np.int8) * 2 - 1


def _final_project(Va: np.ndarray, S: np.ndarray) -> np.ndarray:
    d_final, in_dim = S.shape
    out = np.empty((Va.shape[0], d_final), dtype=np.float64)
    block = max(1, min(d_final, (1 << 21) // in_dim))  # bound the f64 slice of S
    for j in range(0, d_final, block):
        out[:, j:j + block] = Va @ S[j:j + block].T.astype(np.float64)
    out /= np.sqrt(d_final)
    return out


BLOCK_TOKENS = 1 << 14  # tokens per block of documents; keeps the per-cell temporaries cache-sized
# fewest stacked tokens a block's hash and projection products run over (see _encode): at this size
# OpenBLAS rounds each row of a product with two or more columns as the whole-stack product does
_PRODUCT_ROWS = 1 << 12


def _fill_tokens(empty: np.ndarray, b: int, starts: np.ndarray, lengths: np.ndarray,
                 idx: np.ndarray, d2: np.ndarray | None) -> np.ndarray:
    """Token filling each empty (document, cluster) cell ``empty`` (doc * b + cluster), pairwise.

    Each cell is paired with its own document's tokens only, so the work is
    the number of such pairs: no padding to the longest document and no
    (tokens, clusters) table. The nearest token has the fewest disagreeing
    hash bits with the cluster (sign hashing, d2 None) or the smallest
    squared distance d2 to its center (nearest-center); ties go to the
    lowest token, as in np.argmin. This is the whole fill with k-means
    partitions; with sign hashing _hamming_fill hands it the cells whose
    neighbour walk would cost more than these pairs.
    """
    doc, cluster = np.divmod(empty, b)
    seg = lengths[doc]
    seg_start = np.cumsum(seg) - seg
    token = np.arange(seg_start[-1] + seg[-1]) + np.repeat(starts[doc] - seg_start, seg)
    if d2 is None:
        dist = np.bitwise_count(idx[token] ^ np.repeat(cluster, seg))
    else:
        dist = d2[token, np.repeat(cluster, seg)]
        dist[np.isnan(dist)] = -np.inf  # np.argmin takes the first NaN
    best = np.repeat(np.minimum.reduceat(dist, seg_start), seg)
    return np.minimum.reduceat(np.where(dist == best, token, idx.size), seg_start)  # idx.size: no token


def _hamming_fill(empty: np.ndarray, cell: np.ndarray, b: int, k_sim: int,
                  lengths: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """_fill_tokens for sign hashing, by walking the hash values around each empty cell.

    A cluster id is a hash value, so the tokens r bits away from a cluster
    are those whose hash is the cluster XOR a mask of popcount r. first
    holds each (document, hash) cell's lowest token; for r = 1, 2, ... a
    cell takes the lowest first token over its distance-r hashes, and the
    first r with one settles it: fewest disagreeing bits, ties to the
    lowest token, as in np.argmin. Before each r, when the C(k_sim, r)
    lookups of the cells left would outnumber their pairs with their
    documents' tokens, those cells go to _fill_tokens instead, so memory
    stays within the pairwise path's.
    """
    first = np.full(len(lengths) * b, idx.size)  # idx.size: no token
    np.minimum.at(first, cell, np.arange(idx.size))
    fill = np.empty(empty.size, dtype=np.intp)
    left, cells = np.arange(empty.size), empty  # b is a power of 2: cell ^ mask keeps the document
    bits = 1 << np.arange(k_sim)
    masks = np.zeros(1, dtype=np.int64)
    for r in range(1, k_sim + 1):
        if math.comb(k_sim, r) * cells.size > lengths[cells // b].sum():
            break
        masks = np.unique(masks[:, None] | bits)
        masks = masks[np.bitwise_count(masks) == r]
        near = first[cells ^ masks[:, None]].min(axis=0)
        hit = near < idx.size
        fill[left[hit]] = near[hit]
        left, cells = left[~hit], cells[~hit]
        if not cells.size:
            return fill
    fill[left] = _fill_tokens(cells, b, np.cumsum(lengths) - lengths, lengths, idx, None)
    return fill


def _rep_block(idx: np.ndarray, proj: np.ndarray, d2: np.ndarray | None, lengths: np.ndarray,
               owner_base: np.ndarray, side: str, config: FdeConfig, dest: np.ndarray) -> None:
    """Write one repetition's part of the encodings of n consecutive documents into dest (n, B, d_proj).

    idx, proj and d2 are the assignments, projected tokens and (k-means)
    center distances of the documents' stacked tokens, and owner_base is
    B times each token's document. Sums are taken from 0 in token order,
    the order a per-document sum takes, so each cluster block is bit for
    bit what encoding the document alone gives: one bincount per
    coordinate on the document side, one flat bincount over every
    (cell, coordinate) on the query side, where a served query has too few
    tokens for d_proj calls to pay. Document blocks are centroids, and
    empty cells are filled as configured: by _hamming_fill with sign
    hashing, by _fill_tokens with k-means partitions.
    """
    n, b, t = dest.shape
    cell = owner_base + idx
    scale = 1.0 / math.sqrt(config.r_reps)
    if side == "query":
        acc = np.bincount((cell[:, None] * t + np.arange(t)).ravel(), weights=proj.ravel(), minlength=n * b * t)
        np.multiply(acc.reshape(n, b, t), scale, out=dest)
        return
    acc = np.empty((t, n * b))
    for j in range(t):
        acc[j] = np.bincount(cell, weights=proj[:, j], minlength=n * b)
    counts = np.bincount(cell, minlength=n * b)
    acc /= np.maximum(counts, 1)  # an empty cell stays 0
    empty = np.flatnonzero(counts == 0)
    if config.fill_empty and empty.size:
        if d2 is None:
            fill = _hamming_fill(empty, cell, b, config.k_sim, lengths, idx)
        else:
            fill = _fill_tokens(empty, b, np.cumsum(lengths) - lengths, lengths, idx, d2)
        acc[:, empty] = proj[fill].T
    np.multiply(acc.reshape(t, n, b).transpose(1, 2, 0), scale, out=dest)


def _encode(tokens: TokenCorpus, side: str, config: FdeConfig, dtype, reps: range | None = None) -> np.ndarray:
    """Shared query/document encoder over the token sets of a corpus; (n, fde_dim) of dtype.

    tokens must hold config.dim columns. reps, when given, encodes only
    those repetitions: the (n, len(reps) * B * d_proj) columns of the
    encoding they fill, bit for bit (not with d_final, which mixes every
    repetition). The documents go in blocks of
    consecutive documents holding about BLOCK_TOKENS tokens (a served
    query is one block). Each block is widened to float64 on its own, and
    every repetition assigns, projects and encodes it (_rep_block), so
    neither a float64 copy of the whole stack nor a whole-stack
    per-repetition temporary is ever held. Without d_final the result is
    written straight in dtype; with d_final the concatenation is assembled
    and projected in float64, and the projection is cast.

    A BLAS product rounds its rows differently when it has few rows (a
    one-row product is a matrix-vector product, a small one takes another
    kernel), so each block's products run over a window of the stack that
    holds the block and at least _PRODUCT_ROWS rows, or the whole stack
    when it is shorter: a stack of up to _PRODUCT_ROWS tokens gets exactly
    the whole-stack products, and a longer one gets products of a size
    that rounds like them.
    """
    lengths = tokens.lengths
    draws, final = config._draws
    reps = range(config.r_reps) if reps is None else reps
    b = config.num_clusters
    t = config.proj_dim
    n, r = len(lengths), len(reps)
    ends = np.cumsum(lengths)
    # a block holds the documents whose first token falls in one BLOCK_TOKENS span
    bounds = [0, *(np.flatnonzero(np.diff((ends - lengths) // BLOCK_TOKENS)) + 1), n]
    out = np.empty((n, r, b, t), dtype=np.float64 if final is not None else dtype)

    for lo, hi in zip(bounds, bounds[1:]):
        first, last = ends[lo] - lengths[lo], ends[hi - 1]  # the block's tokens
        stop = min(ends[-1], max(last, first + _PRODUCT_ROWS))
        start = max(0, min(first, stop - _PRODUCT_ROWS))
        window = tokens.tokens[start:stop].astype(np.float64, copy=False)
        toks = slice(first - start, last - start)
        owner_base = np.repeat(np.arange(hi - lo) * b, lengths[lo:hi])  # B * each token's document in the block
        for col, rep in enumerate(reps):
            part, S = draws[rep]
            idx, d2 = assign_with_dists(part, window)
            proj = window if S is None else product(window, S) / np.sqrt(t)
            _rep_block(idx[toks], proj[toks], None if d2 is None else d2[toks], lengths[lo:hi], owner_base,
                       side, config, out[lo:hi, col])
        del window, idx, d2, proj  # freed before the next block is widened
    out = out.reshape(n, r * b * t)
    if final is not None:
        out = _final_project(out, final).astype(dtype, copy=False)
    return out


def generate_query_fdes(queries: Sequence, config: FdeConfig) -> np.ndarray:
    """Encode a batch of queries; returns an (n, fde_dim) float64 matrix.

    The queries are checked as a TokenCorpus of width config.dim: a
    non-finite token raises ValueError naming the query's position.
    """
    return _encode(TokenCorpus(queries, dim=config.dim, name="query"), "query", config, np.float64)


def generate_doc_fdes(docs: Sequence, config: FdeConfig) -> np.ndarray:
    """Encode a batch of documents; returns an (n, fde_dim) float64 matrix.

    The documents are checked as a TokenCorpus of width config.dim: a
    non-finite token raises ValueError naming the document's position.
    """
    return _encode(TokenCorpus(docs, dim=config.dim), "doc", config, np.float64)


def generate_query_fde(Q, config: FdeConfig) -> Fde:
    """Encode one query with its config's fingerprint, which mips_search checks against the index."""
    return Fde(values=generate_query_fdes([Q], config)[0], fingerprint=config_fingerprint(config))
