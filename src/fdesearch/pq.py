"""Product quantization with asymmetric querying for document encodings.

Vectors are split into consecutive groups of G dimensions; each group is
quantized independently to one of C k-means centers, so a d-dimensional
float vector compresses to d/G code bytes (C <= 256). Queries stay
uncompressed: a dot product against a coded vector is computed by looking
up, per group, the inner product between the query slice and the selected
center ("asymmetric" querying). With C=256 and G=8 this stores a vector in
d/8 bytes, a 32x reduction over 4-byte floats.

Training runs k-means per group on one shared seeded sample of at most
100,000 vectors, sliced per group.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .partition import lloyd_kmeans
from .util import PQ_SAMPLE, as_matrix, derive_rng

TRAIN_SAMPLE_LIMIT = 100_000


@dataclass(frozen=True, eq=False)
class PqCodebook:
    """Per-group k-means centers.

    centers has shape (num_groups, C, G); group g only uses its first
    effective_c[g] rows (fewer than C distinct training slices reduce the
    effective center count; unused rows are zero).
    """

    centers: np.ndarray
    effective_c: np.ndarray  # (num_groups,) ints
    trained_on: str = ""  # digest of the training call, informational

    @property
    def num_groups(self) -> int:
        return self.centers.shape[0]

    @property
    def num_centers(self) -> int:
        return self.centers.shape[1]

    @property
    def group_dim(self) -> int:
        return self.centers.shape[2]

    @property
    def dim(self) -> int:
        return self.num_groups * self.group_dim

    @property
    def code_bytes(self) -> int:
        """Payload bytes per encoded vector: one byte per group."""
        return self.num_groups


def pq_train(vectors, c: int = 256, g: int = 8, seed: int = 0,
             sample_limit: int = TRAIN_SAMPLE_LIMIT) -> PqCodebook:
    """Train a codebook with c centers per group of g dimensions."""
    V = as_matrix(vectors)
    n, d = V.shape
    if not 1 <= c <= 256:
        raise ValueError(f"centers per group must be in [1, 256] so codes fit one byte, got {c}")
    if g < 1 or d % g != 0:
        raise ValueError(f"vector dimension {d} is not divisible by group width {g}")
    sample = V
    if n > sample_limit:
        sel = derive_rng(seed, PQ_SAMPLE, 0).choice(n, size=sample_limit, replace=False)
        sample = V[np.sort(sel)]

    num_groups = d // g
    centers = np.zeros((num_groups, c, g), dtype=np.float64)
    effective = np.zeros(num_groups, dtype=np.int64)
    for grp in range(num_groups):
        sl = sample[:, grp * g:(grp + 1) * g]
        grp_centers, _ = lloyd_kmeans(sl, c, seed, rep=grp)
        effective[grp] = grp_centers.shape[0]
        centers[grp, :grp_centers.shape[0]] = grp_centers

    digest = hashlib.sha256()
    digest.update(f"n={sample.shape[0]};d={d};c={c};g={g};seed={seed}".encode())
    return PqCodebook(centers=centers, effective_c=effective, trained_on=digest.hexdigest()[:16])


def pq_encode_many(codebook: PqCodebook, V) -> np.ndarray:
    """Encode rows of V; returns (n, num_groups) uint8 codes."""
    Va = as_matrix(V)
    if Va.shape[1] != codebook.dim:
        raise ValueError(f"dimension mismatch: vectors have d={Va.shape[1]}, codebook expects {codebook.dim}")
    g = codebook.group_dim
    codes = np.empty((Va.shape[0], codebook.num_groups), dtype=np.uint8)
    for grp in range(codebook.num_groups):
        cc = codebook.centers[grp, :codebook.effective_c[grp]]
        sl = Va[:, grp * g:(grp + 1) * g]
        d2 = (np.sum(sl * sl, axis=1)[:, None] - 2.0 * (sl @ cc.T)
              + np.sum(cc * cc, axis=1)[None, :])
        codes[:, grp] = np.argmin(d2, axis=1)  # ties -> lowest center index
    return codes


def _check_codes(codebook: PqCodebook, codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.shape[-1] != codebook.num_groups:
        raise ValueError(f"expected {codebook.num_groups} code bytes per vector, got {codes.shape[-1]}")
    flat = codes.reshape(-1, codebook.num_groups)
    if np.any(flat >= codebook.effective_c[None, :]):
        raise ValueError("code exceeds the effective number of centers for its group")
    return codes


def pq_decode_many(codebook: PqCodebook, codes) -> np.ndarray:
    """Reconstruct (n, dim) vectors from codes."""
    codes = _check_codes(codebook, codes)
    flat = codes.reshape(-1, codebook.num_groups).astype(np.int64)
    out = np.empty((flat.shape[0], codebook.dim), dtype=np.float64)
    g = codebook.group_dim
    for grp in range(codebook.num_groups):
        out[:, grp * g:(grp + 1) * g] = codebook.centers[grp, flat[:, grp]]
    return out


def pq_table(codebook: PqCodebook, q) -> np.ndarray:
    """Per-query lookup table of group x center partial dot products."""
    qa = np.asarray(q, dtype=np.float64)
    if qa.ndim != 1 or qa.shape[0] != codebook.dim:
        raise ValueError(f"expected a query of dimension {codebook.dim}, got shape {qa.shape}")
    g = codebook.group_dim
    slices = qa.reshape(codebook.num_groups, g)
    # (groups, C): einsum keeps this one contraction rather than a python loop
    return np.einsum("gcd,gd->gc", codebook.centers, slices)


def pq_asymmetric_dots_many(codebook: PqCodebook, codes_matrix, q) -> np.ndarray:
    """Asymmetric dots of one query against many coded vectors."""
    codes = _check_codes(codebook, np.asarray(codes_matrix))
    if codes.ndim != 2:
        raise ValueError(f"expected an (n, groups) code matrix, got shape {codes.shape}")
    table = pq_table(codebook, q)
    return table[np.arange(codebook.num_groups)[None, :], codes.astype(np.int64)].sum(axis=1)
