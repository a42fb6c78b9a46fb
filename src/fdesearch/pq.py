"""Product quantization with asymmetric querying for document encodings.

Vectors are split into consecutive groups of G dimensions; each group is
quantized independently to one of C k-means centers, so a d-dimensional
float vector compresses to d/G code bytes (C <= 256). Queries stay
uncompressed: a dot product against a coded vector is computed by looking
up, per group, the inner product between the query slice and the selected
center ("asymmetric" querying). With C=256 and G=8 this stores a vector in
d/8 bytes, a 32x reduction over 4-byte floats.

Training runs k-means per group on one shared seeded sample of at most
100,000 vectors, sliced per group. A group only ever reads its own
columns, so one training core (_train_chunks) takes the matrix as chunks
of whole groups, drawn one at a time: pq_train hands it the whole matrix
as its only chunk, and build_index hands it the document encodings a few
repetitions at a time, so the whole encoding matrix is never held. When
the core also codes (build_index), a group whose last Lloyd update moved
no center already has every training vector's code as its labels, so
only the other groups run the nearest-center pass (_nearest, the one
coding kernel, which pq_encode_many runs too).

A chunk's groups are trained on util._run_pool: one thread per usable
CPU, at most util._MAX_WORKERS, when every thread gets at least two
groups. Every product of a Lloyd run or a coding pass is cut into row
chunks that OpenBLAS runs on the calling thread, so the threads do not
contend with its own pool. Each thread trains its groups in its own
(n_sample, C) float64 distance matrix and product strip, made by the
calling thread (partition._LloydBuffers), so a worker's malloc arena only
ever holds small temporaries. A group writes only its own rows of the
centers, effective center counts and codes, so the codebook and codes
do not depend on the thread count.

A float32 input matrix is kept float32, and so is its sample: only each
(n, G) group slice is widened to float64, as it is cut. The slices hold
the same values as slices of a float64 copy, so codebooks and codes are
those of the float64 cast, bit for bit, without ever holding that copy.

Codes are held group-major: one C-contiguous (groups, n) uint8 matrix, so
a group's codes for every vector are one contiguous row. The public code
matrix is its (n, groups) transpose view; the index file stores the
(n, groups) row-major bytes and is transposed once on reading.

Scanning (pq_table_dots) computes table rows, with the einsum of
pq_table, only for the groups where the query is nonzero, and adds them
to a running sum one group at a time in ascending group order:
acc += row[codes of the group]. Skipping the zero groups is exact. A zero
query slice gives a table row of +-0.0, and adding +-0.0 leaves the sum
unchanged, since it starts at +0.0 and so is never -0.0. The dots equal,
bit for bit, that sequential sum over all groups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .partition import _LloydBuffers, _lloyd, _sq_from_dots
from .util import PQ_SAMPLE, _row_chunks, _run_pool, _strip_entries, as_matrix, derive_rng, require_finite

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

    def __post_init__(self):
        # checked once here, so a corrupt stored codebook cannot reach the scan
        require_finite(self.centers, "codebook centers")
        if np.any((self.effective_c < 1) | (self.effective_c > self.num_centers)):
            raise ValueError(f"effective center counts must be in [1, {self.num_centers}]")

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


def pq_train(vectors, c: int = 256, g: int = 8, seed: int = 0) -> PqCodebook:
    """Train a codebook with c centers per group of g dimensions."""
    V = as_matrix(vectors, None)
    return _train_chunks([V], V.shape[0], V.shape[1], c, g, seed)[0]


def _train_chunks(chunks: Iterable[np.ndarray], n: int, dim: int, c: int, g: int, seed: int,
                  encode: bool = False) -> tuple[PqCodebook, np.ndarray | None]:
    """The codebook of an (n, dim) matrix handed over as chunks of its columns, and with encode its codes.

    chunks yields (n, w) float32 or float64 matrices, left to right, each
    holding whole groups (w a multiple of g). A chunk's groups are trained
    (and coded) before the next chunk is drawn, so a caller can make each
    chunk only when it is needed. Every group trains on the same sample
    rows whatever the chunking, so the codebook is that of the whole
    matrix, bit for bit.

    With encode, the codes are pq_encode_many's, bit for bit: a group whose
    last Lloyd update moved no center already holds every training row's
    nearest final center, and its labels are taken as the codes; the
    other groups, and all groups when training used a subsample, run the
    nearest-center pass on the chunk.
    """
    if not 1 <= c <= 256:
        raise ValueError(f"centers per group must be in [1, 256] so codes fit one byte, got {c}")
    if g < 1 or dim % g != 0:
        raise ValueError(f"vector dimension {dim} is not divisible by group width {g}")
    rows = None
    if n > TRAIN_SAMPLE_LIMIT:
        rows = np.sort(derive_rng(seed, PQ_SAMPLE, 0).choice(n, size=TRAIN_SAMPLE_LIMIT, replace=False))

    num_groups = dim // g
    centers = np.zeros((num_groups, c, g), dtype=np.float64)
    effective = np.zeros(num_groups, dtype=np.int64)
    codes = np.empty((num_groups, n), dtype=np.uint8) if encode else None
    buffers = functools.partial(_LloydBuffers, n if rows is None else len(rows), c, g, n if encode else 0)
    first = 0  # the chunk's first group
    for chunk in chunks:
        sample = chunk if rows is None else chunk[rows]

        def train(local: int, buf: _LloydBuffers) -> None:  # runs within this chunk's _run_pool call
            grp = first + local
            grp_centers, _, labels = _lloyd(_group_slice(sample, local, g), c, seed, grp, buf)
            k = effective[grp] = grp_centers.shape[0]
            centers[grp, :k] = grp_centers
            if encode:  # a subsample's labels are not the codes of every row
                if rows is None and labels is not None:
                    codes[grp] = labels
                else:
                    _nearest(centers[grp, :k], _group_slice(chunk, local, g), codes[grp], buf.strip)

        _run_pool(train, range(chunk.shape[1] // g), buffers)
        first += chunk.shape[1] // g
    return PqCodebook(centers=centers, effective_c=effective), None if codes is None else codes.T


def pq_encode_many(codebook: PqCodebook, V) -> np.ndarray:
    """Encode rows of V; returns (n, num_groups) uint8 codes, the transpose
    view of a group-major (num_groups, n) matrix."""
    Va = as_matrix(V, None)
    if Va.shape[1] != codebook.dim:
        raise ValueError(f"dimension mismatch: vectors have d={Va.shape[1]}, codebook expects {codebook.dim}")
    codes = np.empty((codebook.num_groups, Va.shape[0]), dtype=np.uint8)
    strip = np.empty(_strip_entries(Va.shape[0], codebook.num_centers, codebook.group_dim))
    for grp in range(codebook.num_groups):
        cc = codebook.centers[grp, :codebook.effective_c[grp]]
        _nearest(cc, _group_slice(Va, grp, codebook.group_dim), codes[grp], strip)
    return codes.T


def _group_slice(V: np.ndarray, grp: int, g: int) -> np.ndarray:
    """Group grp's (n, g) columns of V as a contiguous float64 copy: a strided slice slows every product."""
    return np.ascontiguousarray(V[:, grp * g:(grp + 1) * g], dtype=np.float64)


def _nearest(centers: np.ndarray, points: np.ndarray, out: np.ndarray, strip: np.ndarray) -> None:
    """Write each point's nearest center (ties to the lowest) into out.

    The squared distances are taken in partition.sq_dists' row chunks (util._row_chunks), one
    chunk at a time into strip (util._strip_entries long), so the pass holds no (points, centers)
    matrix and its products run on the calling thread; with two or more centers they are
    sq_dists', bit for bit (with one, every code is 0).
    """
    k = len(centers)
    xx, cc = np.sum(points * points, axis=1), np.sum(centers * centers, axis=1)
    bounds = _row_chunks(len(points), k * points.shape[1])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        dots = np.matmul(points[lo:hi], centers.T, out=strip[:(hi - lo) * k].reshape(hi - lo, k))
        out[lo:hi] = np.argmin(_sq_from_dots(dots, xx[lo:hi], cc), axis=1)


def check_code_matrix(codebook: PqCodebook, codes) -> np.ndarray:
    """codes as an (n, groups) array; ValueError for another shape or an out-of-range code."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != codebook.num_groups:
        raise ValueError(f"expected an (n, {codebook.num_groups}) code matrix, got shape {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
    # per-group extremes: no (n, groups) temporary besides the codes
    if codes.size and (codes.min() < 0 or np.any(codes.max(axis=0) >= codebook.effective_c)):
        raise ValueError("code is negative or exceeds the effective number of centers for its group")
    return codes


def pq_decode_many(codebook: PqCodebook, codes) -> np.ndarray:
    """Reconstruct (n, dim) vectors from an (n, groups) code matrix."""
    codes = check_code_matrix(codebook, codes)
    return codebook.centers[np.arange(codebook.num_groups), codes].reshape(codes.shape[0], codebook.dim)


def _query_slices(codebook: PqCodebook, q) -> np.ndarray:
    qa = np.asarray(q, dtype=np.float64)
    if qa.ndim != 1 or qa.shape[0] != codebook.dim:
        raise ValueError(f"expected a query of dimension {codebook.dim}, got shape {qa.shape}")
    return qa.reshape(codebook.num_groups, codebook.group_dim)


def _table_rows(centers: np.ndarray, slices: np.ndarray) -> np.ndarray:
    # (groups, C): einsum keeps this one contraction rather than a python loop. pq_table and the scan
    # share it, so a scanned row is bit for bit pq_table's row (a matmul rounds differently).
    return np.einsum("gcd,gd->gc", centers, slices)


def pq_table(codebook: PqCodebook, q) -> np.ndarray:
    """Per-query lookup table of group x center partial dot products."""
    return _table_rows(codebook.centers, _query_slices(codebook, q))


def pq_table_dots(codebook: PqCodebook, q, codes: np.ndarray) -> np.ndarray:
    """Asymmetric dot of q with every row of an (n, groups) code matrix.

    codes must already have passed check_code_matrix. Only the groups where
    q is nonzero are looked up, each adding its table row's entries to the
    running sum in ascending group order (see the module docstring). The
    scan reads contiguous rows when codes is the transpose view of a
    group-major matrix, as pq_encode_many returns.
    """
    slices = _query_slices(codebook, q)
    nonzero = np.flatnonzero(slices.any(axis=1))
    by_group = codes.T
    acc = np.zeros(codes.shape[0])
    for grp, row in zip(nonzero, _table_rows(codebook.centers[nonzero], slices[nonzero])):
        acc += row.take(by_group[grp])
    return acc
