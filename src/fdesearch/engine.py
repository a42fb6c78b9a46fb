"""Two-stage retrieval: encoding dot-product candidates, then exact rerank.

An FdeIndex holds one encoding per document, stored dense or compressed
with product quantization, plus a handle to the raw token embeddings for
reranking. Retrieval encodes the query, asks a MIPS backend for the
k_candidates documents with the largest (asymmetric) dot product, and
reranks those candidates with exact Chamfer similarity.

The shipped dense backend is an exact scan: one float32 matrix-vector
product, a proven per-row rounding-error bound that shortlists every row
that can still reach the top k, and an exact float64 rescore of that
shortlist. It returns the ranking a float64 scan of every row returns,
without widening the stored matrix. Both backends answer
``search(query_values, k)`` with the row positions of the top k and their
dots; mips_search maps the positions to doc ids, and query() hands them
to the rerank as they are.

Non-finite input fails loudly: documents (the corpus attached for
reranking included), document encodings, query tokens and query encodings
with a NaN or inf entry raise ValueError.

Ball carving optionally shrinks the query before reranking: query tokens
are greedily grouped at a dot-product threshold tau and each group is
replaced by its vector sum, which preserves Chamfer scores for duplicate
tokens exactly and approximates them for near-duplicates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chamfer import chamfer_top_k
from .encoding import Fde, FdeConfig, _encode, config_fingerprint, fde_dim
from .pq import PqCodebook, _train_chunks, check_code_matrix, pq_table_dots
from .util import TokenCorpus, as_matrix, require_finite, shortlist, top_k

DEFAULT_CARVE_TAU = 0.7  # recall is flat above this threshold; rerank cost is not


@dataclass(frozen=True)
class PqSpec:
    """Compression request for build_index: c centers per group of g dims."""

    c: int = 256
    g: int = 8


@dataclass
class RetrievalResult:
    """Reranked output of one query."""

    ranking: list  # [(doc_id, chamfer_score)] best first, ties by ascending id
    candidates_retrieved: int
    timings: dict = field(default_factory=dict)  # seconds: fde_gen, mips, rerank


@dataclass(frozen=True, eq=False)
class CarvedQuery:
    """Query tokens grouped at threshold tau; one sum vector per group."""

    vectors: np.ndarray  # (k, d) group sums
    members: tuple  # tuple of tuples of original token indices

    @property
    def num_clusters(self) -> int:
        return self.vectors.shape[0]


_F32_UNIT = 2.0 ** -24  # unit roundoff of float32


class ExactScanBackend:
    """Dense MIPS over float32 encodings, ranked exactly as a float64 scan.

    ``fdes`` is an (n, d) float32 matrix with finite entries. A query q is
    scanned with one float32 matvec against q32 = float32(q). Row i's
    float32 dot is within

        e_i = 2·((d+4)·u·‖q‖ + ‖q − q32‖)·‖F_i‖ + d·2⁻¹²⁰,   u = 2⁻²⁴,

    of the float64 rescore: the summation rounding of both scans, the
    rounding of q to float32 (underflow included) and float32 products
    that underflow, with a factor-2 margin. Rows whose upper bound lies
    below the k-th largest lower bound are strictly beaten by k rows and
    dropped. The rest are rescored in float64 by a non-BLAS einsum, which
    gives a row the same value whatever other rows are selected (a BLAS
    gemv does not; the tests check this), and ranked by (-dot, ascending
    doc id). The result equals that of a float64 scan of every row. When
    the float32 scan overflows, or d·u > 1/4 where the bound no longer
    holds, every row is rescored (util.shortlist, the rule the exact
    Chamfer rerank shares). No (n, d) float64 array is made.

    The row norms are the one pass over the matrix that checks it: a
    non-finite row raises ValueError naming its document (the first one).
    """

    def __init__(self, doc_ids: np.ndarray, fdes: np.ndarray):
        self.doc_ids = doc_ids
        self.fdes = fdes
        dim = fdes.shape[1]
        self._norms = np.sqrt(np.einsum("ij,ij->i", fdes, fdes, dtype=np.float64))
        # float32 squares cannot overflow float64: a non-finite norm means a non-finite entry
        bad = np.flatnonzero(~np.isfinite(self._norms))
        if bad.size:
            raise ValueError(f"document {doc_ids[bad[0]]} has a non-finite float32 encoding")
        self._coef = 2 * (dim + 4) * _F32_UNIT if dim * _F32_UNIT <= 0.25 else np.inf
        self._floor = dim * 2.0 ** -120

    def search(self, query_values: np.ndarray, k: int):
        """(positions, dots) of the min(k, n) best rows, best first, ties by ascending doc id."""
        if k < 1:
            return np.empty(0, dtype=np.intp), np.empty(0)
        q = np.asarray(query_values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            q32 = q.astype(np.float32)
            approx = self.fdes @ q32
            slack = self._norms * (self._coef * np.linalg.norm(q) + 2 * np.linalg.norm(q - q32)) + self._floor
        rows = shortlist(approx, slack, k)
        dots = np.einsum("ij,j->i", self.fdes[rows], q, dtype=np.float64, casting="safe")
        rows = np.arange(len(self.fdes))[rows]
        best = top_k(self.doc_ids[rows], dots, k)
        return rows[best], dots[best]


class PqScanBackend:
    """MIPS over product-quantized encodings via asymmetric dots.

    The codes are checked once here (ValueError for a wrong shape or an
    out-of-range code), not on every query, and held group-major:
    ``codes`` is the (n, groups) transpose view of one C-contiguous
    (groups, n) uint8 matrix, copied only when the input is not already
    that view. A query scans only the groups where it is nonzero
    (pq.pq_table_dots).
    """

    def __init__(self, doc_ids: np.ndarray, codebook: PqCodebook, codes: np.ndarray):
        self.doc_ids = doc_ids
        self.codebook = codebook
        self.codes = np.ascontiguousarray(check_code_matrix(codebook, codes).T, dtype=np.uint8).T

    def search(self, query_values: np.ndarray, k: int):
        """(positions, asymmetric dots) of the min(k, n) best rows, best first, ties by ascending doc id."""
        dots = pq_table_dots(self.codebook, query_values, self.codes)
        best = top_k(self.doc_ids, dots, k)
        return best, dots[best]


class FdeIndex:
    """Immutable searchable collection of document encodings."""

    def __init__(self, doc_ids, config: FdeConfig, dense: np.ndarray | None = None,
                 codebook: PqCodebook | None = None, codes: np.ndarray | None = None,
                 corpus: Sequence | None = None):
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        self._pos = {d: i for i, d in enumerate(self.doc_ids.tolist())}
        if len(self._pos) != len(self.doc_ids):
            raise ValueError("doc ids must be unique")
        self.config = config
        self.fingerprint = config_fingerprint(config)
        if (dense is None) == (codebook is None):
            raise ValueError("index stores either dense encodings or codes+codebook, exactly one")
        if codebook is not None and (codes is None or codes.shape[0] != len(self.doc_ids)):
            raise ValueError("compressed index needs one code row per document")
        if codebook is not None and codebook.dim != fde_dim(config):
            raise ValueError(f"codebook dimension {codebook.dim} does not match fde_dim={fde_dim(config)} "
                             "of the config")
        if dense is not None:
            want = (len(self.doc_ids), fde_dim(config))
            if not isinstance(dense, np.ndarray) or dense.dtype != np.float32 or dense.shape != want:
                got = f"{dense.dtype} {dense.shape}" if isinstance(dense, np.ndarray) else type(dense).__name__
                raise ValueError(f"dense encodings must be a float32 array of shape {want}, got {got}")
        self.dense = dense
        self.codebook = codebook
        self.corpus = None
        if corpus is not None:
            self.attach_corpus(corpus)
        if self.dense is not None:
            self.backend = ExactScanBackend(self.doc_ids, self.dense)
            self.codes = None
        else:
            self.backend = PqScanBackend(self.doc_ids, self.codebook, codes)
            self.codes = self.backend.codes  # the group-major matrix the scan holds, seen (n, groups)

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def fde_dim(self) -> int:
        return fde_dim(self.config)

    @property
    def storage(self) -> str:
        """How the encodings are stored: "dense" or "pq"."""
        return "dense" if self.dense is not None else "pq"

    @property
    def payload_bytes_per_doc(self) -> int:
        """Bytes of encoding payload per document (dense f32 or code bytes)."""
        if self.dense is not None:
            return 4 * self.fde_dim
        return self.codebook.code_bytes

    def attach_corpus(self, corpus: Sequence) -> None:
        """Attach raw token embeddings (aligned with doc_ids) for reranking.

        Every document must be a finite (m, config.dim) matrix. They are
        held stacked (a TokenCorpus with the index's doc ids), in float32
        when all are float32.
        """
        if len(corpus) != self.num_docs:
            raise ValueError(f"corpus has {len(corpus)} documents, index has {self.num_docs}")
        self.corpus = TokenCorpus(corpus, self.doc_ids, self.config.dim)

    def _tokens(self) -> TokenCorpus:
        if self.corpus is None:
            raise ValueError("index has no corpus attached; reranking needs the raw embeddings")
        return self.corpus

    def doc_matrix(self, doc_id: int) -> np.ndarray:
        """The attached tokens of one document: a view in the corpus dtype. ValueError for an id
        that is not indexed."""
        pos = self._pos.get(int(doc_id))
        if pos is None:
            raise ValueError(f"document {doc_id} is not in the index")
        return self._tokens().doc(pos)


def build_index(corpus: Sequence, config: FdeConfig, pq: PqSpec | None = None,
                doc_ids: Sequence[int] | None = None) -> FdeIndex:
    """Encode every document and assemble a searchable index.

    Documents are encoded with empty-cluster filling as configured
    (enabled by default). When a PqSpec is given, a codebook is trained on
    the document encodings and only codes are kept. The corpus is checked
    and held as a TokenCorpus: non-finite tokens, repeated doc ids, and
    finite tokens whose float32 encoding overflows raise ValueError.

    A PQ build never holds the whole float32 encoding matrix: it encodes
    the fewest repetitions whose columns are whole groups, trains and codes
    those groups, and only then encodes the next repetitions. The codebook
    and codes are those of the whole matrix, bit for bit.
    """
    tokens = TokenCorpus(corpus, doc_ids, config.dim)
    ids = tokens.ids
    if pq is None:
        # ExactScanBackend's norm pass rejects an overflowed row, naming its document
        with np.errstate(over="ignore", invalid="ignore"):
            dense = _encode(tokens, "doc", config, np.float32)
        index = FdeIndex(ids, config, dense=dense)
    else:
        # a chunk is the fewest repetitions whose columns are whole groups; d_final mixes every repetition
        width = config.num_clusters * config.proj_dim
        step = config.r_reps if config.d_final is not None else pq.g // math.gcd(width, pq.g)
        codebook, codes = _train_chunks(_encodings(tokens, config, step), len(ids), fde_dim(config),
                                        pq.c, pq.g, config.seed, encode=True)
        index = FdeIndex(ids, config, codebook=codebook, codes=codes)
    index.corpus = tokens  # checked above
    return index


def _encodings(tokens: TokenCorpus, config: FdeConfig, step: int):
    """The float32 document encodings, step repetitions at a time, each made when it is drawn.

    A document whose encoding overflows raises ValueError. When some
    repetitions overflow, the later ones are encoded too, so the error
    names the first such document, as one pass over every repetition does.
    """
    spans = [range(lo, min(lo + step, config.r_reps)) for lo in range(0, config.r_reps, step)]
    for i, reps in enumerate(spans):
        fdes, bad = _encode_checked(tokens, config, reps)
        if bad.size:
            later = [_encode_checked(tokens, config, rest)[1][:1] for rest in spans[i + 1:]]
            first = np.concatenate([bad[:1], *later]).min()
            raise ValueError(f"document {tokens.ids[first]} has a non-finite float32 encoding (overflow)")
        yield fdes


def _encode_checked(tokens: TokenCorpus, config: FdeConfig, reps: range) -> tuple[np.ndarray, np.ndarray]:
    """The float32 document encodings of reps, and the positions of the documents whose encoding overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported, not warned about
        fdes = _encode(tokens, "doc", config, np.float32, reps)
        # float32 entries cannot overflow a float64 row sum: it is finite exactly when the row is
        return fdes, np.flatnonzero(~np.isfinite(fdes.sum(axis=1, dtype=np.float64)))


def mips_search(index: FdeIndex, query_fde, k_candidates: int):
    """Top candidates by encoding dot product, ties by ascending doc id."""
    if k_candidates < 1:
        raise ValueError(f"k_candidates must be >= 1, got {k_candidates}")
    values = query_fde
    if isinstance(query_fde, Fde):
        if query_fde.fingerprint != index.fingerprint:
            raise ValueError("query encoding fingerprint does not match the index; regenerate with the index config")
        values = query_fde.values
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (index.fde_dim,):
        raise ValueError(f"query encoding has shape {values.shape}, index stores dimension {index.fde_dim}")
    rows, dots = index.backend.search(require_finite(values, "query encoding"), k_candidates)
    return list(zip(index.doc_ids[rows].tolist(), dots.tolist()))


def ball_carve(Q, tau: float) -> CarvedQuery:
    """Greedy grouping of query tokens at dot-product threshold tau.

    Walks tokens in ascending index order; each still-unclustered token
    absorbs every later unclustered token whose dot product with it is at
    least tau. Each group contributes the sum of its members, so the total
    of all output vectors equals the total of the input rows.
    """
    X = as_matrix(Q)
    m = X.shape[0]
    unused = np.ones(m, dtype=bool)
    groups: list[tuple[int, ...]] = []
    for i in range(m):
        if not unused[i]:
            continue
        unused[i] = False
        members = [i]
        if unused.any():
            rest = np.flatnonzero(unused)
            close = rest[(X[rest] @ X[i]) >= tau]
            members.extend(int(j) for j in close)
            unused[close] = False
        groups.append(tuple(members))
    vectors = np.vstack([X[list(g)].sum(axis=0) for g in groups])
    return CarvedQuery(vectors=vectors, members=tuple(groups))


def query(index: FdeIndex, Q, k_candidates: int, final_k: int,
          carve_tau: float | None = None) -> RetrievalResult:
    """Encode Q, over-retrieve k_candidates by dot product, rerank exactly.

    Reranking scores candidates with Chamfer similarity on the raw corpus
    embeddings, using the ball-carved query when carve_tau is given
    (chamfer_top_k: a float32 screen, then chamfer on the candidates that
    can still make the cut). Returns the final_k best candidates. Q is
    checked once, as a TokenCorpus: a non-finite token, or a width other
    than config.dim, raises ValueError naming "query 0".
    """
    if final_k < 1 or final_k > k_candidates:
        raise ValueError(f"need 1 <= final_k <= k_candidates, got final_k={final_k}, k_candidates={k_candidates}")
    t0 = time.perf_counter()
    q = TokenCorpus([Q], dim=index.config.dim, name="query")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed encoding is rejected below
        qvals = _encode(q, "query", index.config, np.float64)[0]
    t1 = time.perf_counter()
    rows, _ = index.backend.search(require_finite(qvals, "query encoding"), k_candidates)
    t2 = time.perf_counter()
    rerank_q = ball_carve(q.tokens, carve_tau).vectors if carve_tau is not None else q.tokens
    ranking = chamfer_top_k(rerank_q, index._tokens(), rows, final_k)
    t3 = time.perf_counter()
    return RetrievalResult(
        ranking=ranking,
        candidates_retrieved=len(rows),
        timings={"fde_gen": t1 - t0, "mips": t2 - t1, "rerank": t3 - t2},
    )


def batch_query(index: FdeIndex, queries: Sequence, k_candidates: int, final_k: int,
                carve_tau: float | None = None) -> list[RetrievalResult]:
    """Run query() over many queries; results are positionally aligned with the input."""
    return [query(index, q, k_candidates, final_k, carve_tau) for q in queries]
