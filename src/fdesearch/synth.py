"""Synthetic multi-vector corpora with planted nearest neighbors.

Documents are grouped into clusters; each cluster owns a set of unit
"topic directions" (one per token slot) and every document token is a
noisy, renormalized copy of its slot's direction. Queries are built by
taking a subset of one document's tokens and re-perturbing them at twice
the document noise (queries are rougher paraphrases than sibling
documents are). The source document stays, with high probability, the
exact Chamfer nearest neighbor, while leaving enough headroom for
retrieval quality differences to show. Qrels mark the source document
relevant.

With doc_bias > 0, every document additionally carries a shared per-
document offset on all of its tokens, and queries are rebuilt from the
underlying slot directions plus that offset instead of from the realized
tokens. Each query token is then individually only weakly tied to the
source document while the aggregate similarity still prefers it; this is
the regime where scoring whole token sets beats per-token lookups, and
where the exact Chamfer 1-NN may legitimately differ from the source
document (qrels keep marking the source).

All draws are deterministic in the SynthSpec seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .util import SYNTH, derive_rng

QUERY_NOISE_FACTOR = 2.0  # query tokens are perturbed at twice the corpus noise


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic dataset.

    tokens_per_doc is either a fixed count or an inclusive (lo, hi) range
    sampled uniformly per document. noise is the per-coordinate standard
    deviation of the Gaussian perturbation added before renormalizing.
    query_tokens=None takes half of the source document's tokens
    (at least 1).
    """

    num_docs: int = 1000
    tokens_per_doc: int | tuple[int, int] = 32
    dim: int = 32
    num_clusters: int = 50
    noise: float = 0.05
    num_queries: int = 100
    query_tokens: int | None = None
    query_noise: float | None = None  # None -> QUERY_NOISE_FACTOR * noise
    doc_bias: float = 0.0  # shared per-document token offset scale
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.token_range
        if min(self.num_docs, self.dim, self.num_clusters, self.num_queries, lo) < 1:
            raise ValueError("all counts in a SynthSpec must be >= 1")
        if hi < lo:
            raise ValueError(f"tokens_per_doc range is inverted: ({lo}, {hi})")
        if self.query_tokens is not None and self.query_tokens < 1:
            raise ValueError(f"query_tokens must be >= 1, got {self.query_tokens}")
        for name in ("noise", "query_noise", "doc_bias"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def token_range(self) -> tuple[int, int]:
        if isinstance(self.tokens_per_doc, tuple):
            return int(self.tokens_per_doc[0]), int(self.tokens_per_doc[1])
        return int(self.tokens_per_doc), int(self.tokens_per_doc)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("degenerate zero vector drawn; use a different seed")
    return rows / norms


def matched_pair(rng: np.random.Generator, m: int = 16, dim: int = 32):
    """One (Q, P) pair of unit-row matrices with planted per-token matches.

    P's tokens sit in two tight clumps (Gaussian spread 0.03 around two
    random directions); Q's token i is P's token i plus Gaussian noise of
    scale 0.02. This is the workload encodings are meant for (every query
    token has a true near neighbor); with tokens instead drawn uniformly
    at random the best match carries no structure a partition could find.
    """
    dirs = _unit_rows(rng.standard_normal((2, dim)))
    base = dirs[np.arange(m) % 2]
    P = _unit_rows(base + 0.03 * rng.standard_normal((m, dim)))
    Q = _unit_rows(P + 0.02 * rng.standard_normal((m, dim)))
    return Q, P


def generate_synthetic(spec: SynthSpec):
    """Build (doc_records, query_records, qrels) in memory.

    doc_records and query_records are lists of (id, (m, dim) float32
    matrix) with unit-norm rows; qrels maps query id -> {doc id: 1}.
    """
    rng = derive_rng(spec.seed, SYNTH, 0)
    lo, hi = spec.token_range
    slots = hi
    topics = _unit_rows(rng.standard_normal((spec.num_clusters, slots, spec.dim)))

    doc_cluster = rng.integers(0, spec.num_clusters, size=spec.num_docs)
    doc_offsets = spec.doc_bias * rng.standard_normal((spec.num_docs, spec.dim))
    doc_records = []
    for j in range(spec.num_docs):
        m = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        base = topics[doc_cluster[j], np.arange(m) % slots] + doc_offsets[j]
        noisy = base + spec.noise * rng.standard_normal((m, spec.dim))
        doc_records.append((j, _unit_rows(noisy).astype(np.float32)))

    qrels = {}
    query_records = []
    qnoise = spec.query_noise if spec.query_noise is not None else QUERY_NOISE_FACTOR * spec.noise
    for qid in range(spec.num_queries):
        src = int(rng.integers(0, spec.num_docs))
        src_tokens = doc_records[src][1].astype(np.float64)
        m = src_tokens.shape[0]
        want = spec.query_tokens if spec.query_tokens is not None else max(1, m // 2)
        take = min(want, m)
        positions = np.sort(rng.choice(m, size=take, replace=False))
        if spec.doc_bias > 0:
            source = topics[doc_cluster[src], positions % slots] + doc_offsets[src]
        else:
            source = src_tokens[positions]
        perturbed = source + qnoise * rng.standard_normal((take, spec.dim))
        query_records.append((qid, _unit_rows(perturbed).astype(np.float32)))
        qrels[qid] = {src: 1}
    return doc_records, query_records, qrels


def synth_gen(spec: SynthSpec, outdir) -> dict:
    """Generate a dataset and write corpus.mvec, queries.mvec, qrels.tsv.

    Every SynthSpec field (the seed included) is echoed to synth.cfg, which
    ``fdesearch synth --spec`` reads back, so every dataset is regenerable.
    Returns the written paths.
    """
    from pathlib import Path

    from .dataio import write_config_file, write_mvec, write_qrels

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    docs, queries, qrels = generate_synthetic(spec)
    paths = {
        "corpus": out / "corpus.mvec",
        "queries": out / "queries.mvec",
        "qrels": out / "qrels.tsv",
        "spec": out / "synth.cfg",
    }
    write_mvec(paths["corpus"], docs)
    write_mvec(paths["queries"], queries)
    write_qrels(paths["qrels"], qrels)
    write_config_file(paths["spec"], asdict(spec))
    return paths
