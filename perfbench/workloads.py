"""The benchmark's workloads and their seeded inputs.

Corpus and encoding config of each workload are fixed; the run seed only
reseeds the synthetic corpus and queries (and the query padding of
rerank-carve). Document ids are the positions 0..n-1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from fdesearch import FdeConfig, PqSpec, SynthSpec, generate_synthetic

PAD_PURPOSE = 0x7062  # keeps the padding draws apart from the corpus draws


@dataclass(frozen=True)
class Workload:
    """One fixed corpus, config and query mix.

    spec.num_queries distinct queries are generated; every run serves each
    of them at least once. config=None selects the single-vector token
    baseline (sv_candidates, then exact rerank) instead of the encoding
    engine.
    """

    name: str
    why: str
    spec: SynthSpec
    k_candidates: int
    final_k: int = 10
    config: FdeConfig | None = None
    pq: PqSpec | None = None
    carve_tau: float | None = None
    pad_to: int | None = None  # pad queries with near-duplicates of their own tokens
    pad_noise: float = 0.05
    k_per_query: int = 0  # token baseline: hits fetched per query token

    def params(self, seed: int) -> dict:
        """Every parameter of the workload run with that seed, JSON-ready."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name not in ("name", "why")}
        out["spec"] = dataclasses.asdict(dataclasses.replace(self.spec, seed=seed))
        if self.config is not None:  # trained k-means partitioners are not parameters
            out["config"] = {f.name: getattr(self.config, f.name) for f in dataclasses.fields(self.config)
                             if f.name != "kmeans_partitioners"}
        if self.pq is not None:
            out["pq"] = dataclasses.asdict(self.pq)
        return out


SERVE_CONFIG = FdeConfig(dim=32, k_sim=5, d_proj=8, r_reps=20)  # 5120 dims

WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense-10k",
        why="10k docs, dense 5120-dim scan: the corpus-sized scan dominates queries, doc encoding dominates setup and RSS",
        spec=SynthSpec(num_docs=10000, num_queries=100),
        config=SERVE_CONFIG, k_candidates=100),
    Workload(
        name="pq-1k",
        why="1k docs, PQ-256-8 codes written and read back: PQ training dominates setup, the asymmetric scan dominates queries",
        spec=SynthSpec(),
        config=SERVE_CONFIG, pq=PqSpec(c=256, g=8), k_candidates=100),
    Workload(
        name="rerank-carve",
        why="1k long docs, 64-token padded queries carved at tau 0.7, 500 candidates: carving and rerank dominate queries",
        spec=SynthSpec(num_docs=1000, tokens_per_doc=(64, 128), query_tokens=32),
        config=FdeConfig(dim=32, k_sim=4, d_proj=8, r_reps=10), k_candidates=500, carve_tau=0.7, pad_to=64),
    Workload(
        name="token-baseline",
        why="single-vector token baseline, no encoding: per-token exact scan dominates; encoder, scan and PQ changes must not move it",
        spec=SynthSpec(num_docs=1000, tokens_per_doc=64, dim=16, num_clusters=50, noise=0.08,
                       doc_bias=0.035, query_noise=0.12),
        k_per_query=125, k_candidates=100),
)}


def pad_query(Q: np.ndarray, length: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Append near-duplicates of Q's own tokens until it has length rows.

    Each pad row is a randomly chosen row of Q plus Gaussian noise,
    renormalized to unit length.
    """
    extra = length - Q.shape[0]
    if extra <= 0:
        return Q
    src = Q[rng.integers(0, Q.shape[0], size=extra)].astype(np.float64)
    dup = src + noise * rng.standard_normal(src.shape)
    dup /= np.linalg.norm(dup, axis=1, keepdims=True)
    return np.vstack([Q, dup.astype(Q.dtype)])


def make_inputs(wl: Workload, seed: int):
    """(doc_records, queries) for one run; the same seed gives the same inputs."""
    docs, query_records, _ = generate_synthetic(dataclasses.replace(wl.spec, seed=seed))
    if [i for i, _ in docs] != list(range(len(docs))):
        raise ValueError("synthetic doc ids are expected to be positions 0..n-1")
    queries = [q for _, q in query_records]
    if wl.pad_to is not None:
        rng = np.random.default_rng([seed, PAD_PURPOSE])
        queries = [pad_query(q, wl.pad_to, wl.pad_noise, rng) for q in queries]
    return docs, queries
