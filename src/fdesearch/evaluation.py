"""Retrieval metrics and experiment drivers.

Vocabulary used throughout:

* run: mapping query_id -> ranked list of doc ids (best first; may contain
  duplicates, e.g. the non-deduplicated single-vector heuristic).
* qrels: mapping query_id -> {relevant doc_id: grade >= 1}.
* Recall@N: mean over queries of |top-N of the run ∩ relevant| / |relevant|.
  Queries missing from the qrels, or with an empty relevant set, are
  excluded from the mean and counted separately.
* hit-rate against the exact Chamfer 1-nearest neighbor ("is the true
  best document inside the top N?") is Recall@N against
  oracle_qrels(chamfer_one_nn(...)), which marks one relevant document per
  query.

The drivers (grid search over encoding parameters, seed-variance study,
candidates-to-threshold tables) operate on in-memory corpora and emit
plain rows that serialize to JSONL or an aligned text table. The runs
they build key queries and documents by position in the given sequences.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .chamfer import brute_force_topk
from .encoding import FdeConfig, config_fingerprint, fde_dim, generate_doc_fdes, generate_query_fdes
from .util import TokenCorpus, top_k


@dataclass(frozen=True)
class RecallReport:
    metric: str
    n: int
    value: float
    num_queries: int
    num_skipped: int = 0
    fingerprint: str = ""

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"recall must be in [0, 1], got {self.value}")


def recall_at_n(run: Mapping, qrels: Mapping, n: int, fingerprint: str = "") -> RecallReport:
    """Mean fraction of each query's relevant docs found in its top n."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if not run:
        raise ValueError("run is empty")
    total, used, skipped = 0.0, 0, 0
    for qid, ranked in run.items():
        relevant = qrels.get(qid)
        if not relevant:
            skipped += 1
            continue
        rel_ids = set(relevant.keys() if isinstance(relevant, Mapping) else relevant)
        hits = len(rel_ids.intersection(list(ranked)[:n]))
        total += hits / len(rel_ids)
        used += 1
    value = total / used if used else 0.0
    return RecallReport(metric="recall", n=n, value=value, num_queries=used,
                        num_skipped=skipped, fingerprint=fingerprint)


def oracle_qrels(one_nn: Mapping) -> dict:
    """Single-relevant qrels marking each query's Chamfer 1-NN."""
    return {qid: {doc: 1} for qid, doc in one_nn.items()}


def chamfer_one_nn(queries: Sequence, corpus: Sequence) -> dict:
    """Exact Chamfer 1-nearest neighbor per query position, as a corpus position (ground truth).

    The corpus is stacked once.
    """
    tokens = TokenCorpus(corpus)
    return {i: brute_force_topk(Q, tokens, 1)[0][0] for i, Q in enumerate(queries)}


def fde_rankings(corpus: Sequence, queries: Sequence, config: FdeConfig,
                 depth: int | None = None) -> dict:
    """Offline run: rank all document positions per query position by encoding dot product.

    No reranking; this measures the encoding itself as a retrieval proxy.
    """
    docs = generate_doc_fdes(corpus, config)
    dots = generate_query_fdes(queries, config) @ docs.T  # (queries, docs)
    order = top_k(np.arange(len(docs)), dots, len(docs) if depth is None else depth)
    return dict(enumerate(order.tolist()))


@dataclass(frozen=True)
class GridRow:
    r_reps: int
    k_sim: int
    d_proj: int
    fde_dim: int
    recalls: dict  # n -> recall value
    pareto: bool
    fingerprint: str = ""


def grid_search(corpus: Sequence, queries: Sequence, qrels: Mapping,
                grid: Sequence[tuple[int, int, int]], n_values: Sequence[int],
                seed: int = 0) -> list[GridRow]:
    """Sweep (r_reps, k_sim, d_proj) triples and report recall per config.

    Rows come back sorted by output dimension. A row is flagged Pareto
    when no other row has dimension <= its dimension and a strictly
    higher recall at the first requested N.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    if not n_values:
        raise ValueError("no N values requested")
    dim = np.asarray(corpus[0]).shape[1]
    rows = []
    for (r_reps, k_sim, d_proj) in grid:
        config = FdeConfig(dim=dim, k_sim=k_sim, d_proj=d_proj, r_reps=r_reps, seed=seed)
        run = fde_rankings(corpus, queries, config, depth=max(n_values))
        fp = config_fingerprint(config)
        recalls = {int(n): recall_at_n(run, qrels, n, fingerprint=fp).value for n in n_values}
        rows.append(GridRow(r_reps=r_reps, k_sim=k_sim, d_proj=d_proj,
                            fde_dim=fde_dim(config), recalls=recalls, pareto=False, fingerprint=fp))
    rows.sort(key=lambda r: (r.fde_dim, r.r_reps, r.k_sim, r.d_proj))
    primary = int(n_values[0])
    flagged = []
    for row in rows:
        dominated = any(other.fde_dim <= row.fde_dim and other.recalls[primary] > row.recalls[primary]
                        for other in rows if other is not row)
        flagged.append(dataclasses.replace(row, pareto=not dominated))
    return flagged


@dataclass(frozen=True)
class VarianceReport:
    seeds: tuple
    per_seed: dict  # n -> list of recall values, one per seed
    mean: dict  # n -> mean recall
    std: dict  # n -> sample standard deviation


def variance_study(corpus: Sequence, queries: Sequence, qrels: Mapping,
                   config: FdeConfig, num_seeds: int, n_values: Sequence[int]) -> VarianceReport:
    """Regenerate all encodings under seeds config.seed, config.seed+1, ... and report recall spread."""
    if num_seeds < 2:
        raise ValueError(f"need at least 2 seeds, got {num_seeds}")
    seeds = tuple(config.seed + i for i in range(num_seeds))
    per_seed: dict[int, list[float]] = {int(n): [] for n in n_values}
    for s in seeds:
        cfg = dataclasses.replace(config, seed=s)
        run = fde_rankings(corpus, queries, cfg, depth=max(n_values))
        for n in n_values:
            per_seed[int(n)].append(recall_at_n(run, qrels, int(n)).value)
    mean = {n: float(np.mean(v)) for n, v in per_seed.items()}
    std = {n: float(np.std(v, ddof=1)) for n, v in per_seed.items()}
    return VarianceReport(seeds=seeds, per_seed=per_seed, mean=mean, std=std)


def default_schedule() -> list[int]:
    """Candidate counts to probe: 10..100 by 10, then 200..10000 by 100."""
    return list(range(10, 101, 10)) + list(range(200, 10_001, 100))


@dataclass(frozen=True)
class ThresholdRow:
    method: str
    threshold: float
    candidates: int | None  # None = not reached on the schedule
    recall_curve: dict = field(default_factory=dict, repr=False)  # n -> recall


def candidates_to_threshold(runs: Mapping[str, Mapping], qrels: Mapping,
                            thresholds: Sequence[float],
                            schedule: Sequence[int] | None = None) -> list[ThresholdRow]:
    """Smallest probed N at which each method's recall reaches each threshold."""
    if schedule is None:
        schedule = default_schedule()
    schedule = [int(n) for n in schedule]
    if not schedule:
        raise ValueError("candidate schedule is empty")
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"thresholds must lie in (0, 1], got {t}")
    rows = []
    for method, run in runs.items():
        curve = {n: recall_at_n(run, qrels, n).value for n in schedule}
        for t in thresholds:
            needed = next((n for n in schedule if curve[n] >= t), None)
            rows.append(ThresholdRow(method=method, threshold=float(t),
                                     candidates=needed, recall_curve=curve))
    return rows


def reports_to_jsonl(reports: Sequence) -> str:
    """One JSON object per line; dataclasses are flattened."""
    lines = []
    for r in reports:
        obj = dataclasses.asdict(r) if dataclasses.is_dataclass(r) else dict(r)
        lines.append(json.dumps(obj, sort_keys=True, default=str))
    return "\n".join(lines) + "\n" if lines else ""


def reports_to_table(reports: Sequence[RecallReport]) -> str:
    """Aligned plain-text table of recall reports."""
    header = f"{'metric':<12} {'N':>6} {'value':>8} {'queries':>8} {'skipped':>8}  fingerprint"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(f"{r.metric:<12} {r.n:>6d} {r.value:>8.4f} {r.num_queries:>8d} "
                     f"{r.num_skipped:>8d}  {r.fingerprint}")
    return "\n".join(lines) + "\n"
