"""One workload run: seeded inputs, setup, closed-loop serving, checks, metrics.

The library is driven only through its public functions. An untraced run
(trace=False) gives the end-to-end metrics. A traced run rebuilds the
same pipeline from the per-layer public functions (generate_doc_fdes,
pq_train, mips_search, ball_carve, chamfer, sv_candidates, ...) with a
span around each call and reduces the spans to per-layer metrics.

Every operation (each setup, request, oracle cross-check and read-back
comparison) counts as attempted; one that raises or returns an invalid
result counts as failed, and its message is kept.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from fdesearch import (
    FdeIndex,
    TokenIndex,
    assign_many,
    ball_carve,
    build_index,
    build_token_index,
    chamfer,
    generate_doc_fdes,
    generate_query_fdes,
    mips_search,
    pq_encode_many,
    pq_train,
    query,
    sv_candidates,
)
from fdesearch.dataio import read_index, write_index
from fdesearch.encoding import partitioner_for_rep
from fdesearch.pq import pq_decode_many, pq_table

from oracle import ChamferOracle, cross_check
from tracing import Tracer
from workloads import Workload, make_inputs

E2E_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "recall_1nn_at10": "ratio",
    "peak_rss_mb": "MiB",
    "index_bytes_per_doc": "B",
    "success_rate": "ratio",
}

# A name ending in ".s" is the per-setup total self time of the span named
# by the rest, ".ms" the per-request self time; the others are counters.
# Each reports the median over setups or requests, 0 where the workload
# never calls that layer.
PER_LAYER_UNITS = {
    "encoding.doc.s": "s",
    "encoding.doc.empty_frac": "ratio",
    "encoding.query.ms": "ms",
    "encoding.query.nonzero_frac": "ratio",
    "partition.assign.s": "s",
    "engine.scan.ms": "ms",
    "engine.scan.floats": "count",
    "engine.scan.lookups": "count",
    "engine.carve.ms": "ms",
    "engine.carve.tokens_in": "count",
    "engine.carve.tokens_out": "count",
    "chamfer.rerank.ms": "ms",
    "chamfer.rerank.dots": "count",
    "chamfer.rerank.candidates": "count",
    "pq.train.s": "s",
    "pq.encode.s": "s",
    "pq.table.ms": "ms",
    "pq.recon_mse": "sq",
    "dataio.write_index.s": "s",
    "dataio.read_index.s": "s",
    "dataio.index.bytes": "B",
    "svheuristic.build.s": "s",
    "svheuristic.candidates.ms": "ms",
    "svheuristic.floats": "count",
    "svheuristic.unique_frac": "ratio",
    "engine.query.ms": "ms",
    "engine.query.unaccounted_ms": "ms",
    "trace.overhead_ms": "ms",
}

QUERY_STAGES = ("encoding.query", "engine.scan", "engine.carve", "chamfer.rerank")
RECALL_DEPTH = 10
CROSS_CHECK_QUERIES = 4  # chamfer_one_nn scores the corpus in a Python loop
TRACED_MIN_REQUESTS = 20
MAX_PROBLEMS_KEPT = 20


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_KEPT:
                self.problems.append(problem)


def check_ranking(ranking, final_k: int, num_docs: int) -> str | None:
    """None when ranking has final_k distinct valid ids with finite scores,
    sorted by score descending, ties by id ascending; else the reason."""
    if not isinstance(ranking, list) or not all(isinstance(t, tuple) and len(t) == 2 for t in ranking):
        return f"ranking is not a list of (doc_id, score) pairs: {ranking!r:.200}"
    if len(ranking) != final_k:
        return f"ranking has {len(ranking)} entries, expected {final_k}"
    ids = [d for d, _ in ranking]
    if not all(isinstance(d, int) and 0 <= d < num_docs for d in ids):
        return f"ranking has an invalid doc id: {ids}"
    if len(set(ids)) != len(ids):
        return f"ranking repeats a doc id: {ids}"
    if not all(isinstance(s, float) and math.isfinite(s) for _, s in ranking):
        return f"ranking has a non-finite or non-float score: {ranking}"
    for (d0, s0), (d1, s1) in zip(ranking, ranking[1:]):
        if s1 > s0 or (s1 == s0 and d1 < d0):
            return f"ranking is not sorted by score desc, id asc at ({d0}, {s0!r}), ({d1}, {s1!r})"
    return None


def rerank(Q, doc_ids, doc_matrix, final_k: int) -> list:
    """Exact Chamfer rerank, best first, ties by ascending id."""
    scored = [(d, chamfer(Q, doc_matrix(d))) for d in doc_ids]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:final_k]


def token_pipeline(wl: Workload, tindex: TokenIndex, corpus, Q) -> list:
    """Single-vector baseline: token hits, first k_candidates docs, exact rerank."""
    hits = sv_candidates(Q, tindex, wl.k_per_query, dedup=True)
    return rerank(Q, hits[:wl.k_candidates], corpus.__getitem__, wl.final_k)


def setup_plain(wl: Workload, corpus, records, index_path: Path):
    """(served structure, in-memory index the served one was read from or None)."""
    if wl.config is None:
        return build_token_index(corpus), None
    index = build_index(corpus, wl.config, pq=wl.pq)
    if wl.pq is None:
        return index, None
    write_index(index_path, index)
    return read_index(index_path, corpus_records=records), index


def setup_traced(wl: Workload, corpus, records, index_path: Path, tr: Tracer, counters):
    """setup_plain rebuilt from the per-layer functions, one span per call."""
    cfg = wl.config
    with tr.span("setup"):
        if cfg is None:
            with tr.span("svheuristic.build"):
                return build_token_index(corpus), None
        mats = [np.asarray(m, dtype=np.float64) for m in corpus]
        with tr.span("encoding.doc"):
            fdes = generate_doc_fdes(mats, cfg)
        fdes = fdes.astype(np.float32)
        ids = range(len(mats))
        if wl.pq is None:
            return FdeIndex(ids, cfg, dense=fdes, corpus=mats), None
        with tr.span("pq.train"):
            codebook = pq_train(fdes, c=wl.pq.c, g=wl.pq.g, seed=cfg.seed)
        with tr.span("pq.encode"):
            codes = pq_encode_many(codebook, fdes)
        in_memory = FdeIndex(ids, cfg, codebook=codebook, codes=codes, corpus=mats)
        with tr.span("dataio.write_index"):
            write_index(index_path, in_memory)
        with tr.span("dataio.read_index"):
            served = read_index(index_path, corpus_records=records)
    counters["pq.recon_mse"].append(float(np.mean((pq_decode_many(codebook, codes) - fdes) ** 2)))
    counters["dataio.index.bytes"].append(index_path.stat().st_size)
    return served, in_memory


def probe_partitions(wl: Workload, corpus, tr: Tracer, counters) -> None:
    """Isolated assign_many over all corpus tokens, once per repetition, and
    the share of (document, cluster) blocks that no token of the document fills."""
    cfg = wl.config
    tokens = np.vstack(corpus).astype(np.float64)
    owner = np.repeat(np.arange(len(corpus)), [len(m) for m in corpus])
    empty = []
    for rep in range(cfg.r_reps):
        part = partitioner_for_rep(cfg, rep)
        with tr.span("partition.assign"):
            idx = assign_many(part, tokens)
        b = part.num_clusters
        empty.append(np.mean(np.bincount(owner * b + idx, minlength=len(corpus) * b) == 0))
    counters["encoding.doc.empty_frac"].append(float(np.mean(empty)))


def enough_setups(seconds: list[float]) -> bool:
    """At least 2 setups; enough once 3 took a second together, once they
    took 12 s, or after 25."""
    n, spent = len(seconds), sum(seconds)
    return n >= 25 or (n >= 3 and spent >= 1.0) or (n >= 2 and spent >= 12.0)


def serve(handle, queries, seconds: float, min_requests: int, first: int = 0):
    """Single-client closed loop over the queries, cycling in order.

    Request i+1 is sent when request i has returned. Runs for at least
    `seconds` and at least min_requests requests, numbered from `first`.
    Returns the per-request (query id, latency s, output, error text) and
    the loop's wall time.
    """
    out = []
    start = time.perf_counter()
    while len(out) < min_requests or time.perf_counter() - start < seconds:
        i = first + len(out)
        qid = i % len(queries)
        t0 = time.perf_counter()
        try:
            result, error = handle(i, qid, queries[qid]), None
        except Exception:  # counted as a failed request and reported, never dropped
            result, error = None, traceback.format_exc()
        out.append((qid, time.perf_counter() - t0, result, error))
    return out, time.perf_counter() - start


def check_requests(wl: Workload, requests, num_docs: int, ledger: Ledger, traced: bool) -> dict:
    """Check every served ranking; returns query id -> first valid ranking.

    A repeated query must rank exactly as the first time. In a traced run
    each request returns (query() ranking, composed ranking) and the two
    must be equal.
    """
    first: dict[int, list] = {}
    for qid, _, result, error in requests:
        if error is not None:
            ledger.record(f"query {qid} raised:\n{error}")
            continue
        ranking, composed = result if traced else (result, result)
        problem = check_ranking(ranking, wl.final_k, num_docs)
        if problem is None and composed != ranking:
            problem = "traced composition ranks differently from the untraced call"
        if problem is None and qid in first and first[qid] != ranking:
            problem = "repeated query ranks differently"
        if problem is None:
            first.setdefault(qid, ranking)
        ledger.record(None if problem is None else f"query {qid}: {problem}")
    return first


def check_read_back(wl: Workload, in_memory: FdeIndex, queries, first: dict, ledger: Ledger) -> None:
    """The index read back from its file must rank as the in-memory one."""
    for qid, ranking in sorted(first.items()):
        try:
            ref = query(in_memory, queries[qid], wl.k_candidates, wl.final_k, wl.carve_tau).ranking
        except Exception:  # a failed check, reported with its traceback
            ledger.record(f"in-memory query {qid} raised:\n{traceback.format_exc()}")
            continue
        ledger.record(None if ref == ranking else f"query {qid}: read-back index ranks differently from in-memory")


def index_bytes_per_doc(served, num_docs: int) -> float:
    if isinstance(served, TokenIndex):
        return served.tokens.nbytes / num_docs
    payload = served.dense if served.dense is not None else served.codes
    return payload.nbytes / num_docs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def run_metadata(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": wl.params(seed),
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tr: Tracer, counters, plain_span: str) -> dict:
    per_request = tr.self_times("request")
    per_setup = tr.self_times("setup")
    engine = per_request.get("engine.query", {})
    for r, total in engine.items():
        parts = sum(per_request[s].get(r, 0.0) for s in QUERY_STAGES if s in per_request)
        counters["engine.query.unaccounted_ms"].append(1e3 * (total - parts))
    counters["trace.overhead_ms"].append(
        1e3 * (_median(tr.durations("query").values()) - _median(tr.durations(plain_span).values())))
    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".ms"):
            value = 1e3 * _median(per_request.get(name[:-3], {}).values())
        elif name.endswith(".s"):
            value = _median(per_setup.get(name[:-2], {}).values())
        else:
            value = _median(counters.get(name, ()))
        out[name] = value
    return out


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, outdir: Path, root: Path) -> dict:
    """Run one workload; returns {"meta", "result", "problems"}.

    result is the object printed as the last line: correct, attempted,
    failed and metrics (end-to-end when untraced, per-layer when traced).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    index_path = outdir / f"{wl.name}-seed{seed}.mvix"
    ledger = Ledger()
    phases: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[phase] = phases.get(phase, 0.0) + now - clock
        clock = now

    docs, queries = make_inputs(wl, seed)
    corpus = [m for _, m in docs]
    lap("inputs")

    one_nn = None
    if not trace:
        oracle = ChamferOracle(corpus)
        one_nn = [oracle.one_nn(Q) for Q in queries]
        for i in range(min(CROSS_CHECK_QUERIES, len(queries))):
            ledger.record(cross_check(oracle, queries[i], corpus, one_nn[i]))
        del oracle
        lap("oracle")

    tr = Tracer()
    counters: dict[str, list] = defaultdict(list)
    setup_seconds: list[float] = []
    served = in_memory = None

    def setup() -> None:
        nonlocal served, in_memory
        served = in_memory = None  # release the previous index before building the next
        rep = len(setup_seconds)
        t0 = time.perf_counter()
        if trace:
            tr.setup = rep
            served, in_memory = setup_traced(wl, corpus, docs, index_path, tr, counters)
            tr.setup = None
        else:
            served, in_memory = setup_plain(wl, corpus, docs, index_path)
        setup_seconds.append(time.perf_counter() - t0)
        ledger.record(None)
        if trace and wl.config is not None:
            tr.setup = rep
            probe_partitions(wl, corpus, tr, counters)
            tr.setup = None

    if wl.config is None:
        def plain(Q):
            return token_pipeline(wl, served, corpus, Q)
        plain_span = "baseline.query"
    else:
        def plain(Q):
            return query(served, Q, wl.k_candidates, wl.final_k, wl.carve_tau).ranking
        plain_span = "engine.query"

    def traced_request(i, qid, Q):
        tr.request, tr.query = i, qid
        with tr.span(plain_span):
            ranking = plain(Q)
        if wl.config is None:
            with tr.span("query"):
                with tr.span("svheuristic.candidates"):
                    hits = sv_candidates(Q, served, wl.k_per_query, dedup=True)
                cands = hits[:wl.k_candidates]
                with tr.span("chamfer.rerank"):
                    composed = rerank(Q, cands, corpus.__getitem__, wl.final_k)
            raw_hits = len(Q) * min(wl.k_per_query, served.num_tokens)
            counters["svheuristic.floats"].append(len(Q) * served.tokens.size)
            counters["svheuristic.unique_frac"].append(len(hits) / raw_hits)
            rq, doc_matrix = Q, corpus.__getitem__
        else:
            with tr.span("query"):
                with tr.span("encoding.query"):
                    qv = generate_query_fdes([Q], wl.config)[0]
                with tr.span("engine.scan"):
                    cands = [d for d, _ in mips_search(served, qv, wl.k_candidates)]
                rq = Q
                if wl.carve_tau is not None:
                    with tr.span("engine.carve"):
                        rq = ball_carve(Q, wl.carve_tau).vectors
                with tr.span("chamfer.rerank"):
                    composed = rerank(rq, cands, served.doc_matrix, wl.final_k)
            if served.codebook is not None:
                with tr.span("pq.table"):
                    pq_table(served.codebook, qv)
                counters["engine.scan.lookups"].append(served.codes.size)
            else:
                counters["engine.scan.floats"].append(served.dense.size)
            counters["encoding.query.nonzero_frac"].append(np.count_nonzero(qv) / qv.size)
            if wl.carve_tau is not None:
                counters["engine.carve.tokens_in"].append(len(Q))
                counters["engine.carve.tokens_out"].append(len(rq))
            doc_matrix = served.doc_matrix
        counters["chamfer.rerank.candidates"].append(len(cands))
        counters["chamfer.rerank.dots"].append(len(rq) * sum(len(doc_matrix(d)) for d in cands))
        tr.request = tr.query = None
        return ranking, composed

    # Half the requests follow the first setup and half the last, so that
    # the latency samples span the setups and more of the machine's slow
    # and fast spells than one back-to-back serve phase would.
    handle = traced_request if trace else (lambda i, qid, Q: plain(Q))
    min_requests = min(TRACED_MIN_REQUESTS, len(queries)) if trace else len(queries)
    try:
        setup()
        lap("setup")
        requests, wall = serve(handle, queries, seconds / 2, (min_requests + 1) // 2)
        lap("serve")
        while not enough_setups(setup_seconds):
            setup()
        lap("setup")
        more, more_wall = serve(handle, queries, seconds / 2, min_requests - len(requests), first=len(requests))
    finally:
        index_path.unlink(missing_ok=True)
    requests += more
    wall += more_wall
    lap("serve")
    first = check_requests(wl, requests, len(corpus), ledger, trace)
    if in_memory is not None:
        check_read_back(wl, in_memory, queries, first, ledger)
    lap("checks")

    if trace:
        metrics = layer_metrics(tr, counters, plain_span)
        units = PER_LAYER_UNITS
        tr.write(outdir / f"{wl.name}-seed{seed}.spans.json")
    else:
        ok = sum(1 for *_, error in requests if error is None)
        latency_ms = [1e3 * lat for _, lat, _, _ in requests]
        hits = sum(1 for qid, nn in enumerate(one_nn)
                   if nn in [d for d, _ in first.get(qid, [])[:RECALL_DEPTH]])
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "qps": ok / wall,
            "query_ms_p50": float(np.percentile(latency_ms, 50)),
            "query_ms_p90": float(np.percentile(latency_ms, 90)),
            "recall_1nn_at10": hits / len(queries),
            "peak_rss_mb": peak_rss_mb(),
            "index_bytes_per_doc": index_bytes_per_doc(served, len(corpus)),
            "success_rate": 1.0 - ledger.failed / ledger.attempted,
        }
        units = E2E_UNITS
    meta = run_metadata(wl, seed, seconds, trace, root)
    meta.update(setups=len(setup_seconds), requests=len(requests), phase_s=phases)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return {"meta": meta, "result": result, "problems": ledger.problems}


def format_lines(result: dict) -> list[str]:
    """One human-readable line per metric: name, value, unit."""
    return [f"{name:<30} {m['value']!r:>24} {m['unit']}" for name, m in result["metrics"].items()]
