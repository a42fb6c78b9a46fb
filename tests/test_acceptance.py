"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion NN <name>: PASS/FAIL" line (visible
with pytest -s) and enforces the stated tolerance. Everything is seeded;
reruns are bit-identical.
"""

import time

import numpy as np
import pytest

from fdesearch.chamfer import brute_force_topk, nchamfer
from fdesearch.encoding import FdeConfig, fde_dim, generate_doc_fdes, generate_query_fdes, projection_matrix
from fdesearch.engine import PqSpec, ball_carve, build_index, mips_search, query
from fdesearch.evaluation import (
    candidates_to_threshold,
    chamfer_one_nn,
    fde_rankings,
    grid_search,
    oracle_qrels,
    recall_at_n,
    variance_study,
)
from fdesearch.pq import pq_decode_many
from fdesearch.synth import SynthSpec, generate_synthetic, matched_pair

DEFAULT_CFG = FdeConfig(dim=32, k_sim=5, d_proj=8, r_reps=20, seed=0)  # 5120 dims

CHECKS = []


def report(num, name, passed, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    CHECKS.append(line)
    print("\n" + line)
    assert passed, line


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def default_data():
    docs, queries, qrels = generate_synthetic(SynthSpec())
    corpus = [m for _, m in docs]
    qmats = [m for _, m in queries]
    qids = [i for i, _ in queries]
    one_nn = chamfer_one_nn(qmats, corpus)
    return corpus, qmats, qids, qrels, one_nn


@pytest.fixture(scope="module")
def default_index(default_data):
    corpus = default_data[0]
    return build_index(corpus, DEFAULT_CFG)


@pytest.fixture(scope="module")
def one_sided_pairs():
    """1,000 seeded random normalized pairs and their encodings."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240611)
    sizes = [1, 4, 16, 32]
    records = []
    for trial in range(1000):
        mq = sizes[trial % 4]
        mp = sizes[(trial // 4) % 4]
        d = 8 if trial % 2 == 0 else 32
        k_sim = 1 + trial % 6
        r_reps = 1 + trial % 3
        Q = unit_rows(rng, mq, d)
        P = unit_rows(rng, mp, d)
        cfg = FdeConfig(dim=d, k_sim=k_sim, d_proj=None, r_reps=r_reps,
                        fill_empty=True, seed=trial)
        fq = generate_query_fdes([Q], cfg)[0]
        fp = generate_doc_fdes([P], cfg)[0]
        records.append((Q, P, cfg, fq, fp))
    return records, time.perf_counter() - started


def test_criterion_01_one_sided_estimator(one_sided_pairs):
    records, elapsed = one_sided_pairs
    worst = -np.inf
    for Q, P, cfg, fq, fp in records:
        gap = float(fq @ fp) / Q.shape[0] - nchamfer(Q, P)
        worst = max(worst, gap)
    passed = worst <= 1e-9 and elapsed < 60.0
    report(1, "one-sided estimator", passed,
           f"worst overshoot {worst:.3e} <= 1e-9 over 1000 pairs, {elapsed:.1f}s < 60s")


def test_criterion_02_query_sparsity(one_sided_pairs):
    records, _ = one_sided_pairs
    violations = 0
    worst_ratio = 0.0
    for Q, _, cfg, fq, _ in records:
        bound = Q.shape[0] * cfg.proj_dim * cfg.r_reps
        nz = int(np.count_nonzero(fq))
        worst_ratio = max(worst_ratio, nz / bound)
        violations += nz > bound
    report(2, "query encoding sparsity", violations == 0,
           f"0 violations of nnz <= |Q|*d_proj*R_reps in 1000 encodings, max fill {worst_ratio:.2f}")


def test_criterion_03_approximation_trend():
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    pairs = [matched_pair(rng, m=16, dim=32) for _ in range(500)]
    truths = np.array([nchamfer(Q, P) for Q, P in pairs])
    means, p95s = {}, {}
    for k_sim in (1, 3, 6):
        cfg = FdeConfig(dim=32, k_sim=k_sim, d_proj=32, r_reps=20, seed=5)
        qf = generate_query_fdes([q for q, _ in pairs], cfg)
        pf = generate_doc_fdes([p for _, p in pairs], cfg)
        errs = (qf * pf).sum(axis=1) / 16.0 - truths
        means[k_sim] = float(errs.mean())
        p95s[k_sim] = float(np.percentile(np.abs(errs), 95))
    elapsed = time.perf_counter() - started
    shrinking = abs(means[1]) > abs(means[3]) > abs(means[6])
    passed = shrinking and p95s[6] <= 0.2 and elapsed < 300.0
    report(3, "approximation error trend", passed,
           f"mean err {means[1]:.3f} -> {means[3]:.3f} -> {means[6]:.3f} strictly shrinking, "
           f"p95 |err| at k_sim=6 {p95s[6]:.3f} <= 0.2, {elapsed:.0f}s < 300s")


def test_criterion_04_exhaustive_rerank_equals_brute_force(default_data, default_index):
    corpus, qmats, qids, _, _ = default_data
    n = len(corpus)
    mismatches = 0
    for Q in qmats:
        got = query(default_index, Q, k_candidates=n, final_k=10)
        expected = brute_force_topk(Q, corpus, 10)
        if [d for d, _ in got.ranking] != [d for d, _ in expected]:
            mismatches += 1
    report(4, "exhaustive rerank equals brute force", mismatches == 0,
           f"0 of {len(qmats)} queries deviate from the exact top-10 (ids and order)")


def test_criterion_05_recall_grows_with_dimension(default_data):
    started = time.perf_counter()
    corpus, qmats, qids, _, one_nn = default_data
    grid = [(8, 3, 8), (16, 4, 8), (20, 5, 8), (20, 5, 16)]
    rows = grid_search(corpus, qmats, oracle_qrels(one_nn), grid, [10])
    dims = [r.fde_dim for r in rows]
    recalls = [r.recalls[10] for r in rows]
    elapsed = time.perf_counter() - started
    steps_ok = all(recalls[i + 1] >= recalls[i] - 0.01 - 1e-12 for i in range(len(recalls) - 1))
    passed = dims == [512, 2048, 5120, 10240] and steps_ok and elapsed < 600.0
    detail = ", ".join(f"{d}:{r:.2f}" for d, r in zip(dims, recalls))
    report(5, "hit rate non-decreasing in dimension", passed,
           f"1-NN hit rate at N=10 by dimension {detail} (tolerance 1pp/step), {elapsed:.0f}s < 600s")


def test_criterion_06_encoding_beats_token_baseline():
    spec = SynthSpec(num_docs=2000, tokens_per_doc=64, dim=16, num_clusters=50,
                     noise=0.08, doc_bias=0.035, query_noise=0.12, num_queries=100, seed=0)
    docs, queries, _ = generate_synthetic(spec)
    corpus = [m for _, m in docs]
    qmats = [m for _, m in queries]
    one_nn = chamfer_one_nn(qmats, corpus)
    truth = oracle_qrels(one_nn)

    cfg = FdeConfig(dim=16, k_sim=5, d_proj=8, r_reps=16, seed=0)
    assert fde_dim(cfg) == 4096
    fde_run = fde_rankings(corpus, qmats, cfg, depth=2000)

    from fdesearch.svheuristic import build_token_index, sv_candidates

    token_index = build_token_index(corpus)
    sv_nd = {i: sv_candidates(Q, token_index, 125, dedup=False) for i, Q in enumerate(qmats)}
    sv_dd = {i: sv_candidates(Q, token_index, 125, dedup=True) for i, Q in enumerate(qmats)}

    schedule = list(range(10, 101, 10)) + list(range(200, 2001, 100))
    rows = candidates_to_threshold({"fde": fde_run, "sv_nondedup": sv_nd, "sv_dedup": sv_dd},
                                   truth, [0.8], schedule=schedule)
    need = {r.method: r.candidates for r in rows}
    curves = {r.method: r.recall_curve for r in rows}
    print("\n  1-NN hit rate vs candidates retrieved:")
    print("  " + " ".join(f"{'N':>6}") + "  fde   sv_nondedup  sv_dedup")
    for n in schedule[:10] + [200, 500, 1000]:
        print(f"  {n:>6}  {curves['fde'][n]:.2f}  {curves['sv_nondedup'][n]:>11.2f}  {curves['sv_dedup'][n]:>8.2f}")
    passed = (need["fde"] is not None and need["sv_nondedup"] is not None
              and need["fde"] <= need["sv_nondedup"])
    report(6, "encoding needs fewer candidates than token baseline", passed,
           f"80% 1-NN hit rate: encoding at N={need['fde']}, "
           f"non-dedup baseline at N={need['sv_nondedup']}, dedup baseline at N={need['sv_dedup']}")


def test_criterion_07_pq_fidelity(default_data, default_index):
    corpus, qmats, qids, _, one_nn = default_data
    pq_index = build_index(corpus, DEFAULT_CFG, pq=PqSpec(c=256, g=8))
    dim = fde_dim(DEFAULT_CFG)
    bytes_ok = pq_index.payload_bytes_per_doc == dim // 8

    rng = np.random.default_rng(7)
    decoded = pq_decode_many(pq_index.codebook, pq_index.codes)  # row i is doc id i
    max_err = 0.0
    for _ in range(10):  # 10 queries x 1000 stored codes = 10,000 pairs, from the scan query() runs
        q = rng.standard_normal(dim)
        scanned = mips_search(pq_index, q, pq_index.num_docs)
        ids, fast = np.array([d for d, _ in scanned]), np.array([s for _, s in scanned])
        slow = decoded[ids] @ q
        max_err = max(max_err, float(np.max(np.abs(fast - slow))))
    dots_ok = max_err <= 1e-6

    def hit_rate(index):
        hits = 0
        for qid, Q in zip(qids, qmats):
            res = query(index, Q, k_candidates=100, final_k=100)
            hits += any(d == one_nn[qid] for d, _ in res.ranking)
        return hits / len(qmats)

    dense_recall = hit_rate(default_index)
    pq_recall = hit_rate(pq_index)
    recall_ok = abs(dense_recall - pq_recall) <= 0.02
    passed = bytes_ok and dots_ok and recall_ok
    report(7, "product quantization fidelity", passed,
           f"{pq_index.payload_bytes_per_doc} bytes/doc == {dim // 8} (32x vs f32), "
           f"max |table dot - decode dot| {max_err:.2e} <= 1e-6 over 10000 pairs, "
           f"1-NN hit rate@100 dense {dense_recall:.3f} vs pq {pq_recall:.3f} (|diff| <= 0.02)")


def test_criterion_08_ball_carving_safety(default_data, default_index):
    corpus, qmats, qids, qrels, _ = default_data

    def run_with(tau):
        out = {}
        for qid, Q in zip(qids, qmats):
            res = query(default_index, Q, k_candidates=100, final_k=100, carve_tau=tau)
            out[qid] = res.ranking
        return out

    plain = run_with(None)
    carved = run_with(0.7)
    ids_only = lambda run: {q: [d for d, _ in v] for q, v in run.items()}
    r_plain = recall_at_n(ids_only(plain), qrels, 100).value
    r_carved = recall_at_n(ids_only(carved), qrels, 100).value
    recall_ok = abs(r_plain - r_carved) <= 0.01

    rng = np.random.default_rng(11)
    cluster_counts, sizes = [], []
    for Q in qmats[:50]:
        dup = np.vstack([Q, Q[rng.integers(0, Q.shape[0], size=4)]])  # inject near-duplicates
        cluster_counts.append(ball_carve(dup, 0.7).num_clusters)
        sizes.append(dup.shape[0])
    merges_ok = float(np.mean(cluster_counts)) < float(np.mean(sizes))

    high_tau = run_with(2.0)
    identical = high_tau == plain  # exact scores and ids
    passed = recall_ok and merges_ok and identical
    report(8, "ball carving safety", passed,
           f"recall@100 {r_plain:.3f} -> {r_carved:.3f} at tau=0.7 (|diff| <= 0.01), "
           f"mean clusters {np.mean(cluster_counts):.1f} < |Q| {np.mean(sizes):.1f} with duplicates, "
           f"tau above max dot bit-identical: {identical}")


def test_criterion_09_seed_variance(default_data):
    corpus, qmats, qids, qrels, _ = default_data
    rep = variance_study(corpus, qmats, qrels, DEFAULT_CFG, 10, [100])
    passed = rep.std[100] <= 0.02
    report(9, "recall variance across seeds", passed,
           f"Recall@100 over 10 seeds: mean {rep.mean[100]:.4f}, std {rep.std[100]:.4f} <= 0.02")


def inner_project(x, rep, cfg):
    """One repetition's block projection of a single d-vector, as the encoder applies it."""
    return projection_matrix(cfg, rep) @ x / np.sqrt(cfg.proj_dim)


def test_criterion_10_projection_preserves_dots():
    rng = np.random.default_rng(13)
    results = []
    for pair in range(5):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        dots = []
        for seed in range(500):
            cfg = FdeConfig(dim=64, k_sim=1, d_proj=16, r_reps=1, seed=seed)
            dots.append(float(inner_project(x, 0, cfg) @ inner_project(y, 0, cfg)))
        dots = np.asarray(dots)
        stderr = dots.std(ddof=1) / np.sqrt(len(dots))
        z = abs(dots.mean() - float(x @ y)) / stderr
        results.append(z)
    passed = all(z <= 3.0 for z in results)
    report(10, "projection preserves dot products", passed,
           "5 fixed pairs, mean over 500 seeds within 3 standard errors: z = "
           + ", ".join(f"{z:.2f}" for z in results))
