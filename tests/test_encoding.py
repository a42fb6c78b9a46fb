import dataclasses
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdesearch import encoding, partition, util
from fdesearch.chamfer import nchamfer
from fdesearch.encoding import (
    FdeConfig,
    _final_matrix,
    _final_project,
    config_fingerprint,
    config_params,
    fde_dim,
    generate_doc_fdes,
    generate_query_fdes,
    partitioner_for_rep,
    projection_matrix,
    with_kmeans_partitions,
)
from fdesearch.engine import FdeIndex, PqSpec, batch_query, build_index, query
from fdesearch.partition import SimHashPartitioner, assign_many, sq_dists
from fdesearch.synth import matched_pair
from fdesearch.util import as_matrix, derive_rng, product


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def with_hyperplanes(gaussians):
    """Make a fresh config's encoder use these hyperplanes in every repetition."""
    part = SimHashPartitioner(gaussians=np.array(gaussians, dtype=np.float64))
    return mock.patch.object(encoding, "partitioner_for_rep", lambda config, rep: part)


def inner_project(x, rep, cfg):
    """One repetition's block projection of a single d-vector, as the encoder applies it."""
    return projection_matrix(cfg, rep) @ x / np.sqrt(cfg.proj_dim)


@st.composite
def property_cases(draw):
    """A query, a document and a config without d_proj or d_final: sign hashing or k-means, fill on or off."""
    dim = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = rng.standard_normal((draw(st.integers(1, 8)), dim))
    P = rng.standard_normal((draw(st.integers(1, 8)), dim))
    cfg = FdeConfig(dim=dim, k_sim=draw(st.integers(1, 5)), r_reps=draw(st.integers(1, 4)),
                    fill_empty=draw(st.booleans()), seed=draw(st.integers(0, 9)))
    if draw(st.booleans()):
        pool = rng.standard_normal((draw(st.integers(1, 40)), dim))
        cfg = with_kmeans_partitions(cfg, pool, b=draw(st.integers(1, 6)))
    return cfg, Q, P


def test_output_dimension_arithmetic():
    assert fde_dim(FdeConfig(dim=16, k_sim=5, d_proj=16, r_reps=20)) == 10240
    assert fde_dim(FdeConfig(dim=8, k_sim=4, d_proj=8, r_reps=20)) == 2560
    assert fde_dim(FdeConfig(dim=1, k_sim=1, d_proj=1, r_reps=1)) == 2
    assert fde_dim(FdeConfig(dim=8, k_sim=3, r_reps=2, d_final=100)) == 100


def test_config_validation():
    with pytest.raises(ValueError):
        FdeConfig(dim=4, d_proj=8)
    with pytest.raises(ValueError):
        FdeConfig(dim=4, r_reps=0)
    with pytest.raises(ValueError):
        FdeConfig(dim=4, partitioner="octree")
    with pytest.raises(ValueError):
        fde_dim(FdeConfig(dim=4, k_sim=2, r_reps=1, d_final=99))  # d_final >= raw


def test_single_point_query_has_one_nonzero_block_equal_to_it():
    cfg = FdeConfig(dim=6, k_sim=1, r_reps=1, seed=3)
    rng = np.random.default_rng(1)
    q = unit_rows(rng, 1, 6)
    blocks = generate_query_fdes([q], cfg)[0].reshape(2, 6)
    nonzero = [k for k in range(2) if np.any(blocks[k] != 0)]
    assert len(nonzero) == 1
    assert np.array_equal(blocks[nonzero[0]], q[0])


def test_query_block_is_the_sum_of_colliding_points():
    cfg = FdeConfig(dim=2, k_sim=1, r_reps=1)
    Q = np.array([[0.6, 0.8], [0.9, -0.2]])  # both on the positive side
    with with_hyperplanes([[1.0, 0.0]]):
        out = generate_query_fdes([Q], cfg)[0]
    blocks = out.reshape(2, 2)
    assert np.allclose(blocks[1], Q.sum(axis=0))
    assert np.allclose(blocks[0], 0.0)


def test_doc_block_is_the_average_not_the_sum():
    cfg = FdeConfig(dim=2, k_sim=1, r_reps=1, fill_empty=False)
    P = np.array([[0.6, 0.8], [0.9, -0.2]])
    with with_hyperplanes([[1.0, 0.0]]):
        out = generate_doc_fdes([P], cfg)[0]
    blocks = out.reshape(2, 2)
    assert np.allclose(blocks[1], P.mean(axis=0))
    assert np.allclose(blocks[0], 0.0)


def test_single_point_doc_fills_every_cluster():
    cfg = FdeConfig(dim=5, k_sim=2, r_reps=1, fill_empty=True, seed=9)
    rng = np.random.default_rng(2)
    p = unit_rows(rng, 1, 5)
    blocks = generate_doc_fdes([p], cfg)[0].reshape(4, 5)
    for k in range(4):
        assert np.array_equal(blocks[k], p[0])


def test_fill_empty_picks_fewest_disagreeing_bits():
    # hyperplanes = axes: cluster index = (x>0) + 2*(y>0)
    cfg = FdeConfig(dim=2, k_sim=2, r_reps=1, fill_empty=True)
    P = np.array([[0.6, 0.8], [-0.9, -0.1]])  # clusters 3 and 0
    with with_hyperplanes([[1.0, 0.0], [0.0, 1.0]]):
        blocks = generate_doc_fdes([P], cfg)[0].reshape(4, 2)
    assert np.allclose(blocks[3], P[0])
    assert np.allclose(blocks[0], P[1])
    # cluster 1 is one bit from 3 (P[0]) and one bit from 0 (P[1]); tie -> lowest token index
    assert np.allclose(blocks[1], P[0])
    assert np.allclose(blocks[2], P[0])


@settings(max_examples=200, deadline=None)
@given(property_cases(), st.integers(1, 16), st.booleans())
def test_query_encoding_is_linear(case, d_proj, final):
    cfg, Q, _ = case
    cfg = dataclasses.replace(cfg, d_proj=min(d_proj, cfg.dim))
    raw = cfg.num_clusters * cfg.proj_dim * cfg.r_reps
    if final and raw > 1:
        cfg = dataclasses.replace(cfg, d_final=raw - 1)
    whole = generate_query_fdes([Q], cfg)[0]
    assert np.allclose(whole, generate_query_fdes(list(Q[:, None]), cfg).sum(axis=0), atol=1e-9)


def test_dot_product_matches_partitioned_average_oracle():
    # with fill disabled and identity projections the query-document dot
    # equals, per repetition, the sum over clusters of <q-sum, p-centroid>
    rng = np.random.default_rng(5)
    d = 8
    for r_reps in (1, 3):
        cfg = FdeConfig(dim=d, k_sim=3, r_reps=r_reps, fill_empty=False, seed=13)
        Q = unit_rows(rng, 4, d)
        P = unit_rows(rng, 6, d)
        fq = generate_query_fdes([Q], cfg)[0]
        fp = generate_doc_fdes([P], cfg)[0]

        per_rep = []
        for rep in range(r_reps):
            from fdesearch.encoding import partitioner_for_rep

            g = partitioner_for_rep(cfg, rep).gaussians
            qi = ((Q @ g.T) > 0).astype(int) @ (1 << np.arange(3))
            pi = ((P @ g.T) > 0).astype(int) @ (1 << np.arange(3))
            total = 0.0
            for k in range(8):
                in_p = [p for p, c in zip(P, pi) if c == k]
                if not in_p:
                    continue
                centroid = np.mean(in_p, axis=0)
                for q, c in zip(Q, qi):
                    if c == k:
                        total += float(q @ centroid)
            per_rep.append(total)
        assert float(fq @ fp) == pytest.approx(np.mean(per_rep), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(property_cases())
def test_estimate_never_exceeds_true_similarity(case):
    cfg, Q, P = case
    est = float(generate_query_fdes([Q], cfg)[0] @ generate_doc_fdes([P], cfg)[0]) / len(Q)
    best = (Q @ P.T).max(axis=1)
    if not cfg.fill_empty:
        best = np.maximum(best, 0.0)  # a query token whose cluster is empty in P scores 0
    assert est <= best.mean() + 1e-9
    if cfg.fill_empty:
        assert est <= nchamfer(Q, P) + 1e-9


@settings(max_examples=200, deadline=None)
@given(property_cases(), st.integers(1, 16))
def test_query_encoding_sparsity_bound(case, d_proj):
    cfg, Q, _ = case
    cfg = dataclasses.replace(cfg, d_proj=min(d_proj, cfg.dim))
    assert np.count_nonzero(generate_query_fdes([Q], cfg)[0]) <= len(Q) * cfg.proj_dim * cfg.r_reps


def test_output_length_always_matches_fde_dim():
    rng = np.random.default_rng(8)
    for cfg in (FdeConfig(dim=10, k_sim=2, r_reps=2),
                FdeConfig(dim=10, k_sim=3, d_proj=5, r_reps=3),
                FdeConfig(dim=10, k_sim=4, d_proj=2, r_reps=2, d_final=40)):
        Q = unit_rows(rng, 4, 10)
        assert generate_query_fdes([Q], cfg).shape == (1, fde_dim(cfg))
        assert generate_doc_fdes([Q], cfg).shape == (1, fde_dim(cfg))


def test_generation_input_validation():
    cfg = FdeConfig(dim=4, k_sim=2, r_reps=1)
    with pytest.raises(ValueError):
        generate_query_fdes([np.empty((0, 4))], cfg)
    with pytest.raises(ValueError):
        generate_query_fdes([np.ones((2, 5))], cfg)


def test_inner_project_identity_when_dims_match():
    cfg = FdeConfig(dim=6, k_sim=2, d_proj=6, r_reps=1)
    x = np.arange(6, dtype=float)
    assert projection_matrix(cfg, 0) is None
    # the encoder keeps the token's coordinates, as without d_proj
    assert np.array_equal(generate_query_fdes([x[None]], cfg),
                          generate_query_fdes([x[None]], dataclasses.replace(cfg, d_proj=None)))


def test_inner_project_zero_maps_to_zero():
    cfg = FdeConfig(dim=6, k_sim=2, d_proj=3, r_reps=1)
    assert np.array_equal(inner_project(np.zeros(6), 0, cfg), np.zeros(3))


def test_projection_matrix_entries_and_determinism():
    cfg = FdeConfig(dim=9, k_sim=2, d_proj=4, r_reps=2, seed=11)
    S0 = projection_matrix(cfg, 0)
    assert S0.shape == (4, 9)
    assert set(np.unique(S0).tolist()) <= {-1.0, 1.0}
    assert np.array_equal(S0, projection_matrix(cfg, 0))
    assert not np.array_equal(S0, projection_matrix(cfg, 1))


def test_inner_projection_preserves_dot_products_on_average():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    dots = []
    for seed in range(500):
        cfg = FdeConfig(dim=64, k_sim=1, d_proj=16, r_reps=1, seed=seed)
        dots.append(float(inner_project(x, 0, cfg) @ inner_project(y, 0, cfg)))
    dots = np.asarray(dots)
    stderr = dots.std(ddof=1) / np.sqrt(len(dots))
    assert abs(dots.mean() - float(x @ y)) <= 3 * stderr


def test_final_projection_basics():
    assert np.array_equal(_final_project(np.zeros((1, 30)), _final_matrix(30, 5, seed=0)), np.zeros((1, 5)))
    v = np.arange(30, dtype=float)[None]
    assert np.array_equal(_final_project(v, _final_matrix(30, 5, seed=4)),
                          _final_project(v, _final_matrix(30, 5, seed=4)))
    with pytest.raises(ValueError):
        _final_matrix(30, 30, seed=0)


def test_final_projection_preserves_dot_products_on_average():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(40)
    w = rng.standard_normal(40)
    dots = []
    for s in range(500):
        S = _final_matrix(40, 10, seed=s)
        dots.append(float(_final_project(v[None], S)[0] @ _final_project(w[None], S)[0]))
    dots = np.asarray(dots)
    stderr = dots.std(ddof=1) / np.sqrt(len(dots))
    assert abs(dots.mean() - float(v @ w)) <= 3 * stderr


def test_approximation_error_shrinks_with_more_hyperplanes():
    rng = np.random.default_rng(20240601)
    pairs = [matched_pair(rng, m=16, dim=32) for _ in range(120)]
    stats = {}
    for k_sim in (1, 3, 6):
        cfg = FdeConfig(dim=32, k_sim=k_sim, d_proj=32, r_reps=20, seed=5)
        qf = generate_query_fdes([q for q, _ in pairs], cfg)
        pf = generate_doc_fdes([p for _, p in pairs], cfg)
        errs = np.array([float(qf[i] @ pf[i]) / 16 - nchamfer(*pairs[i])
                         for i in range(len(pairs))])
        stats[k_sim] = (abs(float(errs.mean())), float(np.percentile(np.abs(errs), 95)))
    assert stats[1][0] > stats[3][0] > stats[6][0]
    assert stats[6][0] <= 0.05
    assert stats[6][1] <= 0.2


def test_kmeans_partitioned_encoding():
    rng = np.random.default_rng(12)
    tokens = unit_rows(rng, 300, 8)
    cfg = with_kmeans_partitions(FdeConfig(dim=8, r_reps=2, seed=3), tokens, b=4)
    assert cfg.num_clusters == 4
    assert fde_dim(cfg) == 4 * 8 * 2
    Q = unit_rows(rng, 3, 8)
    P = unit_rows(rng, 5, 8)
    fq = generate_query_fdes([Q], cfg)[0]
    fp = generate_doc_fdes([P], cfg)[0]
    assert fq.shape == (64,)
    assert np.all(np.isfinite(fp))
    assert config_fingerprint(cfg) == build_index([P], cfg).fingerprint
    # kmeans fill: every block of a one-point document equals that point
    single = generate_doc_fdes([P[:1]], cfg)[0].reshape(2 * 4, 8)
    for block in single:
        assert np.allclose(block * np.sqrt(2), P[0])


def test_kmeans_partitioners_need_the_kmeans_partitioner():
    """A sign-hash config carrying k-means partitioners would encode with sign hashing and write a
    kmeans section that read_index rejects; the config itself refuses the pair."""
    cfg = with_kmeans_partitions(FdeConfig(dim=8, r_reps=2, seed=3), unit_rows(np.random.default_rng(2), 50, 8), b=4)
    with pytest.raises(ValueError, match="partitioner='kmeans'"):
        dataclasses.replace(cfg, partitioner="simhash")


def test_fingerprint_tracks_every_parameter():
    base = FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=2, seed=1)
    assert config_fingerprint(base) == config_fingerprint(FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=2, seed=1))
    for change in (dict(seed=2), dict(k_sim=4), dict(d_proj=2), dict(r_reps=3),
                   dict(fill_empty=False), dict(d_final=10)):
        assert config_fingerprint(dataclasses.replace(base, **change)) != config_fingerprint(base)


def test_fill_empty_matches_scalar_hamming_oracle():
    # every empty cluster of a document holds the token whose hash index has
    # the fewest disagreeing bits with it, ties to the lowest token index
    rng = np.random.default_rng(31)
    for trial in range(20):
        k_sim = int(rng.integers(1, 8))
        cfg = FdeConfig(dim=6, k_sim=k_sim, r_reps=1, seed=trial)
        P = unit_rows(rng, int(rng.integers(1, 6)), 6)
        idx = assign_many(partitioner_for_rep(cfg, 0), P)
        blocks = generate_doc_fdes([P], cfg)[0].reshape(1 << k_sim, 6)
        for cluster in set(range(1 << k_sim)) - set(idx.tolist()):
            nearest = min(range(len(P)), key=lambda i: ((int(idx[i]) ^ cluster).bit_count(), i))
            assert np.array_equal(blocks[cluster], P[nearest])


def check_fill_against_scalar_oracles(docs, cfg):
    """Every empty cluster block of every document holds its nearest token, by a scalar rule per cell.

    Sign hashing: fewest disagreeing hash bits, ties to the lowest token.
    k-means: smallest squared distance to the cluster's center, ties to
    the lowest token. d_proj is None, so a block is its token times the
    repetition scale. Returns the number of empty cells checked.
    """
    b, r = cfg.num_clusters, cfg.r_reps
    scale = 1.0 / np.sqrt(r)
    stacked = np.vstack(docs)
    bounds = np.cumsum([0] + [len(P) for P in docs])
    blocks = generate_doc_fdes(docs, cfg).reshape(len(docs), r, b, cfg.dim)
    checked = 0
    for rep in range(r):
        part = partitioner_for_rep(cfg, rep)
        idx_all = assign_many(part, stacked)
        for j, P in enumerate(docs):
            idx = [int(h) for h in idx_all[bounds[j]:bounds[j + 1]]]
            for cluster in set(range(b)) - set(idx):
                if cfg.partitioner == "simhash":
                    nearest = min(range(len(P)), key=lambda i: ((idx[i] ^ cluster).bit_count(), i))
                else:
                    d2 = sq_dists(P, part.centers[cluster:cluster + 1])[:, 0]
                    nearest = min(range(len(P)), key=lambda i: (d2[i], i))
                assert same_bits(blocks[j, rep, cluster], P[nearest] * scale)
                checked += 1
    return checked


@st.composite
def hamming_fill_cases(draw):
    """Several documents of 1-60 tokens under 1-10 hash bits: cells the walk settles, cells it hands over."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    docs = [rng.standard_normal((m, dim)) for m in draw(st.lists(st.integers(1, 60), min_size=1, max_size=8))]
    if draw(st.booleans()):  # a half-integer grid: duplicate tokens and zero dots
        docs = [np.round(2 * d) / 2 for d in docs]
    cfg = FdeConfig(dim=dim, k_sim=draw(st.integers(1, 10)), r_reps=draw(st.integers(1, 2)), seed=draw(st.integers(0, 9)))
    return cfg, docs


@settings(max_examples=150, deadline=None)
@given(hamming_fill_cases(), st.sampled_from([64, encoding.BLOCK_TOKENS]))
def test_hamming_fill_matches_scalar_oracle_per_cell(case, block_tokens):
    cfg, docs = case
    with mock.patch.object(encoding, "BLOCK_TOKENS", block_tokens):  # 64: the batch splits over many blocks
        check_fill_against_scalar_oracles(docs, cfg)


def test_hamming_fill_walks_while_cheaper_than_pairs_then_hands_over():
    rng = np.random.default_rng(38)
    handed = []

    def spy(empty, *args):
        handed.append(empty.size)
        return fill_tokens(empty, *args)

    fill_tokens = encoding._fill_tokens
    with mock.patch.object(encoding, "_fill_tokens", spy):
        # 60 tokens over 16 clusters: C(4, r) never exceeds 60, so the walk settles every cell
        assert check_fill_against_scalar_oracles([rng.standard_normal((60, 3))], FdeConfig(dim=3, k_sim=4, r_reps=1)) > 0
        assert handed == []
        # 20 tokens over 1024 clusters: the walk settles the cells 1 bit from a token, and
        # C(10, 2) = 45 lookups per cell outnumber the 20 pairs, so the rest go pairwise
        cfg = FdeConfig(dim=8, k_sim=10, r_reps=1, seed=1)
        empty = check_fill_against_scalar_oracles([rng.standard_normal((20, 8))], cfg)
        assert len(handed) == 1 and 0 < handed[0] < empty
        # 4 tokens: 10 lookups per cell outnumber the 4 pairs before the first step
        handed.clear()
        empty = check_fill_against_scalar_oracles([rng.standard_normal((4, 8))], cfg)
        assert handed == [empty]
        # many blocks of mixed documents
        handed.clear()
        docs = [rng.standard_normal((int(m), 8)) for m in rng.integers(1, 61, size=40)]
        with mock.patch.object(encoding, "BLOCK_TOKENS", 64):
            check_fill_against_scalar_oracles(docs, FdeConfig(dim=8, k_sim=6, r_reps=2, seed=2))
        assert len(handed) > 1


def test_kmeans_fill_takes_the_nearest_center_token():
    rng = np.random.default_rng(39)
    docs = [rng.standard_normal((int(m), 6)) for m in rng.integers(1, 30, size=12)]
    cfg = with_kmeans_partitions(FdeConfig(dim=6, r_reps=2, seed=5), np.vstack(docs), b=24)
    with mock.patch.object(encoding, "_hamming_fill", side_effect=AssertionError("sign-hash walk on k-means")):
        assert check_fill_against_scalar_oracles(docs, cfg) > 0


def test_doc_fill_memory_does_not_grow_with_the_cluster_count_squared():
    import tracemalloc

    P = np.random.default_rng(32).standard_normal((4, 8))
    cfg = FdeConfig(dim=8, k_sim=12, r_reps=1)  # 4096 clusters, 4092 of them empty
    tracemalloc.start()
    try:
        generate_doc_fdes([P], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_build_index_allocates_no_float64_copy_of_the_encodings():
    import tracemalloc

    rng = np.random.default_rng(33)
    docs = [rng.standard_normal((16, 16)) for _ in range(300)]
    cfg = FdeConfig(dim=16, k_sim=4, r_reps=20)  # 5120 dims
    payload = len(docs) * fde_dim(cfg) * 4
    input_bytes = sum(d.nbytes for d in docs)
    build_index(docs[:2], cfg)
    tracemalloc.start()
    try:
        build_index(docs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (n, fde_dim) float64 array alone is twice the payload, i.e. 20x the input here
    assert peak < payload + 6 * input_bytes


def test_build_index_widens_one_block_of_tokens_at_a_time():
    import tracemalloc

    rng = np.random.default_rng(40)
    docs = [rng.standard_normal((32, 32)).astype(np.float32) for _ in range(1000)]  # 32000 tokens
    cfg = FdeConfig(dim=32, k_sim=2, d_proj=8, r_reps=2)  # a small payload: 64 dims a document
    payload = len(docs) * fde_dim(cfg) * 4
    wide_stack = sum(d.size for d in docs) * 8  # a float64 copy of every token
    workers = util._MAX_WORKERS
    # each worker's block temporaries: a float64 window of _PRODUCT_ROWS tokens and its projection
    block = encoding._PRODUCT_ROWS * (cfg.dim + cfg.d_proj) * 8
    # 125 blocks
    with mock.patch.object(encoding, "BLOCK_TOKENS", 256), mock.patch.object(util, "_workers", lambda: workers):
        build_index(docs[:2], cfg)
        tracemalloc.start()
        try:
            build_index(docs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the float32 stack the index keeps is half the float64 copy; each worker holds one block
    assert peak < wide_stack + payload + workers * block


def test_fill_memory_does_not_pad_to_the_longest_document():
    import tracemalloc

    rng = np.random.default_rng(34)
    docs = [rng.standard_normal((1, 4)) for _ in range(500)]
    docs.insert(250, rng.standard_normal((2000, 4)))
    cfg = FdeConfig(dim=4, k_sim=3, r_reps=2)
    generate_doc_fdes(docs[:2], cfg)
    tracemalloc.start()
    try:
        generate_doc_fdes(docs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (documents, longest document) int64 table alone is 501 * 2000 * 8 B = 7.6 MiB
    assert peak < 2 * 2 ** 20


def test_fingerprints_are_stable():
    # digests of files written by earlier versions; a change orphans every stored index
    tokens = np.random.default_rng(5).standard_normal((200, 8))
    pinned = [
        (FdeConfig(dim=32), "12a042a11152d07a"),
        (FdeConfig(dim=32, k_sim=5, d_proj=8, r_reps=20), "958b463a089c6d6a"),
        (FdeConfig(dim=16, k_sim=3, d_proj=None, r_reps=4, seed=2), "dc54f33ada6c640e"),
        (FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=2, d_final=10, seed=1), "8921ac02933ffe85"),
        (FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=2, fill_empty=False, seed=1), "afee95ba81193778"),
        (with_kmeans_partitions(FdeConfig(dim=8, r_reps=2, seed=3), tokens, b=4), "c09a3143bef32875"),
    ]
    for cfg, digest in pinned:
        assert config_fingerprint(cfg) == digest
    # an explicit d_proj equal to dim is the same encoding as d_proj=None
    assert config_fingerprint(FdeConfig(dim=16, k_sim=3, d_proj=16, r_reps=4, seed=2)) == "dc54f33ada6c640e"


def test_config_params_lists_every_scalar_field_once():
    cfg = FdeConfig(dim=16, k_sim=3, r_reps=4, d_final=50, seed=2)
    params = config_params(cfg)
    assert list(params) == [f.name for f in dataclasses.fields(FdeConfig) if f.name != "kmeans_partitioners"]
    assert params["d_proj"] == 16 and params["d_final"] == 50
    assert config_fingerprint(FdeConfig(**params)) == config_fingerprint(cfg)


def per_document_oracle(matrices, config):
    """The per-document encoder loop the batch document encoder replaced, kept as its bit-exact reference."""
    mats = [as_matrix(m) for m in matrices]
    b, t, r = config.num_clusters, config.proj_dim, config.r_reps
    stacked = np.vstack(mats)
    bounds = np.cumsum([0] + [m.shape[0] for m in mats])
    out = np.zeros((len(mats), b * t * r), dtype=np.float64)
    for rep in range(r):
        part = partitioner_for_rep(config, rep)
        idx_all = assign_many(part, stacked)
        S = projection_matrix(config, rep)
        proj_all = stacked if S is None else product(stacked, S) / np.sqrt(t)  # the encoder's product
        base = rep * b * t
        for j in range(len(mats)):
            lo, hi = bounds[j], bounds[j + 1]
            idx = idx_all[lo:hi]
            proj = proj_all[lo:hi]
            acc = np.zeros((b, t), dtype=np.float64)
            np.add.at(acc, idx, proj)
            counts = np.bincount(idx, minlength=b)
            nonempty = counts > 0
            acc[nonempty] /= counts[nonempty, None]
            if config.fill_empty and not nonempty.all():
                empty = np.flatnonzero(~nonempty)
                if isinstance(part, SimHashPartitioner):
                    dist = np.bitwise_count(idx[:, None] ^ empty[None, :])
                else:
                    dist = sq_dists(stacked[lo:hi], part.centers[empty])
                acc[empty] = proj[np.argmin(dist, axis=0)]
            out[j, base:base + b * t] = acc.ravel()
    out *= 1.0 / np.sqrt(r)
    if config.d_final is not None:
        out = _final_project(out, _final_matrix(out.shape[1], config.d_final, config.seed))
    return out


def per_query_oracle(queries, config):
    """Each query alone, repetition by repetition, summed with np.add.at; its hash bits (or center
    distances) and projections are the columns of one product with every repetition's hyperplanes
    (or centers) and projections stacked, the products that define a query's encoding."""
    b, t, r = config.num_clusters, config.proj_dim, config.r_reps
    parts = [partitioner_for_rep(config, rep) for rep in range(r)]
    projs = [projection_matrix(config, rep) for rep in range(r)]
    simhash = isinstance(parts[0], SimHashPartitioner)
    out = np.zeros((len(queries), b * t * r), dtype=np.float64)
    for j, Q in enumerate(queries):
        X = as_matrix(Q)
        if simhash:
            dots = product(X, np.vstack([p.gaussians for p in parts]))
        else:
            d2 = sq_dists(X, np.vstack([p.centers for p in parts]))
        proj_all = X if projs[0] is None else product(X, np.vstack(projs)) / np.sqrt(t)
        for rep in range(r):
            if simhash:
                k = config.k_sim
                idx = (dots[:, rep * k:(rep + 1) * k] > 0) @ (1 << np.arange(k))
            else:
                idx = np.argmin(d2[:, rep * b:(rep + 1) * b], axis=1)
            proj = proj_all if projs[0] is None else proj_all[:, rep * t:(rep + 1) * t]
            acc = np.zeros((b, t), dtype=np.float64)
            np.add.at(acc, idx, proj)
            out[j, rep * b * t:(rep + 1) * b * t] = acc.ravel()
    out *= 1.0 / np.sqrt(r)
    if config.d_final is not None:  # one query at a time, as each is encoded alone
        final = _final_matrix(out.shape[1], config.d_final, config.seed)
        out = np.vstack([_final_project(row[None], final) for row in out])
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def encoder_cases(draw):
    dim = draw(st.integers(1, 6))
    # 1-token documents mixed with long ones; a batch may hold a single document
    lengths = draw(st.lists(st.sampled_from([1, 1, 2, 3, 9, 40]), min_size=1, max_size=6))
    data_seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(data_seed)
    docs = [rng.standard_normal((m, dim)) for m in lengths]
    if draw(st.booleans()):  # a half-integer grid: duplicate tokens, zero dots and exact distance ties
        docs = [np.round(2 * d) / 2 for d in docs]
    cfg = FdeConfig(dim=dim, k_sim=draw(st.integers(1, 5)), d_proj=draw(st.one_of(st.none(), st.integers(1, dim))),
                    r_reps=draw(st.integers(1, 3)), fill_empty=draw(st.booleans()), seed=draw(st.integers(0, 9)))
    if draw(st.booleans()):
        cfg = with_kmeans_partitions(cfg, np.vstack(docs), b=draw(st.integers(1, 6)))
    if draw(st.booleans()):
        raw = cfg.num_clusters * cfg.proj_dim * cfg.r_reps
        if raw > 1:
            cfg = dataclasses.replace(cfg, d_final=draw(st.integers(1, raw - 1)))
    return cfg, docs


@settings(max_examples=300, deadline=None)
@given(encoder_cases(), st.sampled_from([1, 2, 5, 40, encoding.BLOCK_TOKENS]))
def test_batch_encoder_equals_the_per_document_loop(case, block_tokens):
    cfg, docs = case
    want_doc = per_document_oracle(docs, cfg)
    with mock.patch.object(encoding, "BLOCK_TOKENS", block_tokens):  # from one document per block to one block
        assert same_bits(generate_query_fdes(docs, cfg), per_query_oracle(docs, cfg))
        assert same_bits(generate_doc_fdes(docs, cfg), want_doc)
        # build_index encodes straight to float32; the result is the rounded float64 encoding
        assert same_bits(build_index(docs, cfg).dense, want_doc.astype(np.float32))


@settings(max_examples=100, deadline=None)
@given(encoder_cases(), st.booleans())
def test_a_batch_encodes_each_query_as_it_alone(case, long_query):
    cfg, queries = case
    if long_query:  # longer than the document encoder's product window
        queries = [*queries, np.random.default_rng(len(queries)).standard_normal((encoding._PRODUCT_ROWS + 3, cfg.dim))]
    batch = generate_query_fdes(queries, cfg)
    assert all(same_bits(row[None], generate_query_fdes([Q], cfg)) for row, Q in zip(batch, queries))


@pytest.mark.parametrize("block_tokens", [3, 200, 5000])
def test_blocks_of_a_long_stack_encode_as_one_block(block_tokens):
    """Past _PRODUCT_ROWS tokens each block's products run over a window of the stack: single-token
    documents and short trailing blocks still get the rows of the whole-stack product, also when a
    product has one column (a BLAS matrix-vector product unless util.product pads it). The tokens
    are float64, whose products with the +-1 projection round (float32 tokens' mostly do not)."""
    rng = np.random.default_rng(41)
    lengths = [*rng.integers(1, 40, size=300), 1, 1, 2, 1]
    docs = [rng.standard_normal((int(m), 32)) for m in lengths]
    assert sum(lengths) > encoding._PRODUCT_ROWS
    for cfg in (FdeConfig(dim=32, k_sim=5, d_proj=8, r_reps=2, seed=1),
                with_kmeans_partitions(FdeConfig(dim=32, d_proj=8, r_reps=2, seed=2), np.vstack(docs), b=6),
                # one-column products: one hyperplane, one projected coordinate, one center
                FdeConfig(dim=32, k_sim=3, d_proj=1, r_reps=2, seed=3),
                FdeConfig(dim=32, k_sim=1, d_proj=4, r_reps=2, seed=4),
                with_kmeans_partitions(FdeConfig(dim=32, d_proj=1, r_reps=2, seed=5), np.vstack(docs), b=1)):
        whole = generate_doc_fdes(docs, cfg), generate_query_fdes(docs, cfg)  # one block
        with mock.patch.object(encoding, "BLOCK_TOKENS", block_tokens):
            assert same_bits(generate_doc_fdes(docs, cfg), whole[0])
            assert same_bits(generate_query_fdes(docs, cfg), whole[1])


def test_a_config_draws_its_randomness_once():
    rng = np.random.default_rng(35)
    queries = [rng.standard_normal((int(rng.integers(1, 6)), 8)) for _ in range(10)]
    cfg = FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=3, d_final=20, seed=4)
    draws = Counter()

    def counting(seed, purpose, rep=0):
        draws[purpose, rep] += 1
        return derive_rng(seed, purpose, rep)

    with mock.patch.object(encoding, "derive_rng", counting), mock.patch.object(partition, "derive_rng", counting):
        first = [generate_query_fdes([Q], cfg)[0] for Q in queries]
    # hyperplanes and inner projection per repetition, one final projection
    assert len(draws) == 2 * 3 + 1 and set(draws.values()) == {1}
    later = [generate_query_fdes([Q], cfg)[0] for Q in queries]
    assert all(same_bits(a, b) for a, b in zip(first, later))


def test_a_replaced_config_encodes_as_a_fresh_one():
    rng = np.random.default_rng(36)
    docs = [rng.standard_normal((5, 8)) for _ in range(4)]
    base = FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=3, d_final=20, seed=1)
    generate_doc_fdes(docs, base)  # draws base's randomness
    for seed in (2, 3):
        fresh = FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=3, d_final=20, seed=seed)
        replaced = dataclasses.replace(base, seed=seed)
        for oracle, encode in ((per_document_oracle, generate_doc_fdes), (per_query_oracle, generate_query_fdes)):
            want = oracle(docs, fresh)  # draws afresh, bypassing any cache
            assert same_bits(encode(docs, replaced), want) and same_bits(encode(docs, fresh), want)


def test_concurrent_first_use_matches_the_sequential_run():
    rng = np.random.default_rng(37)
    corpus = [rng.standard_normal((int(rng.integers(1, 9)), 16)) for _ in range(60)]
    queries = [rng.standard_normal((int(rng.integers(1, 9)), 16)) for _ in range(40)]
    index = build_index(corpus, FdeConfig(dim=16, k_sim=4, d_proj=8, r_reps=6, seed=3))

    def unused_copy():
        cfg = dataclasses.replace(index.config)
        assert "_draws" not in vars(cfg)
        return FdeIndex(index.doc_ids, cfg, dense=index.dense, corpus=corpus)

    want = batch_query(unused_copy(), queries, 20, 5)
    shared = unused_copy()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda Q: query(shared, Q, 20, 5), queries))
    finally:
        sys.setswitchinterval(interval)
    assert [r.ranking for r in got] == [r.ranking for r in want]


@st.composite
def float32_cases(draw):
    """float32 documents, a config, k-means (centers, sample size) or None, and d_final as a share of the raw size."""
    dim = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.sampled_from([1, 1, 2, 3, 9, 40]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    docs = [(rng.standard_normal((m, dim)) * 3).astype(np.float32) for m in lengths]
    cfg = FdeConfig(dim=dim, k_sim=draw(st.integers(1, 5)), d_proj=draw(st.one_of(st.none(), st.integers(1, dim))),
                    r_reps=draw(st.integers(1, 3)), fill_empty=draw(st.booleans()), seed=draw(st.integers(0, 9)))
    kmeans = draw(st.one_of(st.none(), st.tuples(st.integers(1, 6), st.sampled_from([None, 4, 100_000]))))
    return cfg, docs, kmeans, draw(st.one_of(st.none(), st.floats(0, 1)))


@settings(max_examples=150, deadline=None)
@given(float32_cases(), st.sampled_from([1, 5, 40, encoding.BLOCK_TOKENS]))
def test_float32_tokens_encode_as_their_float64_cast(case, block_tokens):
    cfg, docs32, kmeans, final = case
    docs64 = [d.astype(np.float64) for d in docs32]
    cfg32 = cfg64 = cfg
    if kmeans is not None:  # each pool trains its own partitions: a float32 pool must give the same centers
        b, max_tokens = kmeans
        cfg32 = with_kmeans_partitions(cfg, np.vstack(docs32), b, max_tokens)
        cfg64 = with_kmeans_partitions(cfg, np.vstack(docs64), b, max_tokens)
        assert all(same_bits(p.centers, q.centers)
                   for p, q in zip(cfg32.kmeans_partitioners, cfg64.kmeans_partitioners))
        assert config_fingerprint(cfg32) == config_fingerprint(cfg64)
    raw = cfg32.num_clusters * cfg.proj_dim * cfg.r_reps
    if final is not None and raw > 1:
        d_final = 1 + int(final * (raw - 2))
        cfg32, cfg64 = (dataclasses.replace(c, d_final=d_final) for c in (cfg32, cfg64))
    with mock.patch.object(encoding, "BLOCK_TOKENS", block_tokens):
        assert same_bits(generate_doc_fdes(docs32, cfg32), generate_doc_fdes(docs64, cfg64))
        assert same_bits(generate_query_fdes(docs32, cfg32), generate_query_fdes(docs64, cfg64))
        assert same_bits(build_index(docs32, cfg32).dense, build_index(docs64, cfg64).dense)


def single_product(X, W):
    """X @ W.T as one BLAS call, with util.product's zero row for a one-row W."""
    if len(W) == 1:
        return (X @ np.vstack([W, np.zeros_like(W)]).T)[:, :1]
    return X @ W.T


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20_000), st.integers(1, 64), st.integers(1, 128), st.sampled_from([np.float32, np.float64]),
       st.integers(0, 2 ** 32 - 1))
def test_chunked_product_equals_one_product(m, n, k, dtype, seed):
    rng = np.random.default_rng(seed)
    X, W = rng.standard_normal((m, k)).astype(dtype), rng.standard_normal((n, k)).astype(dtype)
    per_row, cap = max(n, 2) * k, util._PRODUCT_MACS
    rows = np.diff(util._row_chunks(m, per_row))
    assert rows.sum() == m and np.ptp(rows) <= 1
    if len(rows) > 1:  # no chunk on OpenBLAS's pool, none near its small-matrix kernel
        assert rows.min() >= 2 and cap // 2 <= rows.min() * per_row and rows.max() * per_row <= cap
    else:  # it fits, or two chunks would fall below the floor
        assert m * per_row <= cap or m // 2 * per_row < cap // 2
    assert same_bits(product(X, W), single_product(X, W))


def pool_of(workers):
    """Patch the encoder's CPU count, and record the thread pools it opens."""
    opened = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    return opened, mock.patch.multiple(util, _workers=lambda: workers, ThreadPoolExecutor=Pool)


def test_the_block_pool_gives_the_serial_bytes():
    rng = np.random.default_rng(42)
    docs = [rng.standard_normal((int(m), 16)) for m in rng.integers(1, 30, size=120)]
    stack = np.vstack(docs)
    configs = [FdeConfig(dim=16, k_sim=4, d_proj=8, r_reps=3, seed=1),
               FdeConfig(dim=16, k_sim=3, r_reps=2, fill_empty=False, seed=2),
               FdeConfig(dim=16, k_sim=4, d_proj=4, r_reps=3, d_final=40, seed=3),
               # one-column products: one hyperplane, one projected coordinate, one center
               FdeConfig(dim=16, k_sim=1, d_proj=1, r_reps=2, seed=4),
               with_kmeans_partitions(FdeConfig(dim=16, d_proj=8, r_reps=2, seed=5), stack, b=12),
               with_kmeans_partitions(FdeConfig(dim=16, d_proj=1, r_reps=2, fill_empty=False, seed=6), stack, b=1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so a write lost between blocks would show
    try:
        with mock.patch.object(encoding, "BLOCK_TOKENS", 64):  # ~27 blocks
            for cfg in configs:
                encodings = {}
                for workers in (1, 3):
                    opened, patch = pool_of(workers)
                    with patch:
                        index = build_index(docs, cfg)
                        encodings[workers] = generate_doc_fdes(docs, cfg), index.dense
                    assert opened == ([] if workers == 1 else [3, 3])  # generate_doc_fdes, build_index
                assert all(same_bits(a, b) for a, b in zip(encodings[1], encodings[3]))
    finally:
        sys.setswitchinterval(interval)


def test_a_late_block_that_overflows_names_its_first_document_from_the_pool():
    import warnings

    rng = np.random.default_rng(43)
    docs = [rng.standard_normal((8, 16)) for _ in range(200)]
    for late in (170, 185):  # finite in float64, not in float32
        docs[late] = np.full((8, 16), 1e39)
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=8, r_reps=2)
    for pq in (None, PqSpec(c=4, g=8)):
        opened, patch = pool_of(2)
        with mock.patch.object(encoding, "BLOCK_TOKENS", 64), patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="document 170 has"):
                build_index(docs, cfg, pq=pq)
        assert opened  # 25 blocks over 2 workers


def test_a_served_query_never_opens_the_pool():
    rng = np.random.default_rng(44)
    docs = [rng.standard_normal((int(m), 16)) for m in rng.integers(1, 30, size=60)]
    queries = [rng.standard_normal((int(m), 16)) for m in rng.integers(1, 30, size=8)]
    index = build_index(docs, FdeConfig(dim=docs[0].shape[1], k_sim=4, d_proj=8, r_reps=4))
    opened, patch = pool_of(8)
    with patch:
        query(index, queries[0], 20, 5, carve_tau=0.7)
        batch_query(index, queries, 20, 5)
        generate_query_fdes(queries, index.config)
    assert opened == []
