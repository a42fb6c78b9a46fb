import dataclasses

import numpy as np
import pytest

from fdesearch.chamfer import nchamfer
from fdesearch.encoding import (
    FdeConfig,
    config_fingerprint,
    config_params,
    fde_dim,
    final_project_many,
    generate_doc_fde,
    generate_doc_fdes,
    generate_query_fde,
    generate_query_fdes,
    inner_project,
    partitioner_for_rep,
    projection_matrix,
    with_kmeans_partitions,
)
from fdesearch.partition import assign_many, hamming, simhash_from_gaussians
from fdesearch.synth import matched_pair


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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
    out = generate_query_fde(q, cfg)
    assert out.side == "query"
    blocks = out.values.reshape(2, 6)
    nonzero = [k for k in range(2) if np.any(blocks[k] != 0)]
    assert len(nonzero) == 1
    assert np.array_equal(blocks[nonzero[0]], q[0])


def test_query_block_is_the_sum_of_colliding_points():
    part = simhash_from_gaussians([[1.0, 0.0]])
    cfg = FdeConfig(dim=2, k_sim=1, r_reps=1)
    Q = np.array([[0.6, 0.8], [0.9, -0.2]])  # both on the positive side
    out = generate_query_fde(Q, cfg, partitioners=[part])
    blocks = out.values.reshape(2, 2)
    assert np.allclose(blocks[1], Q.sum(axis=0))
    assert np.allclose(blocks[0], 0.0)


def test_doc_block_is_the_average_not_the_sum():
    part = simhash_from_gaussians([[1.0, 0.0]])
    cfg = FdeConfig(dim=2, k_sim=1, r_reps=1, fill_empty=False)
    P = np.array([[0.6, 0.8], [0.9, -0.2]])
    out = generate_doc_fde(P, cfg, partitioners=[part])
    blocks = out.values.reshape(2, 2)
    assert np.allclose(blocks[1], P.mean(axis=0))
    assert np.allclose(blocks[0], 0.0)


def test_single_point_doc_fills_every_cluster():
    cfg = FdeConfig(dim=5, k_sim=2, r_reps=1, fill_empty=True, seed=9)
    rng = np.random.default_rng(2)
    p = unit_rows(rng, 1, 5)
    blocks = generate_doc_fde(p, cfg).values.reshape(4, 5)
    for k in range(4):
        assert np.array_equal(blocks[k], p[0])


def test_fill_empty_picks_fewest_disagreeing_bits():
    # hyperplanes = axes: cluster index = (x>0) + 2*(y>0)
    part = simhash_from_gaussians([[1.0, 0.0], [0.0, 1.0]])
    cfg = FdeConfig(dim=2, k_sim=2, r_reps=1, fill_empty=True)
    P = np.array([[0.6, 0.8], [-0.9, -0.1]])  # clusters 3 and 0
    blocks = generate_doc_fde(P, cfg, partitioners=[part]).values.reshape(4, 2)
    assert np.allclose(blocks[3], P[0])
    assert np.allclose(blocks[0], P[1])
    # cluster 1 is one bit from 3 (P[0]) and one bit from 0 (P[1]); tie -> lowest token index
    assert np.allclose(blocks[1], P[0])
    assert np.allclose(blocks[2], P[0])


def test_query_encoding_is_linear():
    rng = np.random.default_rng(4)
    cfg = FdeConfig(dim=12, k_sim=3, d_proj=6, r_reps=4, seed=7)
    Q = unit_rows(rng, 5, 12)
    whole = generate_query_fde(Q, cfg).values
    parts = sum(generate_query_fde(Q[i:i + 1], cfg).values for i in range(5))
    assert np.allclose(whole, parts, atol=1e-9)


def test_dot_product_matches_partitioned_average_oracle():
    # with fill disabled and identity projections the query-document dot
    # equals, per repetition, the sum over clusters of <q-sum, p-centroid>
    rng = np.random.default_rng(5)
    d = 8
    for r_reps in (1, 3):
        cfg = FdeConfig(dim=d, k_sim=3, r_reps=r_reps, fill_empty=False, seed=13)
        Q = unit_rows(rng, 4, d)
        P = unit_rows(rng, 6, d)
        fq = generate_query_fde(Q, cfg).values
        fp = generate_doc_fde(P, cfg).values

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


def test_estimate_never_exceeds_true_similarity():
    rng = np.random.default_rng(6)
    for trial in range(150):
        d = int(rng.choice([4, 8, 16]))
        Q = unit_rows(rng, int(rng.integers(1, 9)), d)
        P = unit_rows(rng, int(rng.integers(1, 9)), d)
        cfg = FdeConfig(dim=d, k_sim=int(rng.integers(1, 6)),
                        r_reps=int(rng.integers(1, 4)), seed=trial)
        est = float(generate_query_fde(Q, cfg).values @ generate_doc_fde(P, cfg).values)
        assert est / Q.shape[0] <= nchamfer(Q, P) + 1e-9


def test_query_encoding_sparsity_bound():
    rng = np.random.default_rng(7)
    for trial in range(50):
        m = int(rng.integers(1, 9))
        cfg = FdeConfig(dim=16, k_sim=5, d_proj=4, r_reps=3, seed=trial)
        values = generate_query_fde(unit_rows(rng, m, 16), cfg).values
        assert np.count_nonzero(values) <= m * 4 * 3


def test_output_length_always_matches_fde_dim():
    rng = np.random.default_rng(8)
    for cfg in (FdeConfig(dim=10, k_sim=2, r_reps=2),
                FdeConfig(dim=10, k_sim=3, d_proj=5, r_reps=3),
                FdeConfig(dim=10, k_sim=4, d_proj=2, r_reps=2, d_final=40)):
        Q = unit_rows(rng, 4, 10)
        assert generate_query_fde(Q, cfg).values.shape == (fde_dim(cfg),)
        assert generate_doc_fde(Q, cfg).values.shape == (fde_dim(cfg),)


def test_generation_input_validation():
    cfg = FdeConfig(dim=4, k_sim=2, r_reps=1)
    with pytest.raises(ValueError):
        generate_query_fde(np.empty((0, 4)), cfg)
    with pytest.raises(ValueError):
        generate_query_fde(np.ones((2, 5)), cfg)


def test_inner_project_identity_when_dims_match():
    cfg = FdeConfig(dim=6, k_sim=2, d_proj=6, r_reps=1)
    x = np.arange(6, dtype=float)
    assert np.array_equal(inner_project(x, 0, cfg), x)
    assert projection_matrix(cfg, 0) is None


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
    assert np.array_equal(final_project_many([np.zeros(30)], 5, seed=0)[0], np.zeros(5))
    v = np.arange(30, dtype=float)
    assert np.array_equal(final_project_many([v], 5, seed=4)[0], final_project_many([v], 5, seed=4)[0])
    with pytest.raises(ValueError):
        final_project_many([v], 30, seed=0)


def test_final_projection_preserves_dot_products_on_average():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(40)
    w = rng.standard_normal(40)
    dots = np.asarray([float(final_project_many([v], 10, seed=s)[0] @ final_project_many([w], 10, seed=s)[0])
                       for s in range(500)])
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
    fq = generate_query_fde(Q, cfg)
    fp = generate_doc_fde(P, cfg)
    assert fq.values.shape == (64,)
    assert np.all(np.isfinite(fp.values))
    assert fq.fingerprint == fp.fingerprint
    # kmeans fill: every block of a one-point document equals that point
    single = generate_doc_fde(P[:1], cfg).values.reshape(2 * 4, 8)
    for block in single:
        assert np.allclose(block * np.sqrt(2), P[0])


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
        blocks = generate_doc_fde(P, cfg).values.reshape(1 << k_sim, 6)
        for cluster in set(range(1 << k_sim)) - set(idx.tolist()):
            nearest = min(range(len(P)), key=lambda i: (hamming(idx[i], cluster, k_sim), i))
            assert np.array_equal(blocks[cluster], P[nearest])


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
