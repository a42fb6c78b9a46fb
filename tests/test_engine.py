from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fdesearch.chamfer import brute_force_topk, chamfer
from fdesearch.encoding import FdeConfig, fde_dim, generate_query_fde, generate_query_fdes, projection_matrix
from fdesearch.engine import FdeIndex, PqSpec, ball_carve, batch_query, build_index, mips_search, query
from fdesearch.pq import PqCodebook, pq_decode_many
from fdesearch.synth import SynthSpec, generate_synthetic


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def small_dataset():
    docs, queries, qrels = generate_synthetic(
        SynthSpec(num_docs=120, num_queries=12, num_clusters=12, seed=2))
    return [m for _, m in docs], [m for _, m in queries], qrels


CFG = FdeConfig(dim=32, k_sim=4, d_proj=8, r_reps=6, seed=1)


def test_single_document_index(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus[:1], CFG)
    assert index.num_docs == 1
    res = query(index, queries[0], k_candidates=1, final_k=1)
    assert [doc for doc, _ in res.ranking] == [0]


def test_build_validation():
    with pytest.raises(ValueError):
        build_index([], CFG)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_index([unit_rows(rng, 3, 32), unit_rows(rng, 3, 16)], CFG)


def test_mips_full_ranking_matches_sorted_dots(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    qfde = generate_query_fde(queries[0], CFG)
    got = mips_search(index, qfde, k_candidates=len(corpus))
    dots = index.dense.astype(np.float64) @ qfde.values
    expected = sorted(range(len(corpus)), key=lambda i: (-dots[i], i))
    assert [doc for doc, _ in got] == expected


def test_mips_finds_a_planted_orthogonal_encoding():
    # one stored encoding equals the query encoding, all others orthogonal
    cfg = FdeConfig(dim=4, k_sim=1, r_reps=1, seed=0)
    index = build_index([np.eye(4)[:1], np.eye(4)[1:2], np.eye(4)[2:3]], cfg)
    v = index.dense[1].astype(np.float64)
    others = np.delete(index.dense, 1, axis=0).astype(np.float64)
    assume_orthogonal = np.all(np.abs(others @ v) < np.dot(v, v) - 1e-9)
    assert assume_orthogonal
    top_doc, top_dot = mips_search(index, v, 1)[0]
    assert top_doc == 1
    assert top_dot == pytest.approx(float(v @ v), abs=1e-6)


def test_mips_fingerprint_check(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    other = generate_query_fde(queries[0], FdeConfig(dim=32, k_sim=4, d_proj=8, r_reps=6, seed=99))
    with pytest.raises(ValueError):
        mips_search(index, other, 5)


def test_pq_index_dots_equal_decode_then_dot(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG, pq=PqSpec(c=16, g=8))
    qfde = generate_query_fde(queries[0], CFG)
    got = mips_search(index, qfde, k_candidates=len(corpus))
    decoded = pq_decode_many(index.codebook, index.codes)
    dots = decoded @ qfde.values
    expected = sorted(range(len(corpus)), key=lambda i: (-dots[i], i))
    assert [doc for doc, _ in got] == expected
    for doc, dot in got[:10]:
        assert dot == pytest.approx(float(dots[doc]), abs=1e-6)


def test_pq_index_storage_accounting(small_dataset):
    corpus, _, _ = small_dataset
    cfg = FdeConfig(dim=32, k_sim=5, d_proj=8, r_reps=20, seed=1)  # 5120 dims
    index = build_index(corpus, cfg, pq=PqSpec(c=256, g=8))
    assert index.payload_bytes_per_doc == 5120 // 8
    dense = build_index(corpus, cfg)
    assert dense.payload_bytes_per_doc == 5120 * 4


def test_ball_carve_all_singletons_above_max_dot():
    rng = np.random.default_rng(5)
    Q = unit_rows(rng, 6, 8)
    carved = ball_carve(Q, tau=1.01)
    assert carved.num_clusters == 6
    assert np.array_equal(carved.vectors, Q)


def test_ball_carve_merges_identical_vectors():
    v = np.array([0.6, 0.8])
    Q = np.vstack([v, v])
    carved = ball_carve(Q, tau=0.99)
    assert carved.num_clusters == 1
    assert np.allclose(carved.vectors[0], 2 * v)


def test_ball_carve_conserves_the_token_sum():
    rng = np.random.default_rng(6)
    for tau in (-0.5, 0.2, 0.7, 0.95):
        Q = unit_rows(rng, 10, 6)
        carved = ball_carve(Q, tau)
        assert np.allclose(carved.vectors.sum(axis=0), Q.sum(axis=0), atol=1e-6)
        assert sorted(i for g in carved.members for i in g) == list(range(10))


def test_carved_chamfer_equals_sum_of_group_maxima():
    rng = np.random.default_rng(7)
    Q = unit_rows(rng, 8, 6)
    P = unit_rows(rng, 5, 6)
    carved = ball_carve(Q, 0.6)
    expected = sum(max(float(c @ p) for p in P) for c in carved.vectors)
    assert chamfer(carved.vectors, P) == pytest.approx(expected, abs=1e-9)


def test_exhaustive_rerank_equals_brute_force(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    n = len(corpus)
    for Q in queries[:6]:
        res = query(index, Q, k_candidates=n, final_k=5)
        assert res.ranking == brute_force_topk(Q, corpus, 5)
        assert res.candidates_retrieved == n
        assert set(res.timings) == {"fde_gen", "mips", "rerank"}


def test_high_tau_carving_is_identical_to_no_carving(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    for Q in queries[:4]:
        plain = query(index, Q, k_candidates=30, final_k=10)
        carved = query(index, Q, k_candidates=30, final_k=10, carve_tau=1.5)
        assert carved.ranking == plain.ranking


def test_final_projection_keeps_sides_aligned(small_dataset):
    # the final +/-1 matrix is shared between query and document sides, so
    # large dot products survive the projection up to JL-scale noise; an
    # unshared matrix would send them to ~zero
    corpus, queries, _ = small_dataset
    raw_cfg = FdeConfig(dim=32, k_sim=4, d_proj=8, r_reps=16, seed=3)
    proj_cfg = FdeConfig(dim=32, k_sim=4, d_proj=8, r_reps=16, seed=3, d_final=512)
    raw_idx = build_index(corpus, raw_cfg)
    proj_idx = build_index(corpus, proj_cfg)
    assert proj_idx.fde_dim == 512
    for Q in queries:
        raw_dots = raw_idx.dense.astype(np.float64) @ generate_query_fdes([Q], raw_cfg)[0]
        proj_dots = proj_idx.dense.astype(np.float64) @ generate_query_fdes([Q], proj_cfg)[0]
        top = int(np.argmax(raw_dots))
        assert abs(proj_dots[top] - raw_dots[top]) <= 0.5 * raw_dots[top]


def test_query_duplicated_as_document_is_retrieved():
    rng = np.random.default_rng(8)
    Q = unit_rows(rng, 5, 32)
    corpus = [unit_rows(rng, 5, 32) for _ in range(30)]
    corpus[17] = Q.copy()
    cfg = FdeConfig(dim=32, k_sim=3, d_proj=8, r_reps=4, seed=2)
    index = build_index(corpus, cfg)
    # direct computation: the duplicate maximizes both the encoding dot
    # product and the exact similarity
    qfde = generate_query_fdes([Q], cfg)[0]
    dots = index.dense.astype(np.float64) @ qfde
    assert int(np.argmax(dots)) == 17
    scores = [chamfer(Q, P) for P in corpus]
    assert int(np.argmax(scores)) == 17
    res = query(index, Q, k_candidates=1, final_k=1)
    assert res.ranking[0][0] == 17


def test_pipeline_hit_rate_at_least_pure_encoding_ranking(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    one_nn = {i: brute_force_topk(Q, corpus, 1)[0][0] for i, Q in enumerate(queries)}
    n_eval = 30
    doc_fdes = index.dense.astype(np.float64)
    pure_hits, pipeline_hits = 0, 0
    for i, Q in enumerate(queries):
        qfde = generate_query_fdes([Q], CFG)[0]
        dots = doc_fdes @ qfde
        order = np.lexsort((np.arange(len(corpus)), -dots))[:n_eval]
        pure_hits += one_nn[i] in set(order.tolist())
        res = query(index, Q, k_candidates=n_eval, final_k=n_eval)
        pipeline_hits += any(doc == one_nn[i] for doc, _ in res.ranking)
    assert pipeline_hits >= pure_hits


def test_recall_is_monotone_in_candidate_count(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    one_nn = {i: brute_force_topk(Q, corpus, 1)[0][0] for i, Q in enumerate(queries)}
    hits = []
    for k_cand in (5, 20, 60, len(corpus)):
        found = 0
        for i, Q in enumerate(queries):
            res = query(index, Q, k_candidates=k_cand, final_k=5)
            found += any(doc == one_nn[i] for doc, _ in res.ranking)
        hits.append(found)
    assert hits == sorted(hits)


def test_query_parameter_validation(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    with pytest.raises(ValueError):
        query(index, queries[0], k_candidates=5, final_k=6)


def test_batch_query_parallel_matches_sequential(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    seq = batch_query(index, queries, 20, 5)
    with ThreadPoolExecutor(4) as pool:  # callers may run query() from their own threads
        par = list(pool.map(lambda Q: query(index, Q, 20, 5), queries))
    assert [r.ranking for r in seq] == [r.ranking for r in par]


def test_rerank_requires_attached_corpus(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    index.corpus = None
    with pytest.raises(ValueError):
        query(index, queries[0], k_candidates=5, final_k=5)


@pytest.mark.parametrize("bad", ["width", "rows", "float64", "nan"])
def test_index_rejects_malformed_dense(bad):
    dense = np.ones((3, fde_dim(CFG)), dtype=np.float32)
    FdeIndex([0, 1, 2], CFG, dense=dense)
    if bad == "width":
        dense = dense[:, 1:]
    elif bad == "rows":
        dense = dense[1:]
    elif bad == "float64":
        dense = dense.astype(np.float64)
    else:
        dense[1, 5] = np.nan
    with pytest.raises(ValueError):
        FdeIndex([0, 1, 2], CFG, dense=dense)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_document_tokens(small_dataset, bad):
    corpus, _, _ = small_dataset
    doc = corpus[3].copy()
    doc[1, 2] = bad
    with pytest.raises(ValueError):
        build_index(corpus[:3] + [doc], CFG)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_query_rejects_non_finite_tokens_and_encodings(small_dataset, bad):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    Q = queries[0].copy()
    Q[0, 0] = bad
    with pytest.raises(ValueError):
        query(index, Q, k_candidates=5, final_k=5)
    qvals = generate_query_fdes([queries[0]], CFG)[0]
    qvals[7] = bad
    with pytest.raises(ValueError):
        mips_search(index, qvals, 5)


def test_query_rejects_an_encoding_that_overflows(small_dataset):
    corpus, _, _ = small_dataset
    index = build_index(corpus, CFG)
    Q = np.full((4, 32), 1e308)  # finite tokens whose cluster sum overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="query encoding"):
        query(index, Q, k_candidates=5, final_k=5)


@pytest.mark.parametrize("pq", [None, PqSpec(c=4, g=8)])
def test_build_rejects_encodings_that_overflow_float32(small_dataset, pq):
    corpus, _, _ = small_dataset
    huge = np.full_like(corpus[5], 1e39, dtype=np.float64)  # finite in float64, not in float32
    with pytest.raises(ValueError, match="document 5"):
        build_index(corpus[:5] + [huge] + corpus[6:10], CFG, pq=pq)


def test_pq_build_names_the_first_document_that_overflows_in_any_repetition():
    cfg = FdeConfig(dim=4, k_sim=1, d_proj=1, r_reps=2, seed=0)  # one 1-column projection a repetition
    late = 1e39 * np.array([1.0, 0.0, 1.0, 0.0])  # finite in float64
    early = 1e39 * np.array([1.0, 1.0, 0.0, 0.0])
    s0, s1 = projection_matrix(cfg, 0)[0], projection_matrix(cfg, 1)[0]
    assert s0 @ late == 0 and s1 @ late != 0 and s0 @ early != 0  # late overflows float32 in repetition 1 only
    rng = np.random.default_rng(5)
    docs = [rng.standard_normal((3, 4)) for _ in range(5)]
    docs[1], docs[3] = late[None], early[None]
    for pq in (None, PqSpec(c=2, g=2)):  # with g=2 the PQ build encodes one repetition at a time
        with pytest.raises(ValueError, match="document 1 has"):
            build_index(docs, cfg, pq=pq)


def test_huge_query_raises_only_value_error(small_dataset):
    import warnings

    corpus, _, _ = small_dataset
    index = build_index(corpus, CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="query encoding"):
            query(index, np.full((4, 32), 1e308), k_candidates=5, final_k=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_attached_corpus_must_be_finite(small_dataset, bad):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG)
    doc = corpus[4].copy()
    doc[0, 0] = bad
    tainted = corpus[:4] + [doc] + corpus[5:]
    with pytest.raises(ValueError, match="document 4"):
        index.attach_corpus(tainted)
    with pytest.raises(ValueError, match="document 4"):
        FdeIndex(index.doc_ids, CFG, dense=index.dense, corpus=tainted)
    assert query(index, queries[0], k_candidates=5, final_k=5).ranking  # the old corpus stays attached


def test_attached_corpus_must_match_the_config_dim(small_dataset):
    corpus, _, _ = small_dataset
    index = build_index(corpus, CFG)
    with pytest.raises(ValueError, match="config.dim"):
        index.attach_corpus(corpus[:3] + [corpus[3][:, :16]] + corpus[4:])


def test_build_errors_name_the_doc_id(small_dataset):
    corpus, _, _ = small_dataset
    doc = corpus[2].copy()
    doc[0, 0] = np.nan
    with pytest.raises(ValueError, match="document 72 tokens"):
        build_index(corpus[:2] + [doc], CFG, doc_ids=[70, 71, 72])
    with pytest.raises(ValueError, match="2 doc ids for 3 documents"):
        build_index(corpus[:3], CFG, doc_ids=[70, 71])


def test_index_rejects_out_of_range_codes_at_construction(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG, pq=PqSpec(c=4, g=8))
    book, codes = index.codebook, index.codes
    FdeIndex(index.doc_ids, CFG, codebook=book, codes=codes)
    out_of_range = codes.copy()
    out_of_range[7, 3] = book.effective_c[3]
    negative = codes.astype(np.int16)
    negative[7, 3] = -1
    fractional = codes + 0.5  # in range, but not a code: truncating it to uint8 would be silent garbage
    # 1-D codes, the wrong width, out-of-range codes; the 1-D index codes hold one code per document
    # (so the row count matches), the decoder's one per group (one vector's codes)
    for index_codes, decode_codes in [(codes[:, 0], codes[0]), (codes[:, :-1], codes[:, :-1]),
                                      (out_of_range, out_of_range), (negative, negative),
                                      (fractional, fractional)]:
        with pytest.raises(ValueError):
            FdeIndex(index.doc_ids, CFG, codebook=book, codes=index_codes)
        with pytest.raises(ValueError, match="code"):
            pq_decode_many(book, decode_codes)


def test_index_rejects_a_codebook_of_another_dimension_at_construction():
    cfg = FdeConfig(dim=8, k_sim=2, r_reps=2)
    assert fde_dim(cfg) == 64
    book = PqCodebook(centers=np.zeros((2, 4, 8)), effective_c=np.ones(2, dtype=np.int64))  # 16 dims
    with pytest.raises(ValueError, match="codebook dimension 16"):
        FdeIndex([0, 1, 2], cfg, codebook=book, codes=np.zeros((3, 2), dtype=np.uint8))


def test_pq_index_holds_its_codes_once_group_major(small_dataset):
    corpus, queries, _ = small_dataset
    index = build_index(corpus, CFG, pq=PqSpec(c=4, g=8))
    assert index.codes.T.flags.c_contiguous
    assert index.codes is index.backend.codes
    again = FdeIndex(index.doc_ids, CFG, codebook=index.codebook, codes=index.codes)
    assert np.shares_memory(again.codes, index.codes)  # already group-major: no copy
    row_major = FdeIndex(index.doc_ids, CFG, codebook=index.codebook, codes=np.ascontiguousarray(index.codes))
    assert row_major.codes.T.flags.c_contiguous and np.array_equal(row_major.codes, index.codes)
    for Q in queries[:4]:
        assert mips_search(row_major, generate_query_fdes([Q], CFG)[0], 20) == \
            mips_search(index, generate_query_fdes([Q], CFG)[0], 20)


def test_doc_matrix_of_an_unindexed_id_is_a_value_error(small_dataset):
    corpus, _, _ = small_dataset
    index = build_index(corpus, CFG)
    assert np.array_equal(index.doc_matrix(3), corpus[3])
    with pytest.raises(ValueError, match="document 999 is not in the index"):
        index.doc_matrix(999)
