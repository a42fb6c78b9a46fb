"""The screened exact rerank ranks exactly as scoring every candidate with chamfer."""

import importlib
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import evaluation
from fdesearch.chamfer import TokenCorpus, brute_force_topk, chamfer, chamfer_top_k
from fdesearch.encoding import FdeConfig, generate_query_fdes
from fdesearch.engine import ball_carve, build_index, mips_search, query
from fdesearch.evaluation import chamfer_one_nn
from fdesearch.synth import SynthSpec, generate_synthetic

chamfer_module = importlib.import_module("fdesearch.chamfer")  # the package attribute is the function


def by_chamfer(Q, docs, ids, k):
    """Every document scored with chamfer, sorted by (-score, id): the reference ranking."""
    scored = sorted(((-chamfer(Q, P), int(i)) for P, i in zip(docs, ids)))
    return [(i, -s) for s, i in scored[:k]]


def hexed(ranking):
    return [(d, s.hex()) for d, s in ranking]


@st.composite
def rerank_cases(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 12))
    docs = [draw(arrays(np.float32, (draw(st.integers(1, 5)), d), elements=st.floats(-4, 4, width=32)))
            for _ in range(n)]  # 1-token documents included
    kind = draw(st.sampled_from(["float32", "float64", "huge"]))
    for i in range(n):
        scale = draw(st.sampled_from([1.0, 1e-30, 1e30, 1e-42]))  # 1e-42: float32 subnormals
        if kind != "float32":  # below float32 resolution in every entry: the screen sees the rounded tokens
            wobble = draw(arrays(np.float64, docs[i].shape, elements=st.floats(-2.0 ** -23, 2.0 ** -23)))
            docs[i] = docs[i].astype(np.float64) * (1 + wobble)
        if kind == "huge" and draw(st.booleans()):
            scale = 1e39  # finite in float64, overflows float32: every candidate is rescored
        docs[i] = (docs[i] * scale).astype(np.float32 if kind == "float32" else np.float64)
    # a document may copy an earlier one, then have its columns permuted (against a constant
    # query only summation order separates the scores) or be nudged by one ulp (near ties)
    for i in range(n):
        j = draw(st.integers(0, i))
        docs[i] = docs[j].copy()
        change = draw(st.sampled_from(["none", "permute", "nudge"]))
        if change == "permute":
            docs[i] = docs[i][:, draw(st.permutations(range(d)))].copy()
        elif change == "nudge":
            docs[i][0, 0] = np.nextafter(docs[i][0, 0], docs[i].dtype.type(np.inf))
    m = draw(st.integers(1, 6))
    Q = draw(arrays(np.float64, (m, d), elements=st.floats(-4, 4)))
    qkind = draw(st.sampled_from(["plain", "float32", "constant", "tiny", "subnormal", "huge", "zero"]))
    if qkind == "float32":
        Q = Q.astype(np.float32).astype(np.float64)
    elif qkind == "constant":
        Q = np.repeat(Q[:, :1], d, axis=1)
    elif qkind == "tiny":
        Q = Q * 1e-30
    elif qkind == "subnormal":
        Q = Q * 1e-45  # rounds to float32 subnormals or to zero
    elif qkind == "huge":
        Q = Q * 1e39
        Q[0, 0] = 1e39  # the float32 cast overflows: every candidate is rescored
    elif qkind == "zero":
        Q = np.zeros((m, d))
    rows = np.array(draw(st.permutations(range(n))), dtype=np.int64)[:draw(st.integers(1, n))]
    ids = np.array(draw(st.permutations(range(n))), dtype=np.int64) * 3 + 7  # one per document
    k = draw(st.one_of(st.just(len(rows)), st.integers(1, len(rows) + 2)))  # k = every candidate, or any
    block = draw(st.sampled_from([1, 40, chamfer_module.SCREEN_BLOCK]))  # one document per block, a few, all
    return docs, Q, rows, ids, k, block


@settings(max_examples=400, deadline=None)
@given(rerank_cases())
def test_screened_rerank_equals_scoring_every_candidate(case):
    docs, Q, rows, ids, k, block = case
    corpus = TokenCorpus(docs, ids)
    assert corpus.tokens.dtype == docs[0].dtype
    want = by_chamfer(Q, [docs[r] for r in rows], ids[rows], k)
    everything = by_chamfer(Q, docs, range(len(docs)), k)
    with mock.patch.object(chamfer_module, "SCREEN_BLOCK", block):
        assert hexed(chamfer_top_k(Q, corpus, rows, k)) == hexed(want)
        assert hexed(brute_force_topk(Q, docs, k)) == hexed(everything)


def test_rerank_scores_only_a_shortlist():
    docs, queries, _ = generate_synthetic(SynthSpec(num_docs=300, num_queries=6, num_clusters=20, seed=4))
    corpus = [m for _, m in docs]
    calls = []

    def counted(Q, P):
        calls.append(1)
        return chamfer(Q, P)

    for _, Q in queries:
        calls.clear()
        with mock.patch.object(chamfer_module, "chamfer", counted):
            got = brute_force_topk(Q, corpus, 10)
        assert len(calls) < 30  # of 300 documents
        assert hexed(got) == hexed(by_chamfer(Q, corpus, range(len(corpus)), 10))


def test_chamfer_one_nn_stacks_the_corpus_once():
    docs, queries, _ = generate_synthetic(SynthSpec(num_docs=60, num_queries=5, num_clusters=6, seed=8))
    corpus = [m for _, m in docs]
    with mock.patch.object(evaluation, "TokenCorpus", wraps=TokenCorpus) as stacked:
        one_nn = chamfer_one_nn([q for _, q in queries], corpus)
    assert stacked.call_count == 1
    assert one_nn == {i: by_chamfer(q, corpus, range(60), 1)[0][0] for i, (_, q) in enumerate(queries)}


@pytest.fixture(scope="module")
def served():
    docs, queries, _ = generate_synthetic(SynthSpec(num_docs=150, num_queries=10, num_clusters=10,
                                                    tokens_per_doc=(4, 24), query_tokens=24, seed=5))
    corpus = [m for _, m in docs]
    corpus[7] = corpus[3].copy()  # exact ties in scan and rerank
    corpus[90] = corpus[3].copy()
    return corpus, [q for _, q in queries]


def rerank(Q, doc_ids, doc_matrix, final_k):
    """The rerank as a benchmark composes it: chamfer per candidate, sorted by (-score, id)."""
    scored = [(d, chamfer(Q, doc_matrix(d))) for d in doc_ids]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:final_k]


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("tau", [None, 0.7])
def test_query_equals_a_per_candidate_chamfer_composition(served, wide, tau):
    corpus, queries = served
    if wide:  # a float64 corpus that is not float32-exact
        corpus = [m.astype(np.float64) * (1 + 2.0 ** -30) for m in corpus]
    cfg = FdeConfig(dim=corpus[0].shape[1], k_sim=3, d_proj=8, r_reps=4, seed=3)
    index = build_index(corpus, cfg)
    assert index.corpus.tokens.dtype == (np.float64 if wide else np.float32)
    for kc, fk in ((60, 10), (25, 25), (150, 3)):
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda Q: query(index, Q, kc, fk, carve_tau=tau), queries))
        for Q, res in zip(queries, results):
            cands = [d for d, _ in mips_search(index, generate_query_fdes([Q], cfg)[0], kc)]
            rq = Q if tau is None else ball_carve(Q, tau).vectors
            assert hexed(res.ranking) == hexed(rerank(rq, cands, index.doc_matrix, fk))
            assert res.ranking == query(index, Q, kc, fk, carve_tau=tau).ranking


def test_rerank_skips_the_screen_when_it_keeps_every_candidate(served):
    corpus, queries = served
    tokens = TokenCorpus(corpus, np.arange(len(corpus)) * 3 + 1)
    rows = np.arange(0, len(corpus), 7)
    ids = rows * 3 + 1
    cfg = FdeConfig(dim=corpus[0].shape[1], k_sim=3, d_proj=8, r_reps=4, seed=3)
    index = build_index(corpus, cfg)
    with mock.patch.object(chamfer_module, "_screen", side_effect=AssertionError("screened")) as screen:
        for Q in queries:
            for k in (len(rows), len(rows) + 3):
                want = by_chamfer(Q, [corpus[r] for r in rows], ids, k)
                assert hexed(chamfer_top_k(Q, tokens, rows, k)) == hexed(want)
            rq = ball_carve(Q, 0.7).vectors
            cands = [d for d, _ in mips_search(index, generate_query_fdes([Q], cfg)[0], 10)]
            assert hexed(query(index, Q, 10, 10, carve_tau=0.7).ranking) == \
                hexed(by_chamfer(rq, [corpus[d] for d in cands], cands, 10))
    screen.assert_not_called()


def test_attached_float32_corpus_is_held_once_in_float32(served):
    corpus, _ = served
    cfg = FdeConfig(dim=corpus[0].shape[1], k_sim=3, d_proj=8, r_reps=2)
    index = build_index(corpus, cfg)
    tokens = index.corpus.tokens
    assert tokens.dtype == np.float32 and tokens.nbytes == sum(m.nbytes for m in corpus)
    for i in (0, 7, 149):
        view = index.doc_matrix(i)
        assert np.shares_memory(view, tokens) and view.tobytes() == corpus[i].tobytes()


def test_screen_bounds_float32_rounding_and_underflow():
    s = 2.0 ** -149  # the smallest float32 subnormal
    cases = [
        # query entries that round to float32 zero or subnormals, against large tokens:
        # the rounding term D of the bound covers the screen's error
        (np.array([[0.4 * s, 0.6 * s]]), [[[1e30, 0.0]], [[0.0, 0.6e30]]]),
        # products that round to zero or to the subnormal grid: the floor of the bound covers them
        (np.full((1, 2), float(np.float32(1e-20))),
         [[[0.9 * s / 2e-20, 0.9 * s / 2e-20]], [[1.1 * s / 2e-20, 0.0]]]),
    ]
    for Q, docs in cases:
        docs = [np.array(d, dtype=np.float32) for d in docs]
        assert chamfer(Q, docs[0]) > chamfer(Q, docs[1])  # while the float32 screen ranks them the other way
        for k in (1, 2):
            assert hexed(brute_force_topk(Q, docs, k)) == hexed(by_chamfer(Q, docs, range(2), k))
