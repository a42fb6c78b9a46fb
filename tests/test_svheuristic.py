import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdesearch import svheuristic
from fdesearch.svheuristic import build_token_index, sv_candidates


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def interleave_oracle(Q, tokens, owners, k, dedup):
    """Independent rank-major interleave from full per-query sorts."""
    per_query = []
    for q in np.asarray(Q, dtype=np.float64):
        dots = [(-float(q @ t), pos) for pos, t in enumerate(tokens)]
        order = [pos for _, pos in sorted(dots)]
        per_query.append(order[:k])
    out = []
    for rank in range(k):
        for order in per_query:
            if rank < len(order):
                out.append(int(owners[order[rank]]))
    if not dedup:
        return out
    seen, unique = set(), []
    for d in out:
        if d not in seen:
            seen.add(d)
            unique.append(d)
    return unique


def stable_argsort_oracle(Q, index, k, dedup):
    """The candidate list as a full stable argsort of -dots produces it."""
    dots = np.asarray(Q, dtype=np.float64) @ index.tokens.T
    top = np.argsort(-dots, axis=1, kind="stable")[:, :min(k, index.num_tokens)]
    out = [int(d) for d in index.owners[top.T.ravel()]]
    if not dedup:
        return out
    seen, unique = set(), []
    for d in out:
        if d not in seen:
            seen.add(d)
            unique.append(d)
    return unique


def test_ownership_layout():
    rng = np.random.default_rng(1)
    corpus = [unit_rows(rng, 3, 4), unit_rows(rng, 5, 4)]
    index = build_token_index(corpus)
    assert index.num_tokens == 8
    assert index.owners.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]


def test_single_document_owns_everything():
    rng = np.random.default_rng(2)
    index = build_token_index([unit_rows(rng, 6, 4)])
    assert set(index.owners.tolist()) == {0}
    cands = sv_candidates(unit_rows(rng, 2, 4), index, 3, dedup=True)
    assert cands == [0]


def test_total_token_count():
    rng = np.random.default_rng(3)
    sizes = [int(rng.integers(1, 9)) for _ in range(20)]
    corpus = [unit_rows(rng, m, 5) for m in sizes]
    assert build_token_index(corpus).num_tokens == sum(sizes)


def test_single_query_vector_top3():
    tokens = np.array([[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)], [0.0, 1.0], [-1.0, 0.0]])
    corpus = [tokens[i:i + 1] for i in range(4)]
    index = build_token_index(corpus)
    assert sv_candidates(np.array([[1.0, 0.0]]), index, 3, dedup=False) == [0, 1, 2]


def test_matches_interleave_oracle():
    rng = np.random.default_rng(4)
    corpus = [unit_rows(rng, int(rng.integers(2, 6)), 6) for _ in range(15)]
    index = build_token_index(corpus)
    Q = unit_rows(rng, 4, 6)
    for dedup in (False, True):
        got = sv_candidates(Q, index, 7, dedup=dedup)
        want = interleave_oracle(Q, index.tokens, index.owners, 7, dedup)
        assert got == want


def test_dedup_list_properties():
    rng = np.random.default_rng(5)
    corpus = [unit_rows(rng, 4, 5) for _ in range(10)]
    index = build_token_index(corpus)
    Q = unit_rows(rng, 3, 5)
    full = sv_candidates(Q, index, 6, dedup=False)
    unique = sv_candidates(Q, index, 6, dedup=True)
    assert len(full) == 3 * 6
    assert len(set(unique)) == len(unique)
    it = iter(full)
    assert all(any(u == f for f in it) for u in unique)  # subsequence


def test_k_clamps_to_token_count():
    rng = np.random.default_rng(6)
    corpus = [unit_rows(rng, 2, 4) for _ in range(3)]
    index = build_token_index(corpus)
    Q = unit_rows(rng, 2, 4)
    got = sv_candidates(Q, index, 100, dedup=False)
    assert len(got) == 2 * 6  # clamped to 6 tokens per query vector


def test_scan_cost_accounting():
    rng = np.random.default_rng(7)
    corpus = [unit_rows(rng, 4, 8) for _ in range(5)]
    index = build_token_index(corpus)
    assert index.scan_cost(3) == 3 * 20 * 8


def test_input_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        build_token_index([])
    index = build_token_index([unit_rows(rng, 2, 4)])
    with pytest.raises(ValueError):
        sv_candidates(unit_rows(rng, 2, 5), index, 1, dedup=False)
    with pytest.raises(ValueError):
        sv_candidates(unit_rows(rng, 2, 4), index, 0, dedup=False)


@pytest.mark.parametrize("dedup", [False, True])
def test_tied_dots_match_the_stable_argsort_oracle(dedup):
    # integer-grid tokens and queries give exact ties, including -0.0 against 0.0; with 400
    # documents (~1000 tokens, 27 distinct) the k-th dot ties across hundreds of tokens
    rng = np.random.default_rng(9)
    Q = np.array([[1.0, 0.0, 0.0], [-0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    for num_docs in (25, 400):
        corpus = [rng.integers(-1, 2, size=(int(rng.integers(1, 5)), 3)).astype(np.float64)
                  for _ in range(num_docs)]
        index = build_token_index(corpus, doc_ids=rng.permutation(4 * num_docs)[:num_docs])
        for k in (1, 3, 7, 40, index.num_tokens - 1, index.num_tokens, index.num_tokens + 5):
            assert sv_candidates(Q, index, k, dedup=dedup) == stable_argsort_oracle(Q, index, k, dedup)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tokens_are_rejected(bad):
    rng = np.random.default_rng(10)
    corpus = [unit_rows(rng, 3, 4) for _ in range(4)]
    doc = corpus[2].copy()
    doc[1, 3] = bad
    with pytest.raises(ValueError, match="document 2"):
        build_token_index(corpus[:2] + [doc] + corpus[3:])
    with pytest.raises(ValueError, match="document 12"):
        build_token_index(corpus[:2] + [doc] + corpus[3:], doc_ids=[10, 11, 12, 13])
    index = build_token_index(corpus)
    Q = unit_rows(rng, 2, 4)
    Q[0, 0] = bad
    with pytest.raises(ValueError, match="query"):
        sv_candidates(Q, index, 2, dedup=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_dots_raise_naming_the_query_token():
    # finite tokens whose true dots are 0 and -2e400; the float64 matmul gives NaN and -inf
    index = build_token_index([np.array([[1e200, -1e200]]), np.array([[-1e200, -1e200]])])
    with pytest.raises(ValueError, match="query token 0"):
        sv_candidates(np.array([[1e200, 1e200]]), index, 2, dedup=False)
    with pytest.raises(ValueError, match="query token 1"):
        sv_candidates(np.array([[1e-200, 0.0], [1e200, 1e200]]), index, 2, dedup=False)
    # past the norm guard but every dot finite: ranked as usual
    assert sv_candidates(np.array([[1e100, 0.0]]), index, 2, dedup=False) == [0, 1]


def dedup_list(ids):
    seen = set()
    return [d for d in ids if not (d in seen or seen.add(d))]


def test_the_index_keeps_the_corpus_dtype():
    rng = np.random.default_rng(11)
    docs = [rng.standard_normal((3, 4)) for _ in range(3)]
    assert build_token_index(docs).tokens.dtype == np.float64
    assert build_token_index([d.astype(np.float32) for d in docs]).tokens.dtype == np.float32
    mixed = build_token_index([docs[0].astype(np.float32), docs[1]])  # float64 input is not rounded
    assert mixed.tokens.dtype == np.float64 and (mixed.tokens[3:] == docs[1]).all()


@st.composite
def scan_cases(draw):
    """An index (float32, float64 that is not float32-exact, float64 near-copies of a few tokens
    whose dots differ below float32 resolution, or an integer grid with exact ties and signed zeros
    in either dtype), a query, and k from 1 to the token count + 5 (small k more often)."""
    dim = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["float32", "float64", "near64", "grid32", "grid64"]))
    if kind.startswith("grid"):
        def draw_rows(r):
            return rng.integers(-1, 2, size=(r, dim)) * rng.choice([-1.0, 1.0], size=(r, dim))  # -0.0 too
    elif kind == "near64":
        base = rng.standard_normal((sum(lengths) // 6 + 1, dim))

        def draw_rows(r):
            return base[rng.integers(0, len(base), size=r)] + 1e-9 * rng.standard_normal((r, dim))
    else:
        def draw_rows(r):
            return rng.standard_normal((r, dim))
    docs = [draw_rows(r) for r in lengths]
    if kind.endswith("32"):
        docs = [x.astype(np.float32) for x in docs]
    k = draw(st.one_of(st.integers(1, 8), st.integers(1, sum(lengths) + 5)))
    return build_token_index(docs, doc_ids=rng.permutation(2 * len(docs))[:len(docs)]), draw_rows(m), k


@settings(max_examples=300, deadline=None)
@given(scan_cases(), st.booleans())
def test_candidates_equal_the_per_pair_oracle_and_each_token_alone(case, dedup):
    index, Q, k = case
    got = sv_candidates(Q, index, k, dedup=dedup)
    assert got == interleave_oracle(Q, index.tokens, index.owners, k, dedup)
    # a query token's hits do not depend on the other tokens of its query
    alone = [sv_candidates(q[None], index, k, dedup=False) for q in Q]
    interleaved = [hits[r] for r in range(len(alone[0])) for hits in alone]
    assert got == (dedup_list(interleaved) if dedup else interleaved)


def test_the_screen_scores_few_pairs_exactly():
    rng = np.random.default_rng(12)
    index = build_token_index([unit_rows(rng, 20, 8).astype(np.float32) for _ in range(100)])
    Q = unit_rows(rng, 8, 8)
    scored = []
    real = svheuristic._dots

    def counting(q, tokens, rows, cols):
        scored.append(len(rows))
        return real(q, tokens, rows, cols)

    with mock.patch.object(svheuristic, "_dots", counting):
        got = sv_candidates(Q, index, 10, dedup=False)
    assert got == interleave_oracle(Q, index.tokens, index.owners, 10, False)
    assert 8 * 10 <= sum(scored) <= 8 * 40  # at most 4k pairs a query token, against 2000 tokens


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hits_the_float32_screen_misorders_are_kept(dtype):
    # tokens of norm ~100 nearly orthogonal to the query: their dots of ~0.06 carry float32
    # rounding errors of ~1e-5, far above the 1e-6 spread of the 12 best, so the float32 order of
    # those 12 is not the exact one; the other tokens' dots sit near -0.06
    rng = np.random.default_rng(15)
    d, k = 32, 4
    q = rng.standard_normal(d)
    unit = q / np.linalg.norm(q)
    ortho = rng.standard_normal((400, d))
    ortho -= np.outer(ortho @ unit, unit)
    ortho *= 100 / np.linalg.norm(ortho, axis=1, keepdims=True)
    sign = np.where(np.arange(400) % 33 == 0, 1.0, -1.0)  # 12 tokens lean towards the query
    lean = 0.01 * (1 + 1e-5 * rng.standard_normal(400))
    tokens = (ortho + (sign * lean)[:, None] * unit).astype(dtype)
    index = build_token_index([tokens[i:i + 4] for i in range(0, 400, 4)])
    exact = np.argsort(-(index.tokens.astype(np.float64) @ q), kind="stable")[:k]
    screen = np.argsort(-(index.tokens.astype(np.float32) @ q.astype(np.float32)), kind="stable")[:k]
    assert set(exact) != set(screen)  # the case is one a screen without its bound gets wrong
    assert sv_candidates(q[None], index, k, dedup=False) == interleave_oracle(q[None], index.tokens,
                                                                              index.owners, k, False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_dots_beyond_float32_range_rank_as_the_oracle(dtype):
    # dots of ~1e50 overflow a float32 product but not the float64 one
    rng = np.random.default_rng(13)
    corpus = [(unit_rows(rng, 4, 6) * 1e25).astype(dtype) for _ in range(30)]
    index = build_token_index(corpus)
    Q = unit_rows(rng, 3, 6) * 1e25
    for k in (1, 7):
        for dedup in (False, True):
            got = sv_candidates(Q, index, k, dedup=dedup)
            assert got == interleave_oracle(Q, index.tokens, index.owners, k, dedup)
    # a query beyond float32 range against small tokens: every dot is finite
    Q = unit_rows(rng, 2, 6) * 1e39
    small = build_token_index([(unit_rows(rng, 4, 6) * 1e-10).astype(dtype) for _ in range(30)])
    assert sv_candidates(Q, small, 7, dedup=False) == interleave_oracle(Q, small.tokens, small.owners, 7, False)


def test_a_tied_index_holds_little_more_than_the_float32_screen():
    # every dot of a query token ties: the screen keeps everything, so the scan goes exact one
    # query token at a time instead of holding a survivor position per (query token, index token)
    m, n, d, k = 32, 64000, 4, 125
    index = build_token_index([np.full((64, d), 0.5, dtype=np.float32)] * (n // 64))
    Q = np.random.default_rng(14).standard_normal((m, d))
    tracemalloc.start()
    try:
        got = sv_candidates(Q, index, k, dedup=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [int(index.owners[r]) for r in range(k) for _ in range(m)]  # ties go to the lower position
    assert peak < 2 * m * n * 4 + 4 * n * d * 8
