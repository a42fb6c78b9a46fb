import numpy as np
import pytest

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
