import numpy as np
import pytest

from fdesearch.chamfer import brute_force_topk, chamfer, nchamfer


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def chamfer_oracle(Q, P):
    """Independent double-loop reference."""
    total = 0.0
    for q in Q:
        best = -np.inf
        for p in P:
            best = max(best, float(np.dot(q, p)))
        total += best
    return total


def test_identical_vector_scores_one():
    assert chamfer([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0)


def test_two_queries_direct_evaluation():
    assert chamfer([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0]]) == pytest.approx(1.0)


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    Q = unit_rows(rng, 3, 4)
    P = unit_rows(rng, 5, 4)
    assert chamfer(Q, P) == pytest.approx(chamfer_oracle(Q, P), abs=1e-9)


def test_not_symmetric():
    Q = [[1.0, 0.0], [0.6, 0.8]]
    P = [[1.0, 0.0]]
    assert chamfer(Q, P) == pytest.approx(1.6)  # 1 + <(0.6,0.8),(1,0)>
    assert chamfer(P, Q) == pytest.approx(1.0)
    assert chamfer(Q, P) != chamfer(P, Q)


def test_dimension_mismatch_and_empty_inputs():
    with pytest.raises(ValueError):
        chamfer([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        chamfer(np.empty((0, 2)), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        chamfer([[1.0, 0.0]], np.empty((0, 2)))


def test_nchamfer_examples():
    assert nchamfer([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0]]) == pytest.approx(0.5)
    assert nchamfer([[1.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)


def test_nchamfer_range_for_normalized_inputs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        Q = unit_rows(rng, int(rng.integers(1, 6)), 8)
        P = unit_rows(rng, int(rng.integers(1, 6)), 8)
        v = nchamfer(Q, P)
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_chamfer_bounded_by_query_count():
    rng = np.random.default_rng(12)
    Q = unit_rows(rng, 7, 6)
    P = unit_rows(rng, 4, 6)
    assert chamfer(Q, P) <= 7 + 1e-12


def test_growing_p_never_decreases_score():
    rng = np.random.default_rng(13)
    Q = unit_rows(rng, 4, 5)
    P = unit_rows(rng, 3, 5)
    extra = unit_rows(rng, 1, 5)
    assert chamfer(Q, np.vstack([P, extra])) >= chamfer(Q, P) - 1e-12


def test_topk_single_document():
    Q = [[1.0, 0.0]]
    assert brute_force_topk(Q, [np.array([[0.5, 0.5]])], 1) == [(0, pytest.approx(0.5))]


def test_topk_exact_copy_ranks_first():
    rng = np.random.default_rng(14)
    Q = unit_rows(rng, 4, 8)
    ortho = np.zeros((2, 8))
    ortho[0, 6] = 1.0
    ortho[1, 7] = 1.0
    corpus = [ortho.copy() for _ in range(5)]
    corpus.insert(3, Q.copy())
    top = brute_force_topk(Q, corpus, 1)
    assert top[0][0] == 3
    assert top[0][1] == pytest.approx(4.0, abs=1e-9)


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(15)
    Q = unit_rows(rng, 3, 6)
    corpus = [unit_rows(rng, int(rng.integers(2, 7)), 6) for _ in range(50)]
    scores = [chamfer_oracle(Q, P) for P in corpus]
    expected = sorted(range(50), key=lambda i: (-scores[i], i))[:10]
    got = [doc for doc, _ in brute_force_topk(Q, corpus, 10)]
    assert got == expected


def test_topk_with_k_equal_n_is_a_permutation():
    rng = np.random.default_rng(16)
    Q = unit_rows(rng, 2, 4)
    corpus = [unit_rows(rng, 3, 4) for _ in range(12)]
    result = brute_force_topk(Q, corpus, 12)
    assert sorted(doc for doc, _ in result) == list(range(12))
    scores = [s for _, s in result]
    assert scores == sorted(scores, reverse=True)


def test_topk_validates_inputs():
    with pytest.raises(ValueError):
        brute_force_topk([[1.0]], [], 1)
    with pytest.raises(ValueError):
        brute_force_topk([[1.0]], [np.array([[1.0]])], 0)
