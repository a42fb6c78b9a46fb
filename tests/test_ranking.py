"""The one ranking rule: descending score, ties broken by ascending id."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch.util import top_k

# -0.0 and 0.0 compare equal and must tie; NaN ranks after -inf
SPECIAL = [-np.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 1e300, -1e-300, np.inf, np.nan]


@st.composite
def distinct_row(draw, n):
    """n distinct numbers with up to 5 each of NaN, inf and -inf written over them."""
    row = np.array(draw(st.permutations(range(n))), dtype=np.float64) - n / 2
    for value in (np.nan, np.inf, -np.inf):
        row[draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 5)))] = value
    return row


def score_row(n):
    """n scores: either drawn from 1-4 of SPECIAL, so the k-th score ties up to n times, or
    distinct apart from a few NaN and +-inf, so a cut that miscounts NaN keeps too few."""
    return st.one_of(st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=4).flatmap(
        lambda pool: arrays(np.float64, n, elements=st.sampled_from(pool))), distinct_row(n))


def k_for(n):
    """k at the edges (0, 1, n, past n), anywhere, and small against n."""
    return st.one_of(st.sampled_from([0, 1, n - 1, n, n + 3]), st.integers(0, n + 2),
                     st.integers(0, min(n, 10)))


def sorted_positions(ids, scores, k):
    """Positions by (NaN last, descending score, ascending id, position), from Python's sort."""
    def key(p):
        s = scores[p]
        return (math.isnan(s), 0.0 if math.isnan(s) else -s, ids[p], p)
    return sorted(range(len(scores)), key=key)[:max(k, 0)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 300))
def test_top_k_equals_sorted_by_score_then_id(data, n):
    scores = data.draw(score_row(n))
    ids = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=np.int64)
    k = data.draw(k_for(n))
    got = top_k(ids, scores, k)
    assert got.shape == (min(max(k, 0), n),)
    assert got.tolist() == sorted_positions(ids.tolist(), scores.tolist(), k)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), n=st.integers(1, 300))
def test_top_k_ranks_each_row_of_a_matrix_alone(data, rows, n):
    # each row draws its own values, so rows keep different numbers of ties at the cut
    scores = np.stack([data.draw(score_row(n)) for _ in range(rows)])
    ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    k = data.draw(k_for(n))
    got = top_k(ids, scores, k)
    assert got.shape == (rows, min(k, n))
    for r in range(rows):
        assert got[r].tolist() == sorted_positions(ids.tolist(), scores[r].tolist(), k)


def test_top_k_sorts_only_the_survivors_of_the_cut(monkeypatch):
    rng = np.random.default_rng(0)
    rows, n, k = 32, 64000, 125
    scores = rng.permutation(rows * n).reshape(rows, n).astype(np.float64)  # distinct, so no ties at the cut
    ids = np.arange(n)
    sizes, lexsort = [], np.lexsort

    def spy(keys, axis=-1):
        sizes.append(max(np.size(key) for key in keys))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", spy)
    got = top_k(ids, scores, k)
    monkeypatch.undo()
    assert sizes and max(sizes) <= rows * k
    assert np.array_equal(got, np.lexsort((np.broadcast_to(ids, scores.shape), -scores))[:, :k])
