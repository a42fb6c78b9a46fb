"""The one ranking rule: descending score, ties broken by ascending id."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import util
from fdesearch.util import FULL_SORT_MAX, top_k

# 0 sends every 0 < k < n input through partial selection; the shipped value full-sorts small ones
BOTH_PATHS = st.sampled_from([0, FULL_SORT_MAX])

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
@given(data=st.data(), n=st.integers(0, 300), full_sort_max=BOTH_PATHS)
def test_top_k_equals_sorted_by_score_then_id(data, n, full_sort_max):
    scores = data.draw(score_row(n))
    ids = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=np.int64)
    k = data.draw(k_for(n))
    with mock.patch.object(util, "FULL_SORT_MAX", full_sort_max):
        got = top_k(ids, scores, k)
    assert got.shape == (min(max(k, 0), n),)
    assert got.tolist() == sorted_positions(ids.tolist(), scores.tolist(), k)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), n=st.integers(1, 300), full_sort_max=BOTH_PATHS)
def test_top_k_ranks_each_row_of_a_matrix_alone(data, rows, n, full_sort_max):
    # each row draws its own values, so rows keep different numbers of ties at the cut
    scores = np.stack([data.draw(score_row(n)) for _ in range(rows)])
    ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    k = data.draw(k_for(n))
    with mock.patch.object(util, "FULL_SORT_MAX", full_sort_max):
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(1, FULL_SORT_MAX - 1), (1, FULL_SORT_MAX), (1, FULL_SORT_MAX + 1),
                                              (2, FULL_SORT_MAX // 2), (2, FULL_SORT_MAX // 2 + 1),
                                              (1, FULL_SORT_MAX + 40)]))
def test_top_k_matches_the_full_sort_on_both_sides_of_the_size_cut(data, shape):
    rows, n = shape
    scores = np.stack([data.draw(score_row(n)) for _ in range(rows)])
    ids = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=np.int64)
    k = data.draw(k_for(n))
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        got = top_k(ids, scores, k)
    for r in range(rows):
        assert got[r].tolist() == sorted_positions(ids.tolist(), scores[r].tolist(), k)
    if scores.size <= FULL_SORT_MAX:  # small inputs are ranked by one lexsort of every entry
        assert spy.call_count == 1 and np.size(spy.call_args.args[0][1]) == scores.size


@st.composite
def sparse_row(draw, n, k, w):
    """A row that is all NaN, holds fewer than k numbers, or holds its numbers in one stripe
    (positions s, s+w, ...), so that fewer than k stripe maxima are numbers."""
    row = np.full(n, np.nan)
    kind = draw(st.sampled_from(["all-nan", "few", "one-stripe"]))
    if kind == "few":
        at = draw(st.lists(st.integers(0, n - 1), max_size=k - 1))
    else:
        at = range(draw(st.integers(0, w - 1)), n, w) if kind == "one-stripe" else []
    row[list(at)] = draw(st.lists(st.sampled_from(SPECIAL), min_size=len(at), max_size=len(at)))
    return row


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(2, 4), k=st.integers(1, 8), stripe_rows=st.integers(2, 5))
def test_top_k_cut_at_stripe_maxima_matches_the_full_sort(data, rows, k, stripe_rows):
    w = 8 * k
    n = stripe_rows * w + data.draw(st.integers(0, w - 1))  # the tail may be empty or not
    scores = np.stack([data.draw(st.one_of(score_row(n), sparse_row(n, k, w))) for _ in range(rows)])
    ids = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)  # tied ids
    with mock.patch.object(util, "FULL_SORT_MAX", 0):
        got = top_k(ids, scores, k)
    assert got.shape == (rows, k)
    for r in range(rows):
        assert got[r].tolist() == sorted_positions(ids.tolist(), scores[r].tolist(), k)


def test_top_k_makes_no_copy_of_the_scores():
    scores = np.random.default_rng(0).standard_normal((32, 64000))
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        top_k(np.arange(64000), scores, 125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < scores.nbytes / 4


@pytest.mark.parametrize("kind", ["signed-zeros", "two-valued"])
def test_top_k_keeps_only_the_ties_at_the_cut_that_can_rank(kind):
    # every row ties at its cut tens of thousands of times; ids are shuffled, so the ties that rank are spread out
    rng = np.random.default_rng(1)
    rows, n, k = 32, 64000, 125
    pick = rng.random((rows, n)) < 0.5
    scores = np.where(pick, -0.0, 0.0) if kind == "signed-zeros" else pick.astype(np.float64)
    ids = rng.permutation(n)
    tracemalloc.start()
    try:
        got = top_k(ids, scores, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one position per tie (8 bytes an entry), not a padded matrix and sort keys for every tie
    assert peak < 1.25 * scores.nbytes
    assert np.array_equal(got, np.lexsort((np.broadcast_to(ids, scores.shape), -scores))[:, :k])
