"""The one ranking rule: descending score, ties broken by ascending id."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdesearch.util import top_k

# few distinct values, so most draws tie; -0.0 and 0.0 compare equal and must tie too
tie_scores = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 1e300, -1e-300])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 30))
def test_top_k_equals_sorted_by_score_then_id(data, n):
    scores = np.array(data.draw(st.lists(tie_scores, min_size=n, max_size=n)), dtype=np.float64)
    ids = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=np.int64)
    k = data.draw(st.sampled_from([0, 1, n, n + 3]))
    want = sorted(zip(scores.tolist(), ids.tolist()), key=lambda t: (-t[0], t[1]))[:k]
    got = top_k(ids, scores, k)
    assert len(got) == min(k, n)
    assert [(s, i) for s, i in zip(scores[got].tolist(), ids[got].tolist())] == want
    # repeated ids with equal scores keep their input order
    for a, b in zip(got, got[1:]):
        if scores[a] == scores[b] and ids[a] == ids[b]:
            assert a < b


@settings(max_examples=50, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), n=st.integers(1, 12))
def test_top_k_ranks_each_row_of_a_matrix_alone(data, rows, n):
    scores = np.array(data.draw(st.lists(tie_scores, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    k = data.draw(st.integers(0, n + 2))
    got = top_k(ids, scores, k)
    assert got.shape == (rows, min(k, n))
    for r in range(rows):
        assert got[r].tolist() == top_k(ids, scores[r], k).tolist()
