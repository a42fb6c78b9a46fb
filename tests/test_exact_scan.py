"""ExactScanBackend ranks exactly as a float64 scan of every row would."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch.engine import ExactScanBackend


def full_scan(F, q):
    """Float64 dot of every row, computed as the backend rescores a row."""
    return np.einsum("ij,j->i", F, q, dtype=np.float64, casting="safe")


def norm(x):
    """Euclidean norm without underflow of the squares."""
    x = np.asarray(x, dtype=np.float64)
    top = np.abs(x).max()
    return top * np.linalg.norm(x / top) if top > 0 else 0.0


def check_search(ids, F, q, k):
    pos, dots = ExactScanBackend(ids, F).search(q, k)
    got = list(zip(ids[pos].tolist(), dots.tolist()))
    order = np.lexsort((ids, -full_scan(F, q)))[:k]
    assert [doc for doc, _ in got] == ids[order].tolist()
    blas = F.astype(np.float64) @ q
    pos = {int(d): i for i, d in enumerate(ids)}
    for doc, dot in got:
        i = pos[doc]
        # relative tolerance, plus the float64 underflow of d products
        assert abs(dot - blas[i]) <= 1e-9 * norm(F[i]) * norm(q) + len(q) * 2.0 ** -1074


@st.composite
def scans(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 40))
    k = draw(st.integers(0, n + 3))
    base = draw(arrays(np.float32, (n, d), elements=st.floats(-4, 4, width=32)))
    # each row copies itself or an earlier row (exact ties) and is then
    # optionally nudged by one ulp in one coordinate (near ties)
    src = np.minimum(draw(arrays(np.int64, n, elements=st.integers(0, n - 1))), np.arange(n))
    F = base[src]
    nudge = draw(arrays(np.bool_, n))
    F[nudge, 0] = np.nextafter(F[nudge, 0], np.float32(np.inf))
    row_scale = draw(arrays(np.float64, n, elements=st.sampled_from([1.0, 1e-30, 1e30])))
    F = (F * row_scale[:, None]).astype(np.float32)
    ids = np.array(draw(st.permutations(range(n))), dtype=np.int64) * 3 + 7
    kind = draw(st.sampled_from(["plain", "float32", "zero", "tiny", "subnormal", "huge"]))
    q = draw(arrays(np.float64, d, elements=st.floats(-4, 4)))
    if kind == "float32":
        q = q.astype(np.float32).astype(np.float64)  # only summation rounding separates the scans
    elif kind == "zero":
        q = np.zeros(d)
    elif kind == "tiny":
        q = q * 1e-30
    elif kind == "subnormal":
        q = q * 1e-45  # rounds to float32 subnormals or to zero
    elif kind == "huge":
        q = q * 1e39
        q[0] = 1e39  # float32 cast overflows: every row must be rescored
    return ids, F, q, k


@settings(max_examples=400, deadline=None)
@given(scans())
def test_search_matches_a_full_float64_scan(case):
    check_search(*case)


def test_search_prunes_without_changing_the_ranking():
    rng = np.random.default_rng(3)
    n, d = 3000, 256
    F = rng.standard_normal((n, d)).astype(np.float32)
    F[1::7] = F[::7][: len(F[1::7])]  # exact duplicates
    F[2::7] = F[::7][: len(F[2::7])]
    F[2::7, 3] = np.nextafter(F[2::7, 3], np.float32(np.inf))  # one-ulp neighbours
    ids = rng.permutation(n).astype(np.int64)
    for seed in range(6):
        q = np.random.default_rng(seed).standard_normal(d)
        q = np.where(np.arange(d) % 3 == 0, 0.0, q)
        if seed % 2:
            q = q.astype(np.float32).astype(np.float64)  # only summation rounding separates the scans
        for k in (1, 10, 100, n):
            check_search(ids, F, q, k)


def test_search_rows_equal_up_to_summation_order():
    # permuted copies of one row have equal exact dots with a constant
    # query; only rounding in the two scans tells them apart
    rng = np.random.default_rng(6)
    base = rng.standard_normal(300).astype(np.float32)
    F = np.stack([rng.permutation(base) for _ in range(50)])
    for k in (1, 5, 49):
        check_search(np.arange(50, dtype=np.int64), F, np.ones(300), k)


def test_search_rows_wider_than_one_numpy_buffer():
    # numpy iterates in 8192-element buffers; a row must not get a
    # different rescore when it spans more than one
    rng = np.random.default_rng(4)
    F = rng.standard_normal((40, 9000)).astype(np.float32)
    F[20:] = F[:20]
    ids = np.arange(40, dtype=np.int64)[::-1].copy()
    for k in (1, 5, 40):
        check_search(ids, F, rng.standard_normal(9000), k)


def test_search_bounds_float32_underflow():
    # query entries that round to float32 zero or subnormals, against large rows
    q = np.array([1e-46, 3e-45])
    F = np.array([[0.0, 1e30], [3e30, 0.95e30]], dtype=np.float32)
    check_search(np.arange(2, dtype=np.int64), F, q, 1)
    # products below the float32 normal range, rounded to the subnormal grid
    d = 16
    F = np.zeros((2, d), dtype=np.float32)
    F[0, 0] = np.float32(1e-20) + np.float32(2.8e-25)
    F[1] = 6e-26
    F[1, 0] = 1e-20
    check_search(np.arange(2, dtype=np.int64), F, np.full(d, 1e-20), 1)


def test_search_makes_no_float64_copy_of_the_matrix():
    rng = np.random.default_rng(5)
    F = rng.standard_normal((4000, 256)).astype(np.float32)
    ids = np.arange(4000, dtype=np.int64)
    tracemalloc.start()
    try:
        ExactScanBackend(ids, F).search(rng.standard_normal(256), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < F.nbytes // 2
