import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import pq
from fdesearch.pq import (
    PqCodebook,
    pq_decode_many,
    pq_encode_many,
    pq_table,
    pq_table_dots,
    pq_train,
    pq_train_encode,
)


def test_training_on_exactly_c_distinct_slices_is_lossless():
    rng = np.random.default_rng(1)
    slices = rng.standard_normal((4, 2))  # 4 distinct values per group
    rows = slices[rng.integers(0, 4, size=200)]
    vectors = np.hstack([rows, rows])  # two groups, same structure
    book = pq_train(vectors, c=4, g=2, seed=0)
    assert book.num_groups == 2
    codes = pq_encode_many(book, vectors)
    assert np.allclose(pq_decode_many(book, codes), vectors, atol=1e-6)


def test_single_center_is_the_sample_mean():
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((100, 6))
    book = pq_train(vectors, c=1, g=3, seed=0)
    for grp in range(2):
        assert np.allclose(book.centers[grp, 0], vectors[:, grp * 3:(grp + 1) * 3].mean(axis=0), atol=1e-9)


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((300, 8))
    a = pq_train(vectors, c=16, g=4, seed=5)
    b = pq_train(vectors, c=16, g=4, seed=5)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.effective_c, b.effective_c)


def test_train_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        pq_train(rng.standard_normal((10, 10)), c=4, g=3, seed=0)  # 10 % 3 != 0
    with pytest.raises(ValueError):
        pq_train(rng.standard_normal((10, 8)), c=300, g=4, seed=0)
    with pytest.raises(ValueError):
        pq_train(np.empty((0, 8)), c=4, g=4, seed=0)


def test_ten_k_dim_vectors_compress_to_1280_bytes():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((40, 10240))
    book = pq_train(vectors, c=256, g=8, seed=0)
    codes = pq_encode_many(book, [vectors[0]])[0]
    assert codes.nbytes == 1280
    assert book.code_bytes == 1280
    # 32x versus 4-byte-per-dimension dense storage
    assert (10240 * 4) // book.code_bytes == 32


def test_vector_of_centers_round_trips_exactly():
    rng = np.random.default_rng(6)
    vectors = rng.standard_normal((50, 6))
    book = pq_train(vectors, c=8, g=3, seed=1)
    v = np.concatenate([book.centers[0, 3], book.centers[1, 5]])
    codes = pq_encode_many(book, [v])[0]
    assert np.array_equal(codes, [3, 5])
    assert np.allclose(pq_decode_many(book, [codes])[0], v, atol=1e-12)


def test_per_group_error_matches_exhaustive_nearest_center():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((120, 8))
    book = pq_train(vectors, c=16, g=4, seed=2)
    for v in rng.standard_normal((20, 8)):
        codes = pq_encode_many(book, [v])[0]
        decoded = pq_decode_many(book, [codes])[0]
        for grp in range(2):
            sl = v[grp * 4:(grp + 1) * 4]
            got = np.linalg.norm(decoded[grp * 4:(grp + 1) * 4] - sl)
            best = min(np.linalg.norm(c - sl)
                       for c in book.centers[grp, :book.effective_c[grp]])
            assert got == pytest.approx(best, abs=1e-9)


def test_asymmetric_dot_equals_decode_then_dot():
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((200, 16))
    book = pq_train(vectors, c=32, g=4, seed=3)
    codes = pq_encode_many(book, vectors)
    for _ in range(50):
        q = rng.standard_normal(16)
        i = int(rng.integers(0, 200))
        expected = float(q @ pq_decode_many(book, [codes[i]])[0])
        assert pq_table_dots(book, q, codes[i:i + 1])[0] == pytest.approx(expected, abs=1e-6)
    q = rng.standard_normal(16)
    batch = pq_table_dots(book, q, codes)
    assert np.allclose(batch, pq_decode_many(book, codes) @ q, atol=1e-6)


def test_zero_query_gives_zero_dot():
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((50, 8))
    book = pq_train(vectors, c=4, g=4, seed=0)
    codes = pq_encode_many(book, [vectors[0]])[0]
    assert pq_table_dots(book, np.zeros(8), codes[None])[0] == 0.0


def test_out_of_range_code_is_rejected():
    vectors = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    book = pq_train(vectors, c=3, g=2, seed=0)
    bad = np.array([book.effective_c[0]], dtype=np.uint8)
    with pytest.raises(ValueError):
        pq_decode_many(book, [bad])


def test_encode_dimension_mismatch():
    rng = np.random.default_rng(10)
    book = pq_train(rng.standard_normal((30, 8)), c=4, g=4, seed=0)
    with pytest.raises(ValueError):
        pq_encode_many(book, [np.ones(9)])


def test_effective_centers_reduce_with_few_distinct_slices():
    rows = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0]]), 20, axis=0)
    book = pq_train(rows, c=8, g=2, seed=0)
    assert book.effective_c[0] == 2
    codes = pq_encode_many(book, rows)
    assert np.all(codes < 2)


def test_codes_are_encoded_group_major():
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((30, 12))
    book = pq_train(vectors, c=4, g=3, seed=0)
    codes = pq_encode_many(book, vectors)
    assert codes.shape == (30, 4) and codes.dtype == np.uint8
    assert codes.T.flags.c_contiguous  # one (groups, n) matrix, seen transposed


@st.composite
def scans(draw):
    """A random codebook, group-major codes with repeated columns, and a query zero in random groups."""
    groups, c, g, n = (draw(st.integers(1, hi)) for hi in (40, 8, 4, 12))
    # values from a drawn seed rather than hypothesis floats, which favour round numbers that sum exactly
    # in any order and so would not tell a sequential sum from another
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = draw(arrays(np.int64, groups, elements=st.integers(1, c)))
    book = PqCodebook(centers=rng.standard_normal((groups, c, g)) * 10, effective_c=counts)
    codes = np.stack([draw(arrays(np.uint8, n, elements=st.integers(0, int(e) - 1))) for e in counts])
    twins = draw(st.lists(st.integers(0, n - 1), max_size=4))
    codes = np.ascontiguousarray(np.concatenate([codes, codes[:, twins]], axis=1))  # (groups, n + twins)
    q = rng.standard_normal((groups, g)) * 10
    q[draw(arrays(np.bool_, groups))] = draw(st.sampled_from([0.0, -0.0]))
    return book, codes.T, q.ravel(), twins


def sequential_dots(book, q, codes):
    """Every group's table row added in ascending group order, zero groups included."""
    table = pq_table(book, q)
    acc = np.zeros(codes.shape[0])
    for grp in range(book.num_groups):
        acc += table[grp][codes[:, grp]]
    return acc


@settings(max_examples=200, deadline=None)
@given(scans())
def test_zero_group_skip_is_exact(scan):
    book, codes, q, twins = scan
    dots = pq_table_dots(book, q, codes)
    assert dots.dtype == np.float64 and dots.tobytes() == sequential_dots(book, q, codes).tobytes()
    assert np.all(np.abs(dots - pq_decode_many(book, codes) @ q) <= 1e-6)  # criterion 07
    n = codes.shape[0] - len(twins)
    for j, i in enumerate(twins):  # identical code rows tie exactly
        assert dots[n + j].tobytes() == dots[i].tobytes()
    zero = pq_table_dots(book, np.zeros_like(q), codes)
    assert zero.tobytes() == np.zeros(codes.shape[0]).tobytes()  # +0.0, not -0.0


def test_pq_train_encode_makes_no_float64_copy_of_a_float32_matrix():
    V = np.random.default_rng(12).standard_normal((600, 2048)).astype(np.float32)
    pq_train_encode(V[:20], c=16, g=8, seed=0)
    tracemalloc.start()
    try:
        pq_train_encode(V, c=16, g=8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * V.size  # a float64 copy of V alone


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), groups=st.integers(1, 4), g=st.integers(1, 3),
       c=st.integers(1, 16), grid=st.booleans(), sample_limit=st.sampled_from([None, 7]))
def test_float32_vectors_train_and_encode_as_their_float64_cast(seed, n, groups, g, c, grid, sample_limit):
    rng = np.random.default_rng(seed)
    V32 = (rng.standard_normal((n, groups * g)) * 3).astype(np.float32)
    if grid:  # duplicate slices and exact distance ties
        V32 = np.round(V32 * 2) / 2
    V64 = V32.astype(np.float64)
    limit = pq.TRAIN_SAMPLE_LIMIT if sample_limit is None else sample_limit  # 7: training sees a subsample
    with mock.patch.object(pq, "TRAIN_SAMPLE_LIMIT", limit):
        book32, codes32 = pq_train_encode(V32, c=c, g=g, seed=seed % 7)
        book64, codes64 = pq_train_encode(V64, c=c, g=g, seed=seed % 7)
    assert book32.centers.tobytes() == book64.centers.tobytes()
    assert np.array_equal(book32.effective_c, book64.effective_c)
    assert codes32.dtype == codes64.dtype == np.uint8 and np.array_equal(codes32, codes64)
    assert np.array_equal(pq_encode_many(book64, V32), codes64)
