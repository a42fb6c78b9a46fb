import numpy as np
import pytest

from fdesearch.pq import (
    pq_asymmetric_dots_many,
    pq_decode_many,
    pq_encode_many,
    pq_train,
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
        assert pq_asymmetric_dots_many(book, [codes[i]], q)[0] == pytest.approx(expected, abs=1e-6)
    q = rng.standard_normal(16)
    batch = pq_asymmetric_dots_many(book, codes, q)
    assert np.allclose(batch, pq_decode_many(book, codes) @ q, atol=1e-6)


def test_zero_query_gives_zero_dot():
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((50, 8))
    book = pq_train(vectors, c=4, g=4, seed=0)
    codes = pq_encode_many(book, [vectors[0]])[0]
    assert pq_asymmetric_dots_many(book, [codes], np.zeros(8))[0] == 0.0


def test_out_of_range_code_is_rejected():
    vectors = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    book = pq_train(vectors, c=3, g=2, seed=0)
    bad = np.array([book.effective_c[0]], dtype=np.uint8)
    with pytest.raises(ValueError):
        pq_asymmetric_dots_many(book, [bad], np.ones(2))
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
