import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import pq, util
from fdesearch.encoding import FdeConfig, fde_dim, generate_doc_fdes, with_kmeans_partitions
from fdesearch.engine import PqSpec, build_index
from fdesearch.pq import (
    PqCodebook,
    pq_decode_many,
    pq_encode_many,
    pq_table,
    pq_table_dots,
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


def test_pq_train_and_encode_make_no_float64_copy_of_a_float32_matrix():
    V = np.random.default_rng(12).standard_normal((600, 2048)).astype(np.float32)
    pq_encode_many(pq_train(V[:20], c=16, g=8, seed=0), V[:20])
    tracemalloc.start()
    try:
        pq_encode_many(pq_train(V, c=16, g=8, seed=0), V)
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
        # training with codes, as build_index trains: the label reuse is checked too
        book32, codes32 = pq._train_chunks([V32], n, groups * g, c, g, seed % 7, encode=True)
        book64, codes64 = pq._train_chunks([V64], n, groups * g, c, g, seed % 7, encode=True)
    assert book32.centers.tobytes() == book64.centers.tobytes()
    assert np.array_equal(book32.effective_c, book64.effective_c)
    assert codes32.dtype == codes64.dtype == np.uint8 and np.array_equal(codes32, codes64)
    assert np.array_equal(pq_encode_many(book64, V32), codes64)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 6), k_sim=st.integers(1, 3), d_proj=st.integers(1, 6),
       g=st.integers(1, 16), chunks=st.integers(1, 3), c=st.integers(1, 8), d_final=st.booleans(),
       kmeans_b=st.sampled_from([None, 1, 5]), sample_limit=st.sampled_from([None, 7]))
@example(seed=1, dim=4, k_sim=3, d_proj=3, g=16, chunks=2, c=4, d_final=False, kmeans_b=None,
         sample_limit=None)  # 24-column repetitions: groups 1 and 4 of 6 straddle two repetitions
@example(seed=2, dim=4, k_sim=3, d_proj=3, g=16, chunks=2, c=4, d_final=True, kmeans_b=5, sample_limit=7)
def test_build_index_trains_and_codes_as_the_whole_float32_matrix(seed, dim, k_sim, d_proj, g, chunks, c, d_final,
                                                                   kmeans_b, sample_limit):
    rng = np.random.default_rng(seed)
    docs = [(rng.standard_normal((int(rng.integers(1, 6)), dim)) * 2).astype(np.float32)
            for _ in range(int(rng.integers(1, 25)))]
    d_proj = min(d_proj, dim)
    pool = np.vstack(docs)
    # distinct random rows: every repetition's k-means keeps min(b, rows) centers
    clusters = 2 ** k_sim if kmeans_b is None else min(kmeans_b, len(pool))
    r_reps = g // math.gcd(clusters * d_proj, g) * chunks  # whole groups; a build chunk is g // gcd(...) reps
    cfg = FdeConfig(dim=dim, k_sim=k_sim, d_proj=d_proj, r_reps=r_reps, seed=seed % 5)
    if kmeans_b is not None:
        cfg = with_kmeans_partitions(cfg, pool, kmeans_b)
    if d_final and fde_dim(cfg) > g:
        cfg = dataclasses.replace(cfg, d_final=g * int(rng.integers(1, (fde_dim(cfg) - 1) // g + 1)))
    limit = pq.TRAIN_SAMPLE_LIMIT if sample_limit is None else sample_limit  # 7: training sees a subsample
    with mock.patch.object(pq, "TRAIN_SAMPLE_LIMIT", limit):
        index = build_index(docs, cfg, pq=PqSpec(c=c, g=g))
        fdes = generate_doc_fdes(docs, cfg).astype(np.float32)
        book = pq_train(fdes, c=c, g=g, seed=cfg.seed)
    assert index.codebook.centers.tobytes() == book.centers.tobytes()
    assert np.array_equal(index.codebook.effective_c, book.effective_c)
    assert index.codes.dtype == np.uint8 and np.array_equal(index.codes, pq_encode_many(book, fdes))


def test_pq_build_never_holds_the_whole_float32_encoding_matrix():
    rng = np.random.default_rng(14)
    docs = [rng.standard_normal((8, 16)).astype(np.float32) for _ in range(1000)]
    cfg = FdeConfig(dim=16, k_sim=5, d_proj=8, r_reps=16)  # 4096 dims, one 256-column repetition a chunk
    spec = PqSpec(c=4, g=8)
    build_index(docs[:20], cfg, pq=spec)
    tracemalloc.start()
    try:
        build_index(docs, cfg, pq=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(docs) * fde_dim(cfg) * 4  # the float32 encodings: 16 MB


def pool_of(workers):
    """Patch the pool's CPU count, and record the thread pools it opens."""
    opened = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    return opened, mock.patch.multiple(util, _workers=lambda: workers, ThreadPoolExecutor=Pool)


def test_the_training_pool_gives_the_serial_bytes():
    rng = np.random.default_rng(50)
    docs = [rng.standard_normal((int(m), 8)).astype(np.float32) for m in rng.integers(1, 12, size=90)]
    builds = [(FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=4, seed=1), PqSpec(c=16, g=4)),  # 8 groups a chunk
              # 28-column repetitions, chunks of two: 7 groups a chunk, groups 3 and 10 straddle two repetitions
              (FdeConfig(dim=8, k_sim=2, d_proj=7, r_reps=4, seed=2), PqSpec(c=8, g=8)),
              (FdeConfig(dim=8, k_sim=3, d_proj=4, r_reps=4, d_final=64, seed=3), PqSpec(c=16, g=4))]  # one chunk
    V = rng.standard_normal((120, 48)).astype(np.float32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so a write lost between groups would show
    try:
        outputs = {}
        for workers in (1, 2, 3):
            opened, patch = pool_of(workers)
            with patch:
                indexes = [build_index(docs, cfg, pq=spec) for cfg, spec in builds]
                with mock.patch.object(pq, "TRAIN_SAMPLE_LIMIT", 50):  # below n: training sees a subsample
                    indexes.append(build_index(docs, *builds[0]))
                    chunked = pq._train_chunks([V[:, :24], V[:, 24:]], 120, 48, 16, 4, 7, encode=True)
                    book = pq_train(V, c=16, g=4, seed=7)
            assert bool(opened) == (workers > 1)
            got = [(index.codebook, index.codes) for index in indexes] + [chunked, (book, np.zeros(0))]
            outputs[workers] = [(book.centers.tobytes(), book.effective_c.tobytes(), codes.dtype,
                                 np.ascontiguousarray(codes).tobytes()) for book, codes in got]
        assert outputs[1] == outputs[2] == outputs[3]
    finally:
        sys.setswitchinterval(interval)


def test_a_late_chunk_that_overflows_names_its_first_document_after_the_pool_trained():
    import warnings

    rng = np.random.default_rng(51)
    docs = [rng.standard_normal((3, 3)) for _ in range(200)]
    # finite in float64; a repetition's float32 encoding (sum of a projection row / sqrt(8)) overflows when
    # the signs of the two big coordinates agree: seed 69 gives that from repetition 5 for document 170 and
    # from repetition 3 for document 185, so three chunks train on the pool before either overflows
    docs[170] = np.array([[5e38, 5e38, 0.0]])
    docs[185] = np.array([[0.0, 5e38, 5e38]])
    cfg = FdeConfig(dim=3, k_sim=4, d_proj=1, r_reps=8, seed=69)  # 16-column repetitions: 4 groups a chunk
    before = threading.active_count()
    opened, patch = pool_of(2)
    with patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="document 170 has"):
            build_index(docs, cfg, pq=PqSpec(c=4, g=4))
    assert opened == [2, 2, 2]
    assert threading.active_count() == before  # every worker has been joined


def test_the_training_pool_holds_one_distance_matrix_and_strip_a_worker():
    n, c, g = 1000, 256, 8
    V = np.random.default_rng(52).standard_normal((n, 8 * g)).astype(np.float32)  # 8 groups
    peaks = {}
    for workers in (1, 2, 3):
        opened, patch = pool_of(workers)
        with patch:
            pq_train(V[:50], c=c, g=g, seed=0)
            tracemalloc.start()
            try:
                pq_train(V, c=c, g=g, seed=0)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    # each further worker holds its own (n, c) float64 distances and strip, and its group's temporaries,
    # a few (n, g) arrays; a second (n, c) matrix a worker fails this
    buffers = n * c * 8 + util._strip_entries(n, c, g) * 8
    for workers in (2, 3):
        assert peaks[workers] - peaks[1] <= (workers - 1) * (buffers + 8 * n * g * 8)
