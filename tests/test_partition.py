import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import partition, pq, util
from fdesearch.encoding import FdeConfig, generate_doc_fdes
from fdesearch.engine import PqSpec, build_index
from fdesearch.partition import (
    KMEANS_MAX_ITERS,
    KMEANS_TOL,
    KMeansPartitioner,
    SimHashPartitioner,
    assign_many,
    distinct_rows,
    kmeans_train,
    lloyd_kmeans,
    simhash_new,
)
from fdesearch.pq import PqCodebook, pq_encode_many, pq_train
from fdesearch.synth import SynthSpec, generate_synthetic
from fdesearch.util import KMEANS_INIT, derive_rng


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_simhash_is_deterministic():
    a = simhash_new(4, 8, seed=9, rep=2)
    b = simhash_new(4, 8, seed=9, rep=2)
    assert np.array_equal(a.gaussians, b.gaussians)


def test_simhash_reps_are_independent():
    a = simhash_new(4, 8, seed=9, rep=0)
    b = simhash_new(4, 8, seed=9, rep=1)
    assert not np.array_equal(a.gaussians, b.gaussians)


def test_three_hyperplanes_make_eight_clusters():
    assert simhash_new(3, 5, seed=0).num_clusters == 8


def test_k_sim_bounds():
    with pytest.raises(ValueError):
        simhash_new(0, 4, seed=0)
    with pytest.raises(ValueError):
        simhash_new(25, 4, seed=0)


def test_assign_with_injected_hyperplanes():
    part = SimHashPartitioner(gaussians=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert assign_many(part, [[0.6, 0.8]])[0] == 3  # both dots positive, bits (1,1)
    assert assign_many(part, [[0.6, -0.8]])[0] == 1
    assert assign_many(part, [[-0.6, -0.8]])[0] == 0


def test_zero_dot_hashes_to_bit_zero():
    part = SimHashPartitioner(gaussians=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert assign_many(part, [[0.0, 1.0]])[0] == 2  # first dot exactly 0 -> bit 0


@pytest.mark.parametrize("k_sim", [1, 5, 24])
def test_sign_bits_pack_lsb_first_into_exact_integers(k_sim):
    # the packing sums powers of two in float64; every index must match integer bit packing
    rng = np.random.default_rng(k_sim)
    part = simhash_new(k_sim, 6, seed=1)
    X = np.vstack([rng.standard_normal((500, 6)), np.zeros((1, 6))])  # a zero row hashes to 0
    bits = (X @ part.gaussians.T) > 0.0
    want = [sum(1 << i for i in range(k_sim) if row[i]) for row in bits]
    got = assign_many(part, X)
    assert got.dtype == np.int64 and got.tolist() == want and got[-1] == 0


def test_antipodal_points_get_complementary_indices():
    rng = np.random.default_rng(21)
    part = simhash_new(5, 16, seed=4)
    X = unit_rows(rng, 1000, 16)
    idx_pos = assign_many(part, X)
    idx_neg = assign_many(part, -X)
    assert np.all(idx_pos + idx_neg == part.num_clusters - 1)


def test_assign_dimension_mismatch():
    part = simhash_new(3, 4, seed=0)
    with pytest.raises(ValueError):
        assign_many(part, [[1.0, 2.0]])


def test_collision_rate_tracks_angle():
    # single-hyperplane disagreement rate over many seeded hyperplanes
    # approaches angle/pi for unit vectors
    d = 8
    rng = np.random.default_rng(24)
    x = unit_rows(rng, 1, d)[0]
    for target in (np.pi / 6, np.pi / 3, np.pi / 2):
        y_dir = rng.standard_normal(d)
        y_dir -= (y_dir @ x) * x
        y_dir /= np.linalg.norm(y_dir)
        y = np.cos(target) * x + np.sin(target) * y_dir
        disagreements = 0
        total = 0
        for rep in range(500):  # 500 partitions x 20 hyperplanes = 10,000
            part = simhash_new(20, d, seed=100, rep=rep)
            a, b = assign_many(part, [x, y]).tolist()
            disagreements += (a ^ b).bit_count()
            total += 20
        rate = disagreements / total
        assert abs(rate - target / np.pi) < 0.02


def test_kmeans_two_blobs_are_separated():
    rng = np.random.default_rng(25)
    blob_a = rng.normal(0.0, 0.05, size=(40, 3)) + np.array([5.0, 0.0, 0.0])
    blob_b = rng.normal(0.0, 0.05, size=(40, 3)) + np.array([-5.0, 0.0, 0.0])
    points = np.vstack([blob_a, blob_b])
    part = kmeans_train(points, 2, seed=7)
    labels = assign_many(part, points)
    # 100% assignment purity: each blob maps to exactly one center
    assert len(set(labels[:40].tolist())) == 1
    assert len(set(labels[40:].tolist())) == 1
    assert labels[0] != labels[40]
    for blob in (blob_a, blob_b):
        center = part.centers[assign_many(part, [blob.mean(axis=0)])[0]]
        assert np.linalg.norm(center - blob.mean(axis=0)) < 0.2


def test_kmeans_single_center_is_the_mean():
    rng = np.random.default_rng(26)
    points = rng.standard_normal((30, 4))
    part = kmeans_train(points, 1, seed=3)
    assert np.allclose(part.centers[0], points.mean(axis=0), atol=1e-6)


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(27)
    points = rng.standard_normal((50, 3))
    a = kmeans_train(points, 5, seed=8)
    b = kmeans_train(points, 5, seed=8)
    assert np.array_equal(a.centers, b.centers)


def test_kmeans_reduces_b_to_distinct_points():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    part = kmeans_train(points, 5, seed=0)
    assert part.num_clusters == 2


def test_kmeans_rejects_empty_input():
    with pytest.raises(ValueError):
        kmeans_train(np.empty((0, 2)), 2, seed=0)


def test_lloyd_mse_never_increases():
    rng = np.random.default_rng(28)
    points = rng.standard_normal((200, 6))
    _, history, _ = lloyd_kmeans(points, 8, seed=5)
    assert all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))


def test_kmeans_assignment_ties_go_to_lowest_index():
    part = KMeansPartitioner(centers=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert assign_many(part, [[0.0, 5.0]])[0] == 0  # equidistant


# The nearest-center kernel against an oracle that keeps the three-term distance
# expression and the np.add.at center sums the kernel replaced: same bits expected.

def oracle_sq_dists(X, C):
    return np.sum(X * X, axis=1)[:, None] - 2.0 * (X @ C.T) + np.sum(C * C, axis=1)[None, :]


def oracle_lloyd(pts, k, seed, rep=0):
    distinct = np.unique(pts, axis=0)
    k_eff = min(k, distinct.shape[0])
    rng = derive_rng(seed, KMEANS_INIT, rep)
    centers = distinct[rng.choice(distinct.shape[0], size=k_eff, replace=False)].copy()
    history = []
    for _ in range(KMEANS_MAX_ITERS):
        d2 = oracle_sq_dists(pts, centers)
        labels = np.argmin(d2, axis=1)
        history.append(float(np.maximum(d2[np.arange(pts.shape[0]), labels], 0.0).mean()))
        counts = np.bincount(labels, minlength=k_eff)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, pts)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 0.0 or (prev - cur) / prev < KMEANS_TOL:
                break
    return centers, history


@st.composite
def point_sets(draw, max_dim=4):
    """Points on a half-integer grid (duplicates, exact distance ties) or Gaussian,
    scaled by 1, a subnormal-product scale or a large one, with some rows repeated."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        pts = np.array(draw(st.lists(st.integers(-4, 4), min_size=n * d, max_size=n * d)), dtype=np.float64) / 2
    else:
        pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n * d)
    pts = pts.reshape(n, d) * draw(st.sampled_from([1.0, 1e-155, 3e100]))
    repeat = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return np.vstack([pts, pts[repeat]])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(pts=point_sets(), extra_k=st.integers(-40, 5), seed=st.integers(0, 3), rep=st.integers(0, 3))
def test_lloyd_kmeans_matches_the_three_term_oracle_bit_for_bit(pts, extra_k, seed, rep):
    distinct = np.unique(pts, axis=0).shape[0]
    k = max(1, distinct + extra_k)  # up to 5 above the number of distinct points
    centers, history, _ = lloyd_kmeans(pts, k, seed, rep=rep)
    want_centers, want_history = oracle_lloyd(pts, k, seed, rep)
    assert same_bits(centers, want_centers)
    assert [h.hex() for h in history] == [h.hex() for h in want_history]


def moving_blobs():
    """16 overlapping blobs that keep centers moving for many updates, a few at a time, and 12 far groups
    of identical points with a -0.0 coordinate, which give their center a +0.0 there on its first update."""
    rng = np.random.default_rng(5)
    blobs = np.repeat(rng.uniform(-4, 4, (16, 3)), 28, axis=0) + 2 * rng.standard_normal((448, 3))
    far = np.column_stack([100.0 + 10 * np.arange(12), np.full(12, -0.0), np.full(12, 0.5)])
    return np.vstack([blobs, np.repeat(far, 4, axis=0)])


def test_lloyd_kmeans_refreshes_moved_columns_bit_for_bit(monkeypatch):
    pts, k, seed = moving_blobs(), 64, 1
    refreshed = []
    sq_from_dots = partition._sq_from_dots

    def spy(t, xx, cc):
        refreshed.append(t.shape[1])
        return sq_from_dots(t, xx, cc)

    monkeypatch.setattr(partition, "_sq_from_dots", spy)
    centers, history, labels = lloyd_kmeans(pts, k, seed)
    monkeypatch.undo()
    want_centers, want_history = oracle_lloyd(pts, k, seed)
    assert same_bits(centers, want_centers)
    assert [h.hex() for h in history] == [h.hex() for h in want_history]
    assert any(0 < cols < k for cols in refreshed)  # some updates refreshed only the moved columns
    distinct = distinct_rows(pts)
    start = distinct[derive_rng(seed, KMEANS_INIT, 0).choice(len(distinct), k, replace=False)]
    flipped = start[:, 0] >= 100  # started on a far group, at its -0.0, and ended at the group's mean
    assert flipped.any() and np.signbit(start[flipped, 1]).all() and not np.signbit(centers[flipped, 1]).any()
    assert same_bits(labels, np.argmin(oracle_sq_dists(pts, want_centers), axis=1))


def test_lloyd_kmeans_refreshes_in_row_strips_and_holds_one_distance_matrix(monkeypatch):
    import tracemalloc

    # every point 24 times: the moved columns are refreshed in 6 strips of ~1 MB of distances
    pts, k, seed = np.repeat(moving_blobs(), 24, axis=0), 64, 1
    assert len(util._row_chunks(len(pts), k * pts.shape[1], partition._STRIP_DISTANCES * pts.shape[1])) - 1 == 6
    refreshed = []
    sq_from_dots = partition._sq_from_dots

    def spy(t, xx, cc):
        refreshed.append(t.shape)
        return sq_from_dots(t, xx, cc)

    monkeypatch.setattr(partition, "_sq_from_dots", spy)
    centers, history, labels = lloyd_kmeans(pts, k, seed)
    monkeypatch.undo()
    want_centers, want_history = oracle_lloyd(pts, k, seed)
    assert same_bits(centers, want_centers)
    assert [h.hex() for h in history] == [h.hex() for h in want_history]
    assert same_bits(labels, np.argmin(oracle_sq_dists(pts, want_centers), axis=1))
    assert any(rows < len(pts) and cols < k for rows, cols in refreshed)  # strips of the moved columns
    tracemalloc.start()
    try:
        lloyd_kmeans(pts, k, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(pts) * k * 8  # one (n, k) float64 array and change; a second one fails this


@pytest.mark.parametrize("sample_limit", [None, 100])
def test_build_index_codes_equal_pq_encode_many(monkeypatch, sample_limit):
    docs, _, _ = generate_synthetic(SynthSpec(num_docs=120, num_queries=1, num_clusters=12, seed=2))
    corpus, cfg, spec = [m for _, m in docs], FdeConfig(dim=32, k_sim=4, d_proj=8, r_reps=6, seed=1), PqSpec(16, 8)
    if sample_limit is not None:  # below the 120 documents: training sees a subsample, so every group is encoded
        monkeypatch.setattr(pq, "TRAIN_SAMPLE_LIMIT", sample_limit)
    encoded = []  # one nearest-center pass per group that does not take its training labels
    nearest = pq._nearest

    def spy(centers, points):
        encoded.append(len(points))
        return nearest(centers, points)

    monkeypatch.setattr(pq, "_nearest", spy)
    index = build_index(corpus, cfg, pq=spec)
    monkeypatch.setattr(pq, "_nearest", nearest)  # the sample limit stays for pq_train below
    fdes = generate_doc_fdes(corpus, cfg).astype(np.float32)
    book = pq_train(fdes, spec.c, spec.g, cfg.seed)
    assert same_bits(index.codebook.centers, book.centers)
    assert same_bits(np.ascontiguousarray(index.codes), np.ascontiguousarray(pq_encode_many(book, fdes)))
    groups = index.codebook.num_groups
    assert len(encoded) == groups if sample_limit is not None else len(encoded) < groups


@settings(max_examples=200, deadline=None)
@given(pts=point_sets(max_dim=3), groups=st.integers(1, 3), c=st.integers(1, 48), seed=st.integers(0, 3),
       probe=st.lists(st.integers(-4, 4), max_size=24))
def test_pq_train_and_encode_match_the_three_term_oracle_bit_for_bit(pts, groups, c, seed, probe):
    V = np.hstack([np.roll(pts, shift, axis=0) for shift in range(groups)])  # groups see different slices
    g = pts.shape[1]
    book = pq_train(V, c=c, g=g, seed=seed)
    for grp in range(groups):
        want, _ = oracle_lloyd(V[:, grp * g:(grp + 1) * g], c, seed, grp)
        assert book.effective_c[grp] == want.shape[0]
        assert same_bits(book.centers[grp, :want.shape[0]], want)
    # half-integer probes sit exactly between grid centers, so ties must go to the lowest center
    W = np.vstack([V, np.resize(np.array(probe, dtype=np.float64) / 2, (len(probe) // V.shape[1], V.shape[1]))])
    want_codes = np.stack([np.argmin(oracle_sq_dists(W[:, grp * g:(grp + 1) * g],
                                                     book.centers[grp, :book.effective_c[grp]]), axis=1)
                           for grp in range(groups)], axis=1).astype(np.uint8)
    assert same_bits(pq_encode_many(book, W), want_codes)


@pytest.mark.parametrize("centers", [[0.0, 2.0], [2.0, 0.0]])
def test_pq_encode_ties_go_to_the_lowest_center(centers):
    book = PqCodebook(centers=np.array(centers).reshape(1, 2, 1), effective_c=np.array([2]))
    assert pq_encode_many(book, [[1.0]])[0, 0] == 0  # equidistant from both centers


@st.composite
def row_sets(draw):
    """Rows of few values (duplicates, ties in every column, +0.0 and -0.0) or of any finite floats."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 4))  # d = 1: one-dimensional points
    values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.5]) | st.floats(-1e3, 1e3)
    pts = draw(arrays(np.float64, (n, d), elements=values))
    return np.vstack([pts, pts[draw(st.lists(st.integers(0, n - 1), max_size=n))]])


@settings(max_examples=500, deadline=None)
@given(row_sets())
def test_distinct_rows_match_np_unique(pts):
    got, want = distinct_rows(pts), np.unique(pts, axis=0)
    assert same_bits(got + 0.0, want + 0.0)  # adding 0.0 turns -0.0 into 0.0
    for row in got:  # of rows equal up to the signs of zeros, the first in pts is kept
        assert row.tobytes() == pts[np.flatnonzero((pts == row).all(axis=1))[0]].tobytes()
    if not np.signbit(pts[pts == 0]).any():
        assert same_bits(got, want)
