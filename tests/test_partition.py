import numpy as np
import pytest

from fdesearch.partition import (
    KMeansPartitioner,
    assign_many,
    hamming,
    kmeans_train,
    lloyd_kmeans,
    simhash_from_gaussians,
    simhash_new,
)


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
    part = simhash_from_gaussians([[1.0, 0.0], [0.0, 1.0]])
    assert assign_many(part, [[0.6, 0.8]])[0] == 3  # both dots positive, bits (1,1)
    assert assign_many(part, [[0.6, -0.8]])[0] == 1
    assert assign_many(part, [[-0.6, -0.8]])[0] == 0


def test_zero_dot_hashes_to_bit_zero():
    part = simhash_from_gaussians([[1.0, 0.0], [0.0, 1.0]])
    assert assign_many(part, [[0.0, 1.0]])[0] == 2  # first dot exactly 0 -> bit 0


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


def test_hamming_examples():
    assert hamming(3, 3, k_sim=4) == 0
    assert hamming(0b101, 0b010, k_sim=3) == 3


def test_hamming_matches_bit_loop_oracle():
    rng = np.random.default_rng(22)
    for _ in range(300):
        k = int(rng.integers(1, 13))
        a = int(rng.integers(0, 1 << k))
        b = int(rng.integers(0, 1 << k))
        expected = sum(1 for i in range(k) if (a >> i) & 1 != (b >> i) & 1)
        assert hamming(a, b, k) == expected


def test_hamming_bounds_and_validation():
    part = simhash_new(6, 8, seed=1)
    rng = np.random.default_rng(23)
    X = unit_rows(rng, 50, 8)
    idx = assign_many(part, X)
    for i in range(49):
        assert 0 <= hamming(int(idx[i]), int(idx[i + 1]), 6) <= 6
    with pytest.raises(ValueError):
        hamming(8, 0, k_sim=3)


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
            disagreements += hamming(*assign_many(part, [x, y]), 20)
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
    assert part.requested_b == 5


def test_kmeans_rejects_empty_input():
    with pytest.raises(ValueError):
        kmeans_train(np.empty((0, 2)), 2, seed=0)


def test_lloyd_mse_never_increases():
    rng = np.random.default_rng(28)
    points = rng.standard_normal((200, 6))
    _, history = lloyd_kmeans(points, 8, seed=5)
    assert all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))


def test_kmeans_assignment_ties_go_to_lowest_index():
    part = KMeansPartitioner(centers=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert assign_many(part, [[0.0, 5.0]])[0] == 0  # equidistant
