import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldaselect import kmeans as kmeans_module
from ldaselect.errors import ValidationError
from ldaselect.kmeans import kmeans_pp_indices, train_kmeans

from reference import ref_best_two_partition, ref_kmeans_pp_indices


def test_each_vector_its_own_centroid():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    km = train_kmeans(X, 6, seed=1)
    assert km.inertia_history[-1] == pytest.approx(0.0, abs=1e-12)
    # every input row appears among the centroids
    for row in X:
        assert np.min(np.sum((km.centroids - row) ** 2, axis=1)) < 1e-18


def test_single_cluster_closed_form():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 5))
    km = train_kmeans(X, 1, seed=0)
    assert np.allclose(km.centroids[0], X.mean(axis=0), atol=1e-12)
    assert np.all(km.assignments == 0)


def test_two_blobs_match_brute_force():
    """Optimal 2-partition on well-separated blobs, against exhaustive search."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 2)) * 0.3 + np.array([0.0, 0.0])
    b = rng.standard_normal((6, 2)) * 0.3 + np.array([8.0, 8.0])
    X = np.vstack([a, b])
    km = train_kmeans(X, 2, seed=3)
    groups = frozenset(
        frozenset(np.flatnonzero(km.assignments == j).tolist()) for j in (0, 1)
    )
    best_split, best_cost = ref_best_two_partition(X.tolist())
    assert groups == best_split
    assert km.inertia_history[-1] == pytest.approx(best_cost, rel=1e-9)
    for j in (0, 1):
        member = X[km.assignments == j]
        assert np.allclose(km.centroids[j], member.mean(axis=0), atol=1e-6)


def test_inertia_monotone_random():
    rng = np.random.default_rng(5)
    for trial in range(10):
        X = rng.standard_normal((50, 4))
        km = train_kmeans(X, 5, seed=trial)
        h = km.inertia_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))
        assert np.bincount(km.assignments, minlength=5).min() >= 1


def test_determinism():
    X = np.random.default_rng(11).standard_normal((30, 3))
    km1 = train_kmeans(X, 4, seed=9)
    km2 = train_kmeans(X, 4, seed=9)
    assert np.array_equal(km1.centroids, km2.centroids)
    assert np.array_equal(km1.assignments, km2.assignments)


def test_seeds_are_drawn_from_the_rows_in_the_order_given(monkeypatch):
    """Lloyd's first step starts from the rows that the reference k-means++
    draw picks from ``X`` itself: the rows are not reordered first."""
    X = np.random.default_rng(12).standard_normal((40, 3))
    assign, starts = kmeans_module._assign, []

    def first_step(X, centroids):
        starts.append(centroids.copy())
        return assign(X, centroids)

    monkeypatch.setattr(kmeans_module, "_assign", first_step)
    monkeypatch.setattr(kmeans_module, "_MAX_ITERATIONS", 1)
    train_kmeans(X, 5, seed=4)
    want = ref_kmeans_pp_indices(X, 5, np.random.default_rng(4))
    assert starts[0].tobytes() == X[want].tobytes()


def test_centroid_mean_consistency(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((60, 2))
    monkeypatch.setattr(kmeans_module, "_MAX_ITERATIONS", 200)
    km = train_kmeans(X, 6, seed=0)
    for j in range(6):
        member = X[km.assignments == j]
        assert np.allclose(km.centroids[j], member.mean(axis=0), atol=1e-9)


def test_validation_errors():
    X = np.ones((3, 2)) * np.arange(3)[:, None]
    with pytest.raises(ValidationError):
        train_kmeans(X, 4, seed=0)
    with pytest.raises(ValidationError):
        train_kmeans(X, 0, seed=0)
    with pytest.raises(ValidationError):
        train_kmeans(np.array([[np.nan, 1.0]]), 1, seed=0)
    with pytest.raises(ValidationError):
        train_kmeans(np.ones(5), 1, seed=0)
    for seed in (-1, 1.5):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            train_kmeans(X, 2, seed=seed)


def test_seeding_indices_cover_spread_points():
    """k-means++ must pick one seed from each far-apart blob."""
    rng = np.random.default_rng(3)
    blobs = [np.array([0.0, 0.0]), np.array([50.0, 0.0]), np.array([0.0, 50.0])]
    X = np.vstack([c + rng.standard_normal((8, 2)) * 0.1 for c in blobs])
    for seed in range(5):
        idx = kmeans_pp_indices(X, 3, np.random.default_rng(seed))
        owners = {int(i) // 8 for i in idx}
        assert owners == {0, 1, 2}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    d=st.integers(1, 6),
    distinct=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_kmeans_pp_indices_match_row_reduction_reference(n, d, distinct, seed, data):
    """Integer-valued rows make every squared-distance sum exact in any
    order, so the column-wise kernel must pick exactly the reference's rows
    and leave the generator in the same state."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-20, 21, size=(min(distinct, n), d)).astype(np.float64)
    X = base[rng.integers(len(base), size=n)]  # duplicate rows when distinct < n
    k = data.draw(st.sampled_from([1, n, max(1, n // 2)]))
    got_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = kmeans_pp_indices(X, k, got_rng)
    assert got.tolist() == ref_kmeans_pp_indices(X, k, ref_rng).tolist()
    assert got_rng.integers(2**62) == ref_rng.integers(2**62)


def test_kmeans_pp_indices_float32_match_their_float64_cast():
    """Distances are taken in float64 from exactly cast float32 values: the
    same seeds, and the generator left in the same state, from row-major and
    dim-major rows of either dtype."""
    X = (np.random.default_rng(15).standard_normal((5000, 13)) * 3).astype(np.float32)
    double_rng = np.random.default_rng(16)
    double = kmeans_pp_indices(X.astype(np.float64), 64, double_rng)
    for order in ("C", "F"):
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(16)
            got = kmeans_pp_indices(np.asarray(X, dtype=dtype, order=order), 64, rng)
            assert got.tolist() == double.tolist(), (order, dtype)
            assert rng.bit_generator.state == double_rng.bit_generator.state
    # The draws rarely notice a rounding slip; the distances themselves must
    # match bit for bit (float32 arithmetic would round each difference).
    columns = np.ascontiguousarray(X.T)
    got, want = (
        kmeans_module._sq_dists(c, 7, np.empty(5000), np.empty(5000))
        for c in (columns, columns.astype(np.float64))
    )
    assert got.tobytes() == want.tobytes()


def test_kmeans_pp_indices_without_columns_draw_uniformly():
    """Zero-width rows are all at distance 0, so every seed is a uniform draw."""
    rng, expected = np.random.default_rng(17), np.random.default_rng(17)
    got = kmeans_pp_indices(np.zeros((6, 0)), 3, rng)
    assert got.tolist() == [int(expected.integers(6)) for _ in range(3)]
