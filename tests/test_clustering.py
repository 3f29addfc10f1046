"""Weighted centroid, cluster-count rule, and weighted Lloyd iteration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchflow import (
    KMeansResult,
    ParameterError,
    WeightedPointSet,
    choose_k,
    weighted_centroid,
    weighted_kmeans,
)
from branchflow.seeding import substream

from oracles import best_bipartition, masked_kmeans


def two_blobs(seed=0, per_side=5, spread=0.5):
    rng = substream(seed, "blobs")
    left = rng.normal(0, spread, (per_side, 2)) + np.array([-10.0, 0.0])
    right = rng.normal(0, spread, (per_side, 2)) + np.array([10.0, 0.0])
    return np.vstack([left, right])


# ---------------------------------------------------------------------------
# weighted_centroid


def test_centroid_equal_weights_is_mean():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    assert np.allclose(weighted_centroid(pts, [1.0, 1.0, 1.0]), pts.mean(axis=0), atol=1e-15)


def test_centroid_hand_value():
    c = weighted_centroid([[0.0, 0.0], [2.0, 0.0]], [1.0, 3.0])
    assert np.array_equal(c, np.array([1.5, 0.0]))


def test_centroid_single_point():
    c = weighted_centroid([[3.0, -1.0]], [7.0])
    assert np.array_equal(c, np.array([3.0, -1.0]))


def test_centroid_accepts_pointset():
    ps = WeightedPointSet([[0.0, 0.0], [2.0, 0.0]], [1.0, 3.0])
    assert np.array_equal(weighted_centroid(ps), np.array([1.5, 0.0]))


def test_centroid_empty_rejected():
    with pytest.raises(ParameterError):
        weighted_centroid(np.zeros((0, 2)), np.zeros(0))


def test_pointset_validation():
    with pytest.raises(ParameterError):
        WeightedPointSet([[0.0, 0.0]], [0.0])
    with pytest.raises(ParameterError):
        WeightedPointSet([[0.0, 0.0]], [1.0, 2.0])
    with pytest.raises(ParameterError, match="weights must have a finite sum"):
        WeightedPointSet([[0.0, 0.0], [1.0, 0.0]], [1e308, 1e308])


def test_sums_past_the_float_range_are_rejected():
    with pytest.raises(ParameterError, match="total weight must be finite and positive, got inf"):
        weighted_centroid([[0.0, 0.0], [1.0, 0.0]], [1e308, 1e308])
    with pytest.raises(ParameterError, match="weighted centroid is past the float range"):
        weighted_centroid([[1e300, 0.0], [1.0, 0.0]], [1e300, 1.0])
    # a finite sum, but weight times squared distance overflows in the seeding
    with pytest.raises(ParameterError, match="weights times squared distances overflow"):
        weighted_kmeans(WeightedPointSet([[0.0, 0.0], [2.0, 0.0]], [8e307, 8e307]), 2)


# ---------------------------------------------------------------------------
# choose_k


def test_choose_k_values():
    assert choose_k(100) == 11
    assert choose_k(1) == 1
    assert choose_k(10) == 4
    assert choose_k(99) == 10
    assert choose_k(2) == 2  # clamped to the point count


def test_choose_k_rejects_bad_counts():
    with pytest.raises(ParameterError):
        choose_k(0)
    with pytest.raises(ParameterError, match="n must be an integer"):
        choose_k(2.5)


# ---------------------------------------------------------------------------
# weighted_kmeans


def test_kmeans_k_equals_n_is_exact():
    pts = two_blobs(1, per_side=3)
    ps = WeightedPointSet(pts, np.ones(6))
    res = weighted_kmeans(ps, 6, seed=0)
    assert res.objective == pytest.approx(0.0, abs=1e-18)
    assert sorted(res.labels.tolist()) == list(range(6))


def test_kmeans_k1_is_weighted_centroid():
    pts = two_blobs(2, per_side=4)
    w = substream(2, "weights").uniform(0.5, 2.0, 8)
    ps = WeightedPointSet(pts, w)
    res = weighted_kmeans(ps, 1, seed=0)
    assert np.allclose(res.centroids[0], weighted_centroid(pts, w), atol=1e-12)
    assert np.all(res.labels == 0)


def test_kmeans_recovers_separated_blobs():
    pts = two_blobs(3)
    ps = WeightedPointSet(pts, np.ones(10))
    res = weighted_kmeans(ps, 2, seed=0)

    best_obj, best_lab = best_bipartition(pts, np.ones(10))
    assert res.objective == pytest.approx(best_obj, rel=1e-9)
    # same split up to label swap
    flip = res.labels if res.labels[0] == best_lab[0] else 1 - res.labels
    assert np.array_equal(flip, best_lab)
    for g in (0, 1):
        members = pts[best_lab == g]
        lab_g = g if res.labels[0] == best_lab[0] else 1 - g
        assert np.allclose(res.centroids[lab_g], members.mean(axis=0), atol=1e-9)


def test_kmeans_objective_monotone():
    rng = substream(4, "cloud")
    pts = rng.uniform(-5, 5, (60, 2))
    w = rng.uniform(0.1, 3.0, 60)
    res = weighted_kmeans(WeightedPointSet(pts, w), 5, seed=2)
    hist = np.asarray(res.objective_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert hist[-1] == pytest.approx(res.objective, rel=1e-15)


def test_kmeans_fixed_point_on_own_output():
    rng = substream(5, "cloud")
    pts = rng.uniform(-5, 5, (40, 2))
    ps = WeightedPointSet(pts, rng.uniform(0.5, 1.5, 40))
    first = weighted_kmeans(ps, 4, seed=3)
    again = weighted_kmeans(ps, 4, seed=3, init=first.centroids)
    assert np.array_equal(again.labels, first.labels)
    assert np.array_equal(again.centroids, first.centroids)
    assert again.n_iter <= 2


def test_kmeans_weight_scale_invariance():
    rng = substream(6, "cloud")
    pts = rng.uniform(-5, 5, (30, 2))
    w = rng.uniform(0.5, 1.5, 30)
    a = weighted_kmeans(WeightedPointSet(pts, w), 3, seed=4)
    b = weighted_kmeans(WeightedPointSet(pts, 4.0 * w), 3, seed=4)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert b.objective == 4.0 * a.objective


def test_kmeans_k_out_of_range():
    ps = WeightedPointSet([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ParameterError):
        weighted_kmeans(ps, 0)
    with pytest.raises(ParameterError):
        weighted_kmeans(ps, 3)


def test_kmeans_rejects_non_finite_init():
    pts = substream(7, "cloud").uniform(-5, 5, (20, 2))
    init = np.tile(pts[0], (4, 1))
    init[2, 1] = np.nan
    with pytest.raises(ParameterError, match="init"):
        weighted_kmeans(WeightedPointSet(pts, np.ones(20)), 4, init=init)


def test_kmeans_repairs_empty_clusters():
    rng = substream(7, "cloud")
    pts = rng.uniform(-5, 5, (20, 2))
    ps = WeightedPointSet(pts, np.ones(20))
    # degenerate init: all centers identical, so all but one cluster starts empty
    init = np.tile(pts[0], (4, 1))
    res = weighted_kmeans(ps, 4, seed=5, init=init)
    assert len(np.unique(res.labels)) == 4
    assert np.isfinite(res.objective)
    assert np.all(np.diff(np.asarray(res.objective_history)) <= 1e-12)


@st.composite
def kmeans_cases(draw):
    """A weighted point set, a k in [1, n] and an init: None (seeded
    k-means++), a draw of the points themselves, or far-away centers that
    leave all but one cluster empty, so the refill runs.  Grid points
    are small integers, full of ties and duplicates; scaled by 0.1 their
    exact ties become near-ties that rounding decides."""
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["grid", "scaled-grid", "uniform"]))
    if kind != "uniform":
        pts = rng.integers(-2, 3, (n, d)) * (1.0 if kind == "grid" else 0.1)
        w = rng.integers(1, 4, n).astype(float)
    else:
        pts = rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.integers(-3, 4)
        w = rng.uniform(0.01, 1.0, n)
    k = draw(st.integers(1, n))
    init = draw(st.sampled_from(["seeded", "points", "far"]))
    if init == "seeded":
        centers = None
    elif init == "points":
        centers = pts[rng.integers(0, n, k)]
    else:
        centers = 1e3 + rng.uniform(0.0, 1.0, (k, d))
    return WeightedPointSet(pts, w), k, seed, centers


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kmeans_cases())
def test_kmeans_matches_masked_reference(case):
    ps, k, seed, init = case
    got = weighted_kmeans(ps, k, seed=seed, init=init)
    want = masked_kmeans(ps, k, seed=seed, init=init)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.objective_history.tobytes() == want.objective_history.tobytes()
    assert got.n_iter == want.n_iter


@pytest.mark.parametrize("args", [
    (["a"], [0], 0.0, 1, [0.0]),
    ([[0.0, 0.0]], ["a"], 0.0, 1, [0.0]),
    ([[0.0, 0.0]], [0], 0.0, 1, [[0.0], [0.0, 1.0]]),
], ids=["centroids", "labels", "history"])
def test_kmeans_result_rejects_arrays_of_non_numbers(args):
    # numpy's ValueError came through unchanged
    with pytest.raises(ParameterError, match="must hold real numbers"):
        KMeansResult(*args)
