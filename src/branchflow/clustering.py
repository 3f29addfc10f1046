"""Weighted K-means for grouping weighted points into service regions.

Lloyd iterations on a population-weighted objective: each center is the
weighted mean of its cluster, and cluster count for n points defaults to
floor(sqrt(n)) + 1 so region sizes grow with the square root of the
point count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ParameterError,
    _as_mass_vector,
    _as_point_array,
    _check_count,
    _check_int,
    _child_groups,
    _floats,
    _freeze,
    _outflow,
)
from .seeding import substream

_KMEANS_TOL = 1e-9  # Lloyd stops once the objective improves by at most this
_KMEANS_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class WeightedPointSet:
    """Points with strictly positive weights, e.g. cities with populations."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_point_array(self.points, "points"))
        object.__setattr__(self, "weights", _as_mass_vector(self.weights, "weights"))
        if self.weights.shape[0] != self.points.shape[0]:
            raise ParameterError("weights must have one entry per point")
        if self.points.shape[0] == 0:
            raise ParameterError("at least one point is required")
        if np.any(self.weights <= 0):
            raise ParameterError("weights must be strictly positive")
        with np.errstate(over="ignore"):   # a sum past the float range is rejected here
            if not np.isfinite(self.weights.sum()):
                raise ParameterError("weights must have a finite sum")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    objective: float          # sum of weight * squared distance to own center
    n_iter: int
    objective_history: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centroids", _freeze(_floats(self.centroids, "centroids")))
        object.__setattr__(self, "labels", _freeze(_floats(self.labels, "labels", np.int64)))
        object.__setattr__(self, "objective_history",
                           _freeze(_floats(self.objective_history, "objective_history")))


def weighted_centroid(points, weights=None) -> np.ndarray:
    """Weight-averaged location of a point set.

    Accepts either a WeightedPointSet or separate point and weight arrays.
    """
    if isinstance(points, WeightedPointSet):
        if weights is not None:
            raise ParameterError("weights are already part of the point set")
        points, weights = points.points, points.weights
    pts = _as_point_array(points, "points")
    w = _as_mass_vector(weights, "weights")
    if w.shape[0] != pts.shape[0]:
        raise ParameterError("weights must have one entry per point")
    # sums past the float range are rejected below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        total = w.sum()
        if not 0 < total < np.inf:
            raise ParameterError(f"total weight must be finite and positive, got {total}")
        centroid = (w[:, None] * pts).sum(axis=0) / total
    if not np.all(np.isfinite(centroid)):
        raise ParameterError("the weighted centroid is past the float range")
    return centroid


def choose_k(n: int) -> int:
    """Default cluster count for n points: floor(sqrt(n)) + 1, capped at n."""
    _check_count(n, "n")
    return min(math.isqrt(n) + 1, n)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # summed per coordinate in the pairing of einsum("nkd,nkd->nk"), (d0² + d2²) + d1² in
    # 3-D and d0² + d1² in 2-D, which is the order that matches einsum bit for bit; the
    # natural order (d0² + d1²) + d2² differs on about 23% of entries
    sq = [points[:, j, None] - centers[None, :, j] for j in range(points.shape[1])]
    sq = [np.multiply(d, d, out=d) for d in sq]   # in place: each (n, k) array is big
    if len(sq) == 3:
        sq[0] += sq[2]
    return np.add(sq[0], sq[1], out=sq[0])


def _plus_plus_init(points, weights, k, rng) -> np.ndarray:
    """Weighted k-means++ seeding: far, heavy points make likely centers."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    centers[0] = points[rng.choice(n, p=probs)]
    if k == 1:
        return centers
    d2 = np.einsum("nd,nd->n", points - centers[0], points - centers[0])
    for c in range(1, k):
        scores = weights * d2
        total = scores.sum()
        if total <= 0:
            # all points coincide with chosen centers; any pick works
            centers[c] = points[rng.choice(n, p=probs)]
        else:
            centers[c] = points[rng.choice(n, p=scores / total)]
        step = points - centers[c]
        d2 = np.minimum(d2, np.einsum("nd,nd->n", step, step))
    return centers


def weighted_kmeans(
    pointset: WeightedPointSet,
    k: int,
    *,
    seed: int = 0,
    init: np.ndarray | None = None,
) -> KMeansResult:
    """Cluster weighted points into k groups by Lloyd iteration.

    Each round assigns points to their nearest center, refills any center
    left empty with the point costing the most where it is, then moves
    every center to the weighted mean of its members.  Stops when the
    objective (sum of weight times squared distance) improves by at most
    1e-9, so feeding a converged result's centroids back via ``init``
    reproduces it unchanged, or after 200 rounds.
    """
    x = pointset.points
    w = pointset.weights
    n = pointset.n_points
    _check_count(k, "k")
    _check_int(seed, "seed")
    if k > n:
        raise ParameterError(f"k must lie in [1, {n}], got {k}")

    if init is not None:
        centers = _floats(init, "init")
        if centers.shape != (k, pointset.dim) or not np.all(np.isfinite(centers)):
            raise ParameterError(
                f"init must be finite, of shape ({k}, {pointset.dim}), got shape {centers.shape}"
            )

    try:
        with np.errstate(over="raise", invalid="raise"):
            if init is None:
                centers = _plus_plus_init(x, w, k, substream(seed, "kmeans-init"))
            return _lloyd(x, w, k, centers)
    except FloatingPointError:   # sums of weight times squared distance past the float range
        raise ParameterError("weights times squared distances overflow the float range") from None


def _lloyd(x, w, k, centers) -> KMeansResult:
    """Lloyd rounds from ``centers``, as weighted_kmeans describes them."""
    n = x.shape[0]
    prev = math.inf
    history: list[float] = []
    for it in range(1, _KMEANS_MAX_ITER + 1):
        d2 = _sq_dists(x, centers)
        labels = np.argmin(d2, axis=1)

        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            costs = w * d2[np.arange(n), labels]
            for c in np.flatnonzero(counts == 0):
                # only steal from clusters that keep at least one member
                movable = counts[labels] > 1
                j = int(np.argmax(np.where(movable, costs, -1.0)))
                counts[labels[j]] -= 1
                counts[c] += 1
                labels[j] = c
                costs[j] = -1.0

        mass = _outflow(w, *_child_groups(labels))[:k]
        for j in range(x.shape[1]):
            centers[:, j] = np.bincount(labels, w * x[:, j], k) / mass

        diff = x - centers[labels]
        obj = float(np.sum(w * np.einsum("nd,nd->n", diff, diff)))
        history.append(obj)
        if prev - obj <= _KMEANS_TOL:
            break
        prev = obj

    return KMeansResult(centers, labels, history[-1], it, np.array(history))
