"""Local branch-point insertion for one-to-many flow problems.

A star network (every target wired straight to the source) is improved
by repeatedly merging the two flows that pay off most: pick the
selectable node farthest from the source, scan its neighbors from
nearest outward, and insert a branch node at the closed-form optimum of
the local cost whenever that strictly lowers the total.  Merged nodes
are permanently retired, so the loop is a greedy search with a tabu
list and finishes in at most 2N iterations.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    KIND_BRANCH,
    KIND_SOURCE,
    KIND_TARGET,
    BotParams,
    FlowTree,
    ParameterError,
    as_point,
    _as_point_array,
    _as_mass_vector,
)
from .seeding import random_direction, substream

_log = logging.getLogger(__name__)

GAIN_TOL = 1e-12  # a merge must beat this to be accepted
_NEAR_BAND = 16   # nearest candidates scanned before the scan widens to all


@dataclass(frozen=True)
class OneToManyProblem:
    """One source feeding N targets with prescribed sectional areas."""

    source: np.ndarray
    targets: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source", as_point(self.source))
        object.__setattr__(self, "targets", _as_point_array(self.targets, "targets"))
        object.__setattr__(self, "areas", _as_mass_vector(self.areas, "areas"))
        if self.targets.shape[1] != self.source.shape[0]:
            raise ParameterError("source and targets must share one dimension")
        if self.areas.shape[0] != self.targets.shape[0]:
            raise ParameterError("areas must have one entry per target")
        if self.targets.shape[0] == 0:
            raise ParameterError("at least one target is required")
        if np.any(self.areas <= 0):
            raise ParameterError("areas must be strictly positive")

    @property
    def n_targets(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.source.shape[0]


@dataclass(frozen=True)
class BuildEvent:
    """One iteration of the builder: either a merge or a retirement."""

    step: int
    picked: int               # farthest selectable node i
    partner: int | None       # merged neighbor j, None if i was retired
    branch: int | None        # id of the inserted branch node
    gain: float
    cost: float               # network cost after this iteration


@dataclass(frozen=True)
class BuildResult:
    """A built tree with its cost trace and per-iteration events.

    ``candidate_evals`` counts the branch points the scan evaluated:
    the nearest few neighbors per merge, every remaining selectable
    node per retirement (and per merge found beyond the nearest few).
    """

    tree: FlowTree
    trace: np.ndarray         # cost before any merge, then after each merge
    events: tuple[BuildEvent, ...]
    candidate_evals: int
    eps: np.ndarray | None    # frozen shift vector actually used


# ---------------------------------------------------------------------------
# closed-form branch points (vectorized cores, scalar wrappers)


def _power_points(v_k, v_i, v_js, s_i, s_js, alpha):
    w_i = s_i ** alpha
    w_j = s_js ** alpha
    w_k = (s_i + s_js) ** alpha
    num = w_i * v_i + w_j[:, None] * v_js + w_k[:, None] * v_k
    return num / (w_i + w_j + w_k)[:, None]


def _interp_points(v_k, v_i, v_js, s_i, s_js, alpha):
    mid = (s_i * v_i + s_js[:, None] * v_js) / (s_i + s_js)[:, None]
    return (1.0 - alpha) * mid + alpha * v_k


_FORMULAS = {"power": _power_points, "interp": _interp_points}


def _check_branch_args(s_i, s_j, alpha):
    if s_i <= 0 or s_j <= 0:
        raise ParameterError("sectional areas must be strictly positive")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")


def branch_point_power(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location minimizing the area-powered quadratic spread.

    A convex combination of the three endpoints with weights s_i**alpha,
    s_j**alpha and (s_i+s_j)**alpha, so it always lies inside the
    triangle (v_i, v_j, v_k).
    """
    _check_branch_args(s_i, s_j, alpha)
    v_k, v_i, v_j = as_point(v_k), as_point(v_i), as_point(v_j)
    return _power_points(v_k, v_i, v_j[None, :], float(s_i), np.array([float(s_j)]), alpha)[0]


def branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location interpolating T-shaped and V-shaped junctions.

    Lies on the segment from the area-weighted midpoint of the two
    downstream nodes (alpha = 0, the T limit) to the upstream node
    itself (alpha = 1, the V limit: no branching).
    """
    _check_branch_args(s_i, s_j, alpha)
    v_k, v_i, v_j = as_point(v_k), as_point(v_i), as_point(v_j)
    return _interp_points(v_k, v_i, v_j[None, :], float(s_i), np.array([float(s_j)]), alpha)[0]


def branch_point_shifted(v_k, v_i, v_j, s_i, s_j, alpha, eps, delta) -> np.ndarray:
    """Interpolating branch point plus a frozen displacement.

    The shift eps / (s_i + s_j + delta) shrinks with the merged area:
    thick trunks are rigid, thin twigs bend.  A zero ``eps`` reduces to
    the unshifted formula exactly.
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    z = branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != z.shape:
        raise ParameterError("eps must have the same dimension as the points")
    return z + eps / (float(s_i) + float(s_j) + float(delta))


def _gains(v_k, v_i, v_js, s_i, s_js, alpha, zs):
    w_i = s_i ** alpha
    w_j = s_js ** alpha
    w_m = (s_i + s_js) ** alpha
    before = w_i * np.linalg.norm(v_k - v_i) + w_j * np.linalg.norm(v_k - v_js, axis=1)
    after = (
        w_m * np.linalg.norm(v_k - zs, axis=1)
        + w_i * np.linalg.norm(zs - v_i, axis=1)
        + w_j * np.linalg.norm(zs - v_js, axis=1)
    )
    return before - after


def local_improvement(v_k, v_i, v_j, z, s_i, s_j, alpha) -> float:
    """Cost saved by rerouting two direct edges through a branch at ``z``.

    Positive means the branch strictly lowers the network cost; placing
    ``z`` at ``v_k`` gives exactly zero.
    """
    _check_branch_args(s_i, s_j, alpha)
    v_k, v_i, v_j, z = as_point(v_k), as_point(v_i), as_point(v_j), as_point(z)
    return float(
        _gains(v_k, v_i, v_j[None, :], float(s_i), np.array([float(s_j)]), alpha, z[None, :])[0]
    )


def star_cost(problem: OneToManyProblem, alpha: float) -> float:
    """Cost of wiring every target straight to the source."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    lengths = np.linalg.norm(problem.targets - problem.source, axis=1)
    return float(np.sum(problem.areas ** alpha * lengths))


# ---------------------------------------------------------------------------
# the greedy/tabu builder


def build_one_to_many(
    problem: OneToManyProblem,
    params: BotParams,
    *,
    eps: np.ndarray | None = None,
    nearest_only: bool = False,
    post_point=None,
) -> BuildResult:
    """Grow a branched flow tree over one source and its targets.

    Starting from the star network, each iteration picks the selectable
    node farthest from the source and scans the other selectable nodes
    from nearest outward; the first neighbor whose closed-form branch
    point improves the cost by more than ``GAIN_TOL`` is merged with it
    into a new branch node (which becomes selectable itself), and both
    are retired.  If no neighbor improves, the picked node is retired on
    its direct source edge.  Retired nodes never return, so the loop
    ends after at most 2N iterations and N - 1 insertions, and the cost
    after each accepted insertion is strictly decreasing.  Ties in the
    distance to the source or to the picked node go to the lower id.

    The scan evaluates the nearest few neighbors first and the rest only
    when none of those improves, so ``candidate_evals`` counts the
    branch points actually evaluated: about a constant per merge, all
    other selectable nodes per retirement.

    ``eps`` overrides the frozen shift vector (otherwise drawn once from
    ``params.seed`` when ``params.shift_norm > 0``); ``nearest_only``
    restricts the scan to the single nearest neighbor; ``post_point``
    maps candidate branch points (an (n, dim) array, a subset of the
    neighbors) before they are evaluated, e.g. to re-project them onto a
    sphere.  It must act row by row, and sees only the candidates the
    scan reaches.
    """
    n = problem.n_targets
    d = problem.dim
    formula = _FORMULAS[params.formula]
    alpha = params.alpha

    if eps is None and params.shift_norm > 0:
        rng = substream(params.seed, "branch-shift")
        eps = random_direction(rng, d) * params.shift_norm
    if eps is not None:
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (d,):
            raise ParameterError("eps must have the same dimension as the points")

    cap = 2 * n + 1
    pos = np.zeros((cap, d))
    area = np.zeros(cap)
    parent = np.full(cap, -1, dtype=np.int64)
    # fixed when a node is inserted: distance to the source, area ** alpha
    r0 = np.zeros(cap)
    wa = np.zeros(cap)

    pos[0] = problem.source
    pos[1:n + 1] = problem.targets
    area[1:n + 1] = problem.areas
    area[0] = float(problem.areas.sum())
    parent[1:n + 1] = 0
    v0 = pos[0]
    r0[1:n + 1] = np.linalg.norm(pos[1:n + 1] - v0, axis=1)
    wa[1:n + 1] = area[1:n + 1] ** alpha
    count = n + 1

    # the selectable nodes, compacted: ids[:m] at positions live[:m];
    # slot[k] is k's index there, or -1 once k is retired
    ids = np.arange(1, n + 1)
    live = pos[1:n + 1].copy()
    slot = [-1] * cap
    slot[1:n + 1] = range(n)
    m = n
    # farthest first, lower id on ties; retired partners are skipped on pop
    heap = list(zip((-r0[1:n + 1]).tolist(), range(1, n + 1)))
    heapq.heapify(heap)

    def retire(k):
        nonlocal m
        s = slot[k]
        m -= 1
        last = int(ids[m])
        ids[s] = last
        live[s] = live[m]
        slot[last] = s
        slot[k] = -1

    cost = star_cost(problem, alpha)
    trace = [cost]
    events: list[BuildEvent] = []
    evals = 0
    near_merges = 0
    step = 0

    while heap:
        i = heapq.heappop(heap)[1]
        if slot[i] < 0:
            continue
        retire(i)

        j = -1
        if m:
            v_i = pos[i]
            s_i = float(area[i])
            w_i = s_i ** alpha
            before_i = w_i * np.linalg.norm(v0 - v_i)
            dist = np.linalg.norm(live[:m] - v_i, axis=1)

            def scan(band):
                """The improving candidate of ``band`` with the least (distance, id)."""
                k = ids[band]
                v_js = live[band]
                s_js = area[k]
                zs = formula(v0, v_i, v_js, s_i, s_js, alpha)
                if eps is not None:
                    zs = zs + eps / (s_i + s_js + params.shift_delta)[:, None]
                if post_point is not None:
                    zs = post_point(zs)
                # the same arithmetic as _gains, with the per-node terms stored
                w_j = wa[k]
                w_m = (s_i + s_js) ** alpha
                r_z = np.linalg.norm(v0 - zs, axis=1)
                before = before_i + w_j * r0[k]
                after = (
                    w_m * r_z
                    + w_i * np.linalg.norm(zs - v_i, axis=1)
                    + w_j * np.linalg.norm(zs - v_js, axis=1)
                )
                gains = before - after
                hits = np.flatnonzero(gains > GAIN_TOL)
                if not hits.size:
                    return None
                d_hits = dist[band[hits]]
                hits = hits[d_hits == d_hits.min()]
                h = hits[np.argmin(k[hits])]
                return int(k[h]), zs[h], float(gains[h]), w_m[h], r_z[h]

            # the near band holds every candidate at most as far as the
            # _NEAR_BAND-th nearest; the rest are scanned only if none pays
            if nearest_only:
                near = np.flatnonzero(dist == dist.min())
                near = near[np.argmin(ids[near])][None]
            elif m > _NEAR_BAND:
                cut = np.partition(dist, _NEAR_BAND - 1)[_NEAR_BAND - 1]
                near = np.flatnonzero(dist <= cut)
            else:
                near = np.arange(m)
            hit = scan(near)
            evals += near.size
            if hit is not None:
                near_merges += 1
            elif near.size < m and not nearest_only:
                far = np.flatnonzero(dist > cut)
                hit = scan(far)
                evals += far.size
            if hit is not None:
                j, z, gain, w_b, r_b = hit

        if j >= 0:
            retire(j)
            b = count
            pos[b] = z
            area[b] = area[i] + area[j]
            r0[b] = r_b
            wa[b] = w_b
            parent[b] = 0
            parent[i] = b
            parent[j] = b
            ids[m] = b
            live[m] = z
            slot[b] = m
            m += 1
            heapq.heappush(heap, (-float(r_b), b))
            count += 1
            cost -= gain
            trace.append(cost)
            events.append(BuildEvent(step, i, j, b, gain, cost))
        else:
            events.append(BuildEvent(step, i, None, None, 0.0, cost))
        step += 1

    merges = count - n - 1
    _log.debug(
        "build_one_to_many N=%d: %d iterations, %d merges, %d retirements, "
        "%d candidate evals, %d merges in the near band",
        n, step, merges, step - merges, evals, near_merges,
    )
    kind = np.empty(count, dtype="U6")
    kind[0] = KIND_SOURCE
    kind[1:n + 1] = KIND_TARGET
    kind[n + 1:count] = KIND_BRANCH
    tree = FlowTree(pos[:count], kind, parent[:count], area[:count])
    return BuildResult(tree, np.array(trace), tuple(events), evals, eps)
