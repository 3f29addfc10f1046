"""Local branch-point insertion for one-to-many flow problems.

A star network (every target wired straight to the source) is improved
by repeatedly merging the two flows that pay off most: pick the
selectable node farthest from the source, scan its neighbors from
nearest outward, and insert a branch node at the closed-form optimum of
the local cost whenever that strictly lowers the total.  Merged nodes
are permanently retired, so the loop is a greedy search with a tabu
list and finishes after exactly N iterations.  Independent trees are
grown together, one iteration per lockstep step, so that numpy's
per-call overhead is paid once per step rather than once per tree.
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
    _check_alpha,
    _child_groups,
    _outflow,
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


@dataclass(frozen=True, slots=True)
class BuildEvent:
    """One iteration of the builder: either a merge or a retirement.

    Slotted: a forest build holds every tree's events at once."""

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
# closed-form branch points (row-wise cores, scalar wrappers)
#
# The cores work row by row on (n, d) points and (n,) areas or weights, so
# one call serves a single branch point and every candidate of a forest
# step alike: each row gets the bits it would get alone.


def _row_norms(x):
    """Euclidean norm of each row: the sum ``norm(axis=1)`` computes, at any batch shape."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _coord_norms(x):
    """``_row_norms`` of points stored coordinate-major: x[c] holds coordinate c.

    Overwrites x.  numpy's reduce adds fewer than 8 terms left to right,
    so for points of 2 or 3 coordinates the squares summed one
    coordinate plane at a time, over whole contiguous planes, carry the
    bits of ``norm(axis=1)``.
    """
    np.multiply(x, x, out=x)
    return np.sqrt(np.add.reduce(x, axis=0))


def _power_points(wv_i, w_i, v_j, w_j, v_k, w_k):
    """Power-rule branch points; ``wv_i`` is w_i * v_i."""
    num = wv_i + w_j[:, None] * v_j + w_k[:, None] * v_k
    return num / (w_i + w_j + w_k)[:, None]


def _interp_points(sv_i, v_j, s_j, s_m, v_k, alpha):
    """Interpolating branch points; ``sv_i`` is s_i * v_i and ``s_m`` is s_i + s_j."""
    mid = (sv_i + s_j[:, None] * v_j) / s_m[:, None]
    return (1.0 - alpha) * mid + alpha * v_k


def _gains(before_i, w_i, w_j, w_m, before_j, v_k, v_i, v_j, zs):
    """Cost saved per row by routing v_i and v_j through zs, and |v_k - zs|.

    ``before_i`` and ``before_j`` are the weighted direct edges of v_i
    and v_j to v_k.
    """
    legs = np.empty((3,) + zs.shape)
    np.subtract(v_k, zs, out=legs[0])
    np.subtract(zs, v_i, out=legs[1])
    np.subtract(zs, v_j, out=legs[2])
    r_z, r_i, r_j = _row_norms(legs)
    return before_i + before_j - (w_m * r_z + w_i * r_i + w_j * r_j), r_z


def _check_branch_args(s_i, s_j, alpha):
    if s_i <= 0 or s_j <= 0:
        raise ParameterError("sectional areas must be strictly positive")
    _check_alpha(alpha)


def _one_row(v_k, v_i, v_j, s_i, s_j, alpha):
    """Checked scalar arguments as one-row arrays."""
    _check_branch_args(s_i, s_j, alpha)
    rows = [as_point(v)[None, :] for v in (v_k, v_i, v_j)]
    return rows, np.array([float(s_i)]), np.array([float(s_j)])


def branch_point_power(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location minimizing the area-powered quadratic spread.

    A convex combination of the three endpoints with weights s_i**alpha,
    s_j**alpha and (s_i+s_j)**alpha, so it always lies inside the
    triangle (v_i, v_j, v_k).
    """
    (v_k, v_i, v_j), s_i, s_j = _one_row(v_k, v_i, v_j, s_i, s_j, alpha)
    w_i = np.array([float(s_i[0]) ** alpha])
    w_m = (s_i + s_j) ** alpha
    return _power_points(w_i[:, None] * v_i, w_i, v_j, s_j ** alpha, v_k, w_m)[0]


def branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location interpolating T-shaped and V-shaped junctions.

    Lies on the segment from the area-weighted midpoint of the two
    downstream nodes (alpha = 0, the T limit) to the upstream node
    itself (alpha = 1, the V limit: no branching).
    """
    (v_k, v_i, v_j), s_i, s_j = _one_row(v_k, v_i, v_j, s_i, s_j, alpha)
    return _interp_points(s_i[:, None] * v_i, v_j, s_j, s_i + s_j, v_k, alpha)[0]


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


def local_improvement(v_k, v_i, v_j, z, s_i, s_j, alpha) -> float:
    """Cost saved by rerouting two direct edges through a branch at ``z``.

    Positive means the branch strictly lowers the network cost; placing
    ``z`` at ``v_k`` gives exactly zero.
    """
    (v_k, v_i, v_j), s_i, s_j = _one_row(v_k, v_i, v_j, s_i, s_j, alpha)
    w_i = float(s_i[0]) ** alpha
    w_j = s_j ** alpha
    dv = v_k - v_i
    before_i = w_i * np.sqrt(np.vecdot(dv, dv))
    before_j = w_j * _row_norms(v_k - v_j)
    gains, _ = _gains(before_i, w_i, w_j, (s_i + s_j) ** alpha, before_j,
                      v_k, v_i, v_j, as_point(z)[None, :])
    return float(gains[0])


def star_cost(problem: OneToManyProblem, alpha: float) -> float:
    """Cost of wiring every target straight to the source."""
    _check_alpha(alpha)
    lengths = np.linalg.norm(problem.targets - problem.source, axis=1)
    return float(np.sum(problem.areas ** alpha * lengths))


# ---------------------------------------------------------------------------
# the greedy/tabu builder, run in lockstep over a forest

_BLOCK_CELLS = 4096  # bound on trees x widest tree in one lockstep block


class _Tree:
    """The per-tree part of a lockstep build, kept in Python."""

    __slots__ = ("problem", "n", "off", "params", "eps", "heap", "count",
                 "cost", "trace", "events", "evals", "near_merges", "result")

    def __init__(self, problem, params, eps):
        d = problem.dim
        if eps is None and params.shift_norm > 0:
            rng = substream(params.seed, "branch-shift")
            eps = random_direction(rng, d) * params.shift_norm
        if eps is not None:
            eps = np.asarray(eps, dtype=float)
            if eps.shape != (d,):
                raise ParameterError("eps must have the same dimension as the points")
        self.problem = problem
        self.n = problem.n_targets
        self.params = params
        self.eps = eps
        self.count = self.n + 1
        self.events = []
        self.evals = 0
        self.near_merges = 0


def _least_per_tree(tb, *keys):
    """Positions in the sorted tree indices ``tb`` of each tree's least
    entry by ``keys``, most significant first; one per tree, in tree order."""
    if tb.size and tb[0] == tb[-1]:   # tb is sorted: one tree
        return np.lexsort(keys[::-1])[:1]
    order = np.lexsort(keys[::-1] + (tb,))
    t = tb[order]
    first = np.empty(t.size, dtype=bool)
    first[:1] = True
    np.not_equal(t[1:], t[:-1], out=first[1:])
    return order[first]


def _grow_block(trees, nearest_only, post_point):
    """Build the trees of one block in lockstep, one iteration per step.

    ``trees`` are sorted by size, largest first, and share dimension,
    formula, alpha and shift settings.  Every iteration retires exactly
    one selectable node, so tree b runs for exactly n_b steps and the
    trees still running at a step are a prefix of the block.  Node data
    of all trees sit in flat arrays at per-tree offsets.  The selectable
    nodes of tree b sit compacted in row b of NaN-padded (B, W) planes,
    one per coordinate, and NaN cells drop out of every comparison.
    Returns the number of far-band scans.
    """
    params = trees[0].params
    alpha = params.alpha
    power = params.formula == "power"
    delta = params.shift_delta
    B = len(trees)
    W = trees[0].n
    d = trees[0].problem.dim

    sizes = [t.n for t in trees]
    caps = [2 * n + 1 for n in sizes]
    offs = np.cumsum([0] + caps[:-1]).tolist()
    total = sum(caps)
    pos = np.zeros((total, d))
    area = np.zeros(total)
    parent = [0] * total   # per-tree ids; targets start on the source
    # fixed when a node is inserted: area ** alpha, and that times the
    # distance to the source, the node's direct-edge cost
    wa = np.zeros(total)
    before = np.zeros(total)
    # the selectable nodes of tree b: ids[b, :m] at positions live[:, b, :m];
    # slot[k] is k's flat cell b * W + index there, or -1 once k is retired
    live = np.full((d, B, W), np.nan)
    ids = np.zeros((B, W), dtype=np.int64)
    cells = live.reshape(d, B * W)
    flat_ids = ids.reshape(B * W)
    slot = [-1] * total
    for b, t in enumerate(trees):
        problem = t.problem
        n = t.n
        o = t.off = offs[b]
        tgt = slice(o + 1, o + n + 1)
        pos[o] = problem.source
        pos[tgt] = problem.targets
        area[tgt] = problem.areas
        parent[o] = -1
        r0 = _row_norms(pos[tgt] - pos[o])
        wa[tgt] = area[tgt] ** alpha
        before[tgt] = wa[tgt] * r0
        t.cost = float(np.sum(before[tgt]))   # star_cost's arithmetic
        t.trace = [t.cost]
        live[:, b, :n] = pos[tgt].T
        ids[b, :n] = np.arange(o + 1, o + n + 1)
        slot[tgt] = range(b * W, b * W + n)
        # farthest first, lower id on ties; retired partners are skipped on pop
        t.heap = list(zip((-r0).tolist(), range(o + 1, o + n + 1)))
        heapq.heapify(t.heap)
    v0 = pos[offs]
    eps = np.array([t.eps for t in trees]) if trees[0].eps is not None else None
    size_arr = np.array(sizes)
    last_cell = np.arange(B) * W + size_arr - 1
    work = np.empty((d, B, W))
    far_scans = 0
    nact = B

    for step in range(W):
        while sizes[nact - 1] <= step:
            nact -= 1
        # pop each running tree's farthest selectable node, and retire it
        # by moving the tree's last selectable node into its cell
        gi = []
        for t in trees[:nact]:
            g = heapq.heappop(t.heap)[1]
            while slot[g] < 0:
                g = heapq.heappop(t.heap)[1]
            gi.append(g)
        c_i = np.array([slot[g] for g in gi])
        c_last = last_cell[:nact] - step
        moved = flat_ids[c_last]
        flat_ids[c_i] = moved
        cells[:, c_i] = cells[:, c_last]
        cells[:, c_last] = np.nan
        for g, c, k in zip(gi, c_i.tolist(), moved.tolist()):
            slot[k] = c
            slot[g] = -1

        # the trees with selectable nodes left scan them; the others retire
        nscan = nact
        while nscan and sizes[nscan - 1] <= step + 1:
            nscan -= 1
        merges = {}
        if nscan:
            width = sizes[0] - step - 1
            n_live = size_arr[:nscan] - (step + 1)
            gs = np.array(gi[:nscan])
            vi = pos[gs]
            x = np.subtract(live[:, :nscan, :width], vi.T[:, :, None],
                            out=work[:, :nscan, :width])
            dist = _coord_norms(x)
            flat_dist = dist.reshape(-1)
            s_i = area[gs]
            w_i = np.array([s ** alpha for s in s_i.tolist()])
            dv = v0[:nscan] - vi
            before_i = w_i * np.sqrt(np.vecdot(dv, dv))
            # w_i * v_i or s_i * v_i: the picked node's term of the formula
            prod = (w_i if power else s_i)[:, None] * vi
            per_tree = [v0[:nscan], vi, s_i, w_i, before_i, prod]
            if eps is not None:
                per_tree.append(eps[:nscan])

            def candidates(mask):
                """The cells of ``mask``: tree, index into dist, flat cell."""
                f = mask.reshape(-1).nonzero()[0]
                if nscan == 1:
                    return np.zeros(f.size, dtype=np.intp), f, f
                tb = f // width
                return tb, f, f + tb * (W - width)

            def scan(tb, f, c):
                """Evaluate the candidates; per tree, the improving one of
                least (distance, id)."""
                k = flat_ids[c]
                v_j = cells[:, c].T
                # one tree's values broadcast; several are gathered per candidate
                v_k, v_i, s_ic, w_ic, bef, prod_c, *shift = (
                    per_tree if nscan == 1 else [a[tb] for a in per_tree]
                )
                s_j = area[k]
                w_j = wa[k]
                s_m = s_ic + s_j
                w_m = s_m ** alpha
                if power:
                    zs = _power_points(prod_c, w_ic, v_j, w_j, v_k, w_m)
                else:
                    zs = _interp_points(prod_c, v_j, s_j, s_m, v_k, alpha)
                if shift:
                    zs = zs + shift[0] / (s_m + delta)[:, None]
                if post_point is not None:
                    zs = post_point(zs)
                gains, r_z = _gains(bef, w_ic, w_j, w_m, before[k], v_k, v_i, v_j, zs)
                h = (gains > GAIN_TOL).nonzero()[0]
                h = h[_least_per_tree(tb[h], flat_dist[f[h]], k[h])]
                return tb[h], k[h], c[h], zs[h], s_m[h], gains[h], w_m[h], r_z[h]

            # the near band holds every candidate at most as far as the
            # _NEAR_BAND-th nearest; the rest are scanned only if none pays
            if nearest_only:
                tb, f, c = candidates(dist == np.fmin.reduce(dist, axis=1)[:, None])
                near = _least_per_tree(tb, flat_ids[c])
                tb, f, c = tb[near], f[near], c[near]
            elif width > _NEAR_BAND:
                cut = np.partition(dist, _NEAR_BAND - 1, axis=1)[:, _NEAR_BAND - 1]
                # the trees with at most _NEAR_BAND selectable nodes, a suffix
                small = nscan
                while small and sizes[small - 1] - step - 1 <= _NEAR_BAND:
                    small -= 1
                cut[small:] = np.inf
                tb, f, c = candidates(dist <= cut[:, None])
            else:
                tb, f, c = candidates(dist == dist)
            evals = np.bincount(tb, minlength=nscan)
            bands = [scan(tb, f, c)]
            missed = evals < n_live
            missed[bands[0][0]] = False
            if not nearest_only and missed.any():
                far_scans += int(np.count_nonzero(missed))
                tb, f, c = candidates((dist > cut[:, None]) & missed[:, None])
                evals += np.bincount(tb, minlength=nscan)
                bands.append(scan(tb, f, c))
            for t, e in zip(trees, evals.tolist()):
                t.evals += e
            for b in bands[0][0].tolist():
                trees[b].near_merges += 1

            # each merge retires the partner and puts the branch node in its cell
            for mb, j, c, z, s_m, gains, w_m, r_z in bands:
                if not mb.size:
                    continue
                mb = mb.tolist()
                new = np.array([trees[b].off + trees[b].count for b in mb])
                flat_ids[c] = new
                cells[:, c] = z.T
                pos[new] = z
                area[new] = s_m
                wa[new] = w_m
                before[new] = w_m * r_z
                for b, k, g, cell, r, gain in zip(
                    mb, j.tolist(), new.tolist(), c.tolist(), r_z.tolist(), gains.tolist()
                ):
                    t = trees[b]
                    parent[gi[b]] = parent[k] = g - t.off
                    slot[k] = -1
                    slot[g] = cell
                    heapq.heappush(t.heap, (-r, g))
                    t.count += 1
                    merges[b] = (k, g, gain)

        for b, (t, g) in enumerate(zip(trees, gi)):
            o = t.off
            if b in merges:
                k, g_b, gain = merges[b]
                t.cost -= gain
                t.trace.append(t.cost)
                t.events.append(BuildEvent(step, g - o, k - o, g_b - o, gain, t.cost))
            else:
                t.events.append(BuildEvent(step, g - o, None, None, 0.0, t.cost))

    for t in trees:
        o, n, count = t.off, t.n, t.count
        kind = np.empty(count, dtype="U6")
        kind[0] = KIND_SOURCE
        kind[1:n + 1] = KIND_TARGET
        kind[n + 1:] = KIND_BRANCH
        par = np.array(parent[o:o + count])
        a = area[o:o + count]
        a[0] = _outflow(a, *_child_groups(par))[0]
        tree = FlowTree(pos[o:o + count], kind, par, a)
        t.result = BuildResult(tree, np.array(t.trace), tuple(t.events), t.evals, t.eps)
        t.heap = t.trace = t.events = None
    return far_scans


def _grow(problems, params, eps, nearest_only, post_point):
    """Build every problem's tree; returns the results in input order and
    the counts of the lockstep run."""
    problems = list(problems)
    params = list(params)
    eps = [None] * len(problems) if eps is None else list(eps)
    if not len(params) == len(eps) == len(problems):
        raise ParameterError("params and eps must have one entry per problem")
    trees = [_Tree(*args) for args in zip(problems, params, eps)]

    # a block shares every scalar of the scan arithmetic
    groups = {}
    for t in trees:
        p = t.params
        shift = None if t.eps is None else p.shift_delta
        key = (t.problem.dim, p.formula, p.alpha, t.eps is not None, shift)
        groups.setdefault(key, []).append(t)
    counts = {"blocks": 0, "steps": 0, "cells": 0, "far": 0}
    for group in groups.values():
        group.sort(key=lambda t: -t.n)
        start = 0
        while start < len(group):
            width = group[start].n
            block = group[start:start + max(1, _BLOCK_CELLS // width)]
            counts["far"] += _grow_block(block, nearest_only, post_point)
            counts["blocks"] += 1
            counts["steps"] += width
            counts["cells"] += len(block) * width
            start += len(block)

    for t in trees:
        merges = t.count - t.n - 1
        _log.debug(
            "build_one_to_many N=%d: %d iterations, %d merges, %d retirements, "
            "%d candidate evals, %d merges in the near band",
            t.n, t.n, merges, t.n - merges, t.evals, t.near_merges,
        )
    return [t.result for t in trees], counts


def build_forest(
    problems,
    params,
    *,
    eps=None,
    nearest_only: bool = False,
    post_point=None,
) -> list[BuildResult]:
    """Grow one branched flow tree per problem, all trees in lockstep.

    Starting from the star network, each iteration picks the selectable
    node farthest from the source and scans the other selectable nodes
    from nearest outward; the first neighbor whose closed-form branch
    point improves the cost by more than ``GAIN_TOL`` is merged with it
    into a new branch node (which becomes selectable itself), and both
    are retired.  If no neighbor improves, the picked node is retired on
    its direct source edge.  Every iteration retires one selectable node
    for good, so a tree over N targets takes exactly N iterations and at
    most N - 1 insertions, and the cost after each accepted insertion is
    strictly decreasing.  Ties in the distance to the source or to the
    picked node go to the lower id.

    ``params`` holds one ``BotParams`` per problem, and ``eps`` is None
    or one shift vector (or None) per problem.  Each tree gets exactly
    the bytes ``build_one_to_many`` gives it alone; the results come back
    in input order.  Trees are grouped by dimension, formula, alpha and
    shift settings, sorted by size, and cut into blocks of at most
    ``_BLOCK_CELLS`` padded cells (one tree always fits).  Each lockstep
    step pops and retires one node per running tree in Python, then runs
    the distance pass, the near-band cut, the candidate evaluation and
    the least-(distance, id) pick as one numpy pass over the block.
    ``post_point`` sees the candidates of several trees at once, so it
    must act row by row.  One DEBUG line per call on this module's
    logger gives the trees, blocks, lockstep steps, padded cells and
    far-band scans, after each tree's own ``build_one_to_many`` line.
    """
    results, c = _grow(problems, params, eps, nearest_only, post_point)
    _log.debug(
        "build_forest: %d trees in %d blocks, %d lockstep steps, %d padded cells, "
        "%d far-band scans",
        len(results), c["blocks"], c["steps"], c["cells"], c["far"],
    )
    return results


def build_one_to_many(
    problem: OneToManyProblem,
    params: BotParams,
    *,
    eps: np.ndarray | None = None,
    nearest_only: bool = False,
    post_point=None,
) -> BuildResult:
    """Grow a branched flow tree over one source and its targets.

    A forest of one: see ``build_forest``.  Each build logs its counts
    at DEBUG as ``build_one_to_many N=...``.

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
    return _grow([problem], [params], [eps], nearest_only, post_point)[0][0]
