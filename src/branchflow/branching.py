"""Local branch-point insertion for one-to-many flow problems.

A star network (every target wired straight to the source) is improved
by repeatedly merging the two flows that pay off most: pick the
selectable node farthest from the source and insert a branch node at
the closed-form optimum of the local cost with its nearest neighbor
that strictly lowers the total; the nearest is evaluated first, the
others only if it does not pay.  Merged nodes are permanently retired,
so the loop is a greedy search with a tabu list and finishes after
exactly N iterations.  Independent trees are grown together, one
iteration per lockstep step: the pick, the scan and the bookkeeping of
a step are array passes over all the trees, so that numpy's per-call
overhead is paid once per step rather than once per tree.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from .core import (
    KINDS,
    BotParams,
    FlowTree,
    ParameterError,
    as_point,
    _as_point_array,
    _as_mass_vector,
    _check_alpha,
    _sourced_forest,
)
from .seeding import random_direction, substream

_log = logging.getLogger(__name__)

GAIN_TOL = 1e-12  # a merge must beat this to be accepted


@dataclass(frozen=True, eq=False)
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
        # the builder squares coordinate differences; the squared diagonal
        # of the box around the source and targets bounds every one of
        # them, the targets' squared distances to the source included.
        # Python floats overflow to inf without numpy's warnings.
        lo = np.minimum(self.targets.min(axis=0), self.source).tolist()
        hi = np.maximum(self.targets.max(axis=0), self.source).tolist()
        if not math.isfinite(sum((h - l) * (h - l) for l, h in zip(lo, hi))):
            raise ParameterError("coordinates too far apart: squared distances overflow")

    @property
    def n_targets(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.source.shape[0]


@dataclass(frozen=True, slots=True)
class BuildEvent:
    """One iteration of the builder: either a merge or a retirement."""

    step: int
    picked: int               # farthest selectable node i
    partner: int | None       # merged neighbor j, None if i was retired
    branch: int | None        # id of the inserted branch node
    gain: float
    cost: float               # network cost after this iteration


@dataclass(frozen=True, eq=False)
class BuildResult:
    """A built tree with its cost trace and per-iteration record.

    ``steps`` holds the ``BuildEvent`` fields after ``step``, an array
    each, partner and branch -1 on a retirement; ``events`` is made from
    them on first read.  ``candidate_evals`` counts the branch points the
    scan evaluated: one per scan whose nearest neighbor pays, every
    remaining selectable node otherwise.
    """

    tree: FlowTree
    trace: np.ndarray         # cost before any merge, then after each merge
    steps: tuple              # (picked, partner, branch, gain, cost) arrays
    candidate_evals: int
    eps: np.ndarray | None    # frozen shift vector actually used

    @cached_property
    def events(self) -> tuple[BuildEvent, ...]:
        return tuple(
            BuildEvent(s, i, j, k, g, c) if j >= 0 else BuildEvent(s, i, None, None, g, c)
            for s, (i, j, k, g, c) in enumerate(zip(*(col.tolist() for col in self.steps)))
        )


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


def _squared_distance(a, b):
    """Squared distance of two points given as lists, summed in coordinate
    order: numpy's reduce adds fewer than 8 terms in that order too, so the
    root carries the bits of ``_row_norms``."""
    acc = 0.0
    for x, y in zip(a, b):
        t = x - y
        acc += t * t
    return acc


def _one_row(points, s_i, s_j, alpha):
    """Checked scalar arguments as one-row arrays, the points of one dimension."""
    if not all(isinstance(s, Real) and 0 < s < math.inf for s in (s_i, s_j)):
        raise ParameterError("sectional areas must be finite and strictly positive")
    _check_alpha(alpha)
    rows = [as_point(v)[None, :] for v in points]
    if len({r.shape for r in rows}) > 1:
        raise ParameterError("the points must share one dimension")
    return rows, np.array([float(s_i)]), np.array([float(s_j)])


def branch_point_power(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location minimizing the area-powered quadratic spread.

    A convex combination of the three endpoints with weights s_i**alpha,
    s_j**alpha and (s_i+s_j)**alpha, so it always lies inside the
    triangle (v_i, v_j, v_k).
    """
    (v_k, v_i, v_j), s_i, s_j = _one_row((v_k, v_i, v_j), s_i, s_j, alpha)
    w_i = np.array([float(s_i[0]) ** alpha])
    w_m = (s_i + s_j) ** alpha
    return _power_points(w_i[:, None] * v_i, w_i, v_j, s_j ** alpha, v_k, w_m)[0]


def branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location interpolating T-shaped and V-shaped junctions.

    Lies on the segment from the area-weighted midpoint of the two
    downstream nodes (alpha = 0, the T limit) to the upstream node
    itself (alpha = 1, the V limit: no branching).
    """
    (v_k, v_i, v_j), s_i, s_j = _one_row((v_k, v_i, v_j), s_i, s_j, alpha)
    return _interp_points(s_i[:, None] * v_i, v_j, s_j, s_i + s_j, v_k, alpha)[0]


def branch_point_shifted(v_k, v_i, v_j, s_i, s_j, alpha, eps, delta) -> np.ndarray:
    """Interpolating branch point plus a frozen displacement.

    The shift eps / (s_i + s_j + delta) shrinks with the merged area:
    thick trunks are rigid, thin twigs bend.  A zero ``eps`` reduces to
    the unshifted formula exactly.
    """
    z = branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha)
    return z + _shift_vector(eps, z.size, delta) / (float(s_i) + float(s_j) + float(delta))


def _shift_vector(eps, dim, delta) -> np.ndarray:
    """``eps`` as a float vector, checked as a frozen shift of dimension
    ``dim`` that is divided by a merged area plus ``delta``."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (dim,):
        raise ParameterError("eps must have the same dimension as the points")
    if not np.isfinite(eps).all():
        raise ParameterError("eps must be finite")
    if not 0 < delta < math.inf:
        raise ParameterError("shift_delta must be finite and positive for a shift")
    return eps


def local_improvement(v_k, v_i, v_j, z, s_i, s_j, alpha) -> float:
    """Cost saved by rerouting two direct edges through a branch at ``z``.

    Positive means the branch strictly lowers the network cost; placing
    ``z`` at ``v_k`` gives exactly zero.
    """
    (v_k, v_i, v_j, z), s_i, s_j = _one_row((v_k, v_i, v_j, z), s_i, s_j, alpha)
    w_i = float(s_i[0]) ** alpha
    w_j = s_j ** alpha
    dv = v_k - v_i
    before_i = w_i * np.sqrt(np.vecdot(dv, dv))
    before_j = w_j * _row_norms(v_k - v_j)
    gains, _ = _gains(before_i, w_i, w_j, (s_i + s_j) ** alpha, before_j,
                      v_k, v_i, v_j, z)
    return float(gains[0])


def star_cost(problem: OneToManyProblem, alpha: float) -> float:
    """Cost of wiring every target straight to the source."""
    _check_alpha(alpha)
    lengths = np.linalg.norm(problem.targets - problem.source, axis=1)
    return float(np.sum(problem.areas ** alpha * lengths))


# ---------------------------------------------------------------------------
# the greedy/tabu builder, run in lockstep over a forest

_BLOCK_CELLS = 4096  # bound on trees x widest tree in one lockstep block


def _frozen_shift(params, dim, *labels):
    """A build's frozen displacement: a random direction from the sub-seed of
    ``labels``, scaled to ``shift_norm``; None when that is 0."""
    if params.shift_norm > 0:
        return random_direction(substream(params.seed, *labels), dim) * params.shift_norm


def _least_per_tree(tb, *keys):
    """Positions in the sorted tree indices ``tb`` of each tree's least
    entry by ``keys``, most significant first; one per tree, in tree order."""
    order = np.lexsort(keys[::-1] + (tb,))
    t = tb[order]
    first = np.empty(t.size, dtype=bool)
    first[:1] = True
    np.not_equal(t[1:], t[:-1], out=first[1:])
    return order[first]


def _grow_block(problems, params, eps, post_point):
    """Build the trees of one block in lockstep, one iteration per step.

    ``problems`` are sorted by size, largest first, and share dimension,
    formula, alpha and shift settings.  Every iteration retires exactly
    one selectable node, so tree b runs for exactly n_b steps and the
    trees still running at a step are a prefix of the block.  Node data
    of all trees sit in flat arrays at per-tree offsets.  The selectable
    nodes of tree b sit compacted in row b of (B, W) planes: their ids,
    one NaN-padded plane per coordinate, whose NaN cells drop out of
    every comparison, and their distances to the source, -inf padded.
    A step picks, per running tree, the cell of largest distance, the
    lower id on ties, and does all of its bookkeeping as array passes
    over the block; each tree's steps and trace are cut from the
    per-step records once the block is done.  The scan widens once: each
    tree's nearest node, then every other node where that does not pay.
    A step where one tree scans shares numpy's per-call cost with no
    other, so its nearest node is evaluated on Python floats and its
    merge indexes single cells (``scan_one``); the merged area's power
    stays a numpy array power, which differs from Python's ``**`` in the
    last bit on a few percent of inputs.  The block is finalised at once:
    one gather of the used rows, one ``_sourced_forest`` call and one
    cumsum for the cost traces.  ``params`` holds the shared settings and
    ``eps`` each problem's checked shift vector, or None for every one.
    Returns the block's ``BuildResult``s in block order, and its counts
    for ``build_forest``'s DEBUG line.
    """
    alpha = params.alpha
    power = params.formula == "power"
    delta = params.shift_delta
    B = len(problems)
    W = problems[0].n_targets
    d = problems[0].dim

    sizes = np.array([problem.n_targets for problem in problems])
    caps = 2 * sizes + 1
    offs = np.cumsum(caps) - caps
    total = int(caps.sum())
    pos = np.zeros((total, d))
    area = np.zeros(total)
    parent = np.zeros(total, dtype=np.int64)   # per-tree ids; targets start on the source
    # fixed when a node is inserted: area ** alpha, and that times the
    # distance to the source, the node's direct-edge cost
    wa = np.zeros(total)
    before = np.zeros(total)
    star = np.zeros(B)   # each star cost, with star_cost's arithmetic
    # the selectable nodes of tree b: flat_ids[b * W:][:m] at positions
    # live[:, b, :m] and at distances rad[b, :m] from the source
    planes = np.full((d + 1, B, W), np.nan)
    planes[d] = -np.inf
    live, rad = planes[:d], planes[d]
    pad = planes[:, :1, 0].copy()   # an empty cell
    cells = planes.reshape(d + 1, B * W)
    flat_ids = np.zeros(B * W, dtype=np.int64)
    for b, (problem, n) in enumerate(zip(problems, sizes.tolist())):
        o = int(offs[b])
        tgt = slice(o + 1, o + n + 1)
        pos[o] = problem.source
        pos[tgt] = problem.targets
        area[tgt] = problem.areas
        parent[o] = -1
        rad[b, :n] = _row_norms(pos[tgt] - pos[o])
        wa[tgt] = area[tgt] ** alpha
        before[tgt] = wa[tgt] * rad[b, :n]
        star[b] = np.sum(before[tgt])
        live[:, b, :n] = pos[tgt].T
        flat_ids[b * W:b * W + n] = np.arange(o + 1, o + n + 1)
    v0 = pos[offs]
    shift = np.array(eps) if eps[0] is not None else None
    row_start = np.arange(B) * W
    last_cell = row_start + sizes - 1
    # running[s]: how many trees have more than s targets, a prefix of the block
    running = (B - np.searchsorted(sizes[::-1], np.arange(W + 1), side="right")).tolist()
    count = sizes + 1           # nodes of each tree so far
    evals = sizes - 1           # ring 1 evaluates one branch point per scan
    # per step and tree: the picked node's flat id, and the partner's
    # flat id and the gain of a merge (0 and 0.0 on a retirement)
    picked = np.zeros((W, B), dtype=np.int64)
    partner = np.zeros((W, B), dtype=np.int64)
    gain_at = np.zeros((W, B))
    work = np.empty((d, B, W))
    settled = widened = 0       # scans ring 1 settles by a merge, scans ring 2 runs

    src = v0[0].tolist()
    eps0 = None if shift is None else shift[0].tolist()

    def scan_one(g, c):
        """``scan`` of cell c alone for tree 0's picked node g, on Python floats
        with the same bits: the merge it would return, or None."""
        k = int(flat_ids[c])
        v_i, v_j = pos[g].tolist(), cells[:d, c].tolist()
        s_i, s_j, w_j = float(area[g]), float(area[k]), float(wa[k])
        w_i = s_i ** alpha
        s_m = s_i + s_j
        w_m = float((np.array([s_m]) ** alpha)[0])   # numpy's array power, not libm's
        if power:
            den = w_i + w_j + w_m
            z = [(w_i * a + w_j * b + w_m * o) / den for a, b, o in zip(v_i, v_j, src)]
        else:
            z = [(1.0 - alpha) * ((s_i * a + s_j * b) / s_m) + alpha * o
                 for a, b, o in zip(v_i, v_j, src)]
        if eps0 is not None:
            z = [a + e / (s_m + delta) for a, e in zip(z, eps0)]
        if post_point is not None:
            z = post_point(np.array([z]))[0].tolist()
        r_z, r_i, r_j = (math.sqrt(_squared_distance(z, v)) for v in (src, v_i, v_j))
        dv = v0[0] - pos[g]
        gain = (w_i * float(np.sqrt(np.vecdot(dv, dv))) + float(before[k])
                - (w_m * r_z + w_i * r_i + w_j * r_j))
        if gain > GAIN_TOL:
            return 0, k, c, np.array(z), s_m, gain, w_m, r_z

    # a shifted branch point far enough out overflows to inf; its gain is
    # then -inf, so it cannot pay, and numpy need not warn about it
    with np.errstate(over="ignore"):
        for step in range(W):
            nact, nscan = running[step], running[step + 1]
            # pick each running tree's farthest selectable node, and retire it
            # by moving the tree's last selectable node into its cell
            r = rad[:nact, :W - step]
            if nact == 1:   # slices reach a lone tree's cells without index arrays
                i = int(r.argmax())
                c_i, c_last = slice(i, i + 1), slice(W - step - 1, W - step)
            else:
                c_i = row_start[:nact] + r.argmax(axis=1)
                c_last = last_cell[:nact] - step
            ties = r == cells[d, c_i][:, None]
            if np.count_nonzero(ties) > nact:
                tb, col = ties.nonzero()
                c_i = row_start[tb] + col
                c_i = c_i[_least_per_tree(tb, flat_ids[c_i])]
            picked[step, :nact] = flat_ids[c_i]
            # not flat_ids[c_i]: a slice of it is a view, which the swap overwrites
            gi = picked[step, :nact]
            flat_ids[c_i] = flat_ids[c_last]
            cells[:, c_i] = cells[:, c_last]
            cells[:, c_last] = pad

            # the trees with selectable nodes left scan them; the others retire
            if nscan:
                width = W - step - 1
                vi = pos[gi[:nscan]]
                x = np.subtract(live[:, :nscan, :width], vi.T[:, :, None],
                                out=work[:, :nscan, :width])
                dist = _coord_norms(x)
                flat_dist = dist.reshape(-1)

                def tree_terms():
                    """Each scanning tree's values that ``scan`` broadcasts or gathers."""
                    s_i = area[gi[:nscan]]
                    w_i = np.array([s ** alpha for s in s_i.tolist()])
                    dv = v0[:nscan] - vi
                    before_i = w_i * np.sqrt(np.vecdot(dv, dv))
                    # w_i * v_i or s_i * v_i: the picked node's term of the formula
                    prod = (w_i if power else s_i)[:, None] * vi
                    terms = [v0[:nscan], vi, s_i, w_i, before_i, prod]
                    return terms + [shift[:nscan]] if shift is not None else terms

                def candidates(mask):
                    """The cells of ``mask``: tree, index into dist, flat cell."""
                    f = mask.reshape(-1).nonzero()[0]
                    if nscan == 1:
                        return np.zeros(f.size, dtype=np.intp), f, f
                    tb = f // width
                    return tb, f, f + tb * (W - width)

                def scan(tb, f, c, several):
                    """Evaluate the candidates; the improving ones, or per tree the
                    one of least (distance, id) if a tree may have ``several``."""
                    k = flat_ids[c]
                    v_j = cells[:d, c].T
                    # one tree's values broadcast; several are gathered per candidate
                    v_k, v_i, s_ic, w_ic, bef, prod_c, *shift_c = (
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
                    if shift_c:
                        zs = zs + shift_c[0] / (s_m + delta)[:, None]
                    if post_point is not None:
                        zs = post_point(zs)
                    gains, r_z = _gains(bef, w_ic, w_j, w_m, before[k], v_k, v_i, v_j, zs)
                    h = (gains > GAIN_TOL).nonzero()[0]
                    if several:
                        h = h[_least_per_tree(tb[h], flat_dist[f[h]], k[h])]
                    return tb[h], k[h], c[h], zs[h], s_m[h], gains[h], w_m[h], r_z[h]

                # ring 1: each tree's nearest node, the lower id on ties; if it
                # pays, it is the least (distance, id) improving candidate.  A
                # lone tree shares numpy's per-call cost with no other, so it
                # evaluates the one candidate on Python floats instead
                tb, f, c = candidates(dist == np.fmin.reduce(dist, axis=1)[:, None])
                if tb.size > nscan:
                    near = _least_per_tree(tb, flat_ids[c])
                    tb, f, c = tb[near], f[near], c[near]
                per_tree = None
                if nscan == 1:
                    ring = scan_one(int(gi[0]), int(c[0]))
                    paid = int(ring is not None)
                else:
                    per_tree = tree_terms()
                    ring = scan(tb, f, c, False)
                    paid = ring[0].size
                rings = [ring] if paid else []
                settled += paid
                # ring 2, for the trees whose nearest did not pay and that have
                # another selectable node: every other node, of which the least
                # (distance, id) improving one
                if paid < nscan:
                    missed = sizes[:nscan] > step + 2   # a node beyond the nearest
                    if paid:
                        missed[ring[0]] = False
                    if missed.any():
                        widened += int(np.count_nonzero(missed))
                        mask = ~np.isnan(dist) & missed[:, None]
                        mask.reshape(-1)[f] = False     # ring 1 evaluated these
                        tb, f, c = candidates(mask)
                        evals[:nscan] += np.bincount(tb, minlength=nscan)
                        per_tree = per_tree or tree_terms()
                        ring = scan(tb, f, c, True)
                        if ring[0].size:
                            rings.append(ring)

                # each merge retires the partner and puts the branch node in its
                # cell; scan_one's scalars index single cells
                for mb, j, c, z, s_m, gains, w_m, r_z in rings:
                    own = count[mb]
                    new = offs[mb] + own
                    flat_ids[c] = new
                    cells[:d, c] = z.T
                    cells[d, c] = r_z
                    pos[new] = z
                    area[new] = s_m
                    wa[new] = w_m
                    before[new] = w_m * r_z
                    parent[gi[mb]] = parent[j] = own
                    count[mb] = own + 1
                    partner[step, mb] = j
                    gain_at[step, mb] = gains

    # every tree's used rows and kinds, gathered once: local id 0 is the
    # source, 1..n the targets, the rest branch nodes
    local = np.arange(total) - np.repeat(offs, caps)
    used = local < np.repeat(count, caps)
    kind = np.array(KINDS)[np.where(local > np.repeat(sizes, caps), 2, local > 0)[used]]
    coords = np.split(pos[used], np.cumsum(count)[:-1])
    built = _sourced_forest(coords, kind, parent[used], area[used])
    # per tree: the star cost, then the gains taken off in order, as cumsum
    # adds; -0.0 leaves a retirement's cost as it is
    cost = np.cumsum(np.vstack((star, -gain_at)), axis=0).T.copy()
    # each tree's steps in a row, with ids local to the tree
    picked, partner = (np.ascontiguousarray(a.T) - offs[:, None] for a in (picked, partner))
    merged = partner > 0   # a merge partner's id is above its source's
    steps = (picked, np.where(merged, partner, -1),
             np.where(merged, sizes[:, None] + np.cumsum(merged, axis=1), -1),
             np.ascontiguousarray(gain_at.T), cost[:, 1:])
    traces = np.split(cost[np.column_stack((np.ones(B, dtype=bool), merged))],
                      np.cumsum(count - sizes)[:-1])
    results = [BuildResult(tree, trace, tuple(col[b, :n] for col in steps), int(evals[b]), e)
               for b, (tree, trace, n, e) in enumerate(zip(built, traces, sizes.tolist(), eps))]
    # step s runs running[s] trees, of which running[s + 1] scan
    counts = {"blocks": 1, "steps": W, "lone": running.count(1), "cells": B * W,
              "scans": sum(running[1:]), "settled": settled, "widened": widened}
    return results, counts


def _grow(problems, params, eps, post_point):
    """Build every problem's tree; returns the results in input order and
    the summed counts of the lockstep blocks."""
    problems = list(problems)
    params = list(params)
    eps = [None] * len(problems) if eps is None else list(eps)
    if not len(params) == len(eps) == len(problems):
        raise ParameterError("params and eps must have one entry per problem")
    shifts, groups = [], {}
    for i, (problem, p, e) in enumerate(zip(problems, params, eps)):
        if e is None:
            e = _frozen_shift(p, problem.dim, "branch-shift")
        if e is not None:
            e = _shift_vector(e, problem.dim, p.shift_delta)
        shifts.append(e)
        # a block shares every scalar of the scan arithmetic
        key = (problem.dim, p.formula, p.alpha, None if e is None else p.shift_delta)
        groups.setdefault(key, []).append(i)
    results = [None] * len(problems)
    counts = Counter()
    for group in groups.values():
        group.sort(key=lambda i: -problems[i].n_targets)
        while group:
            block = group[:max(1, _BLOCK_CELLS // problems[group[0]].n_targets)]
            built, block_counts = _grow_block([problems[i] for i in block], params[block[0]],
                                              [shifts[i] for i in block], post_point)
            for i, r in zip(block, built):
                results[i] = r
            counts.update(block_counts)
            group = group[len(block):]

    for problem, r in zip(problems, results):
        n = problem.n_targets
        merges = r.tree.n_nodes - n - 1
        _log.debug(
            "build_one_to_many N=%d: %d iterations, %d merges, %d retirements, "
            "%d candidate evals",
            n, n, merges, n - merges, r.candidate_evals,
        )
    return results, counts


def build_forest(
    problems,
    params,
    *,
    eps=None,
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
    step picks every running tree's farthest node from a plane of source
    distances and retires it, then runs the distance pass, the evaluation
    of each tree's nearest node (the lower id on ties) and the merge
    bookkeeping, each as one numpy pass over the block; only the trees
    whose nearest does not pay go on to evaluate all their other nodes.
    A step where only one tree scans (every step of a lone tree, the tail
    of a block) evaluates its nearest node on Python floats instead, with
    the same bits.  Each block's trees are then checked together, once,
    in whole-array passes, and a tree that fails raises its FlowTree
    construction's error.  ``post_point`` sees the candidates of several
    trees at once, so it must act row by row.  One DEBUG line per call on
    this module's logger gives the trees, blocks, lockstep steps and how
    many of them ran one tree alone, padded cells, the tree scans settled
    by a merge with the nearest, and widened scans, after each tree's own
    ``build_one_to_many`` line.
    """
    results, c = _grow(problems, params, eps, post_point)
    _log.debug(
        "build_forest: %d trees in %d blocks, %d lockstep steps (%d with one tree), "
        "%d padded cells, %d of %d tree scans settled by the nearest, %d widened scans",
        len(results), c["blocks"], c["steps"], c["lone"], c["cells"],
        c["settled"], c["scans"], c["widened"],
    )
    return results


def build_one_to_many(
    problem: OneToManyProblem,
    params: BotParams,
    *,
    eps: np.ndarray | None = None,
    post_point=None,
) -> BuildResult:
    """Grow a branched flow tree over one source and its targets.

    A forest of one: see ``build_forest``.  Each build logs its counts
    at DEBUG as ``build_one_to_many N=...``.

    The scan evaluates the nearest neighbor first and the rest only when
    it does not improve, so ``candidate_evals`` counts the branch points
    actually evaluated: mostly one per merge, all other selectable nodes
    per retirement.

    ``eps`` overrides the frozen shift vector (otherwise drawn once from
    ``params.seed`` when ``params.shift_norm > 0``); ``post_point`` maps
    candidate branch points (an (n, dim) array, a subset of the
    neighbors) before they are evaluated, e.g. to re-project them onto
    a sphere.  It must act row by row, and sees only the candidates the
    scan reaches.
    """
    return _grow([problem], [params], [eps], post_point)[0][0]
