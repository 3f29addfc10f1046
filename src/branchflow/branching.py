"""Local branch-point insertion for one-to-many flow problems.

A star network (every target wired straight to the source) is improved
by repeatedly merging the two flows that pay off most: pick the
selectable node farthest from the source and insert a branch node at
the closed-form optimum of the local cost with its nearest neighbor
that strictly lowers the total; the nearest is evaluated first, the
others only if it does not pay.  Merged nodes are permanently retired,
so the loop is a greedy search with a tabu list and finishes after
exactly N iterations.  Independent trees are grown together, one
iteration per lockstep step of array passes over all the trees, so that
numpy's per-call overhead is paid once per step rather than once per
tree.  A lone tree grows on Python floats, its pick from a heap and its
nearest node from cell lists, so that a wide tree is not quadratic.  Each
merge rule is one function, run on floats there and by the public scalar
functions, and on numpy rows by the scans, with the same bits.
"""

from __future__ import annotations

import heapq
import logging
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
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
    _floats,
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
# the merge rules, each written once for Python floats (one coordinate at a time)
# and numpy rows: +, -, * and / round alike on both, and the rest is numpy on both


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


def _squared_distance(a, b):
    """Squared distance of two points given as lists, summed in coordinate
    order as numpy's reduce of fewer than 8 terms: ``_row_norms``' bits."""
    acc = 0.0
    for x, y in zip(a, b):
        t = x - y
        acc += t * t
    return acc


def _weight(s, alpha):
    """numpy's array power s ** alpha, which need not round as libm's pow, Python's **."""
    return np.asarray(s) ** alpha


def _branch_point(power, alpha, v_k, v_i, v_j, s_i, s_j, w_i, w_j, w_m, eps=None, delta=None):
    """Branch point of v_i and v_j under v_k by the power rule (weights w_i,
    w_j and w_m = (s_i + s_j) ** alpha) or the interp rule, moved by
    eps / (s_i + s_j + delta) if ``eps`` is given."""
    if power:
        z = (w_i * v_i + w_j * v_j + w_m * v_k) / (w_i + w_j + w_m)
    else:
        z = (1.0 - alpha) * ((s_i * v_i + s_j * v_j) / (s_i + s_j)) + alpha * v_k
    return z if eps is None else z + eps / (s_i + s_j + delta)


def _gain(before_i, before_j, w_i, w_j, w_m, r_i, r_j, r_z):
    """Cost saved by routing v_i and v_j through a branch point, new edges r_i, r_j, r_z long."""
    return before_i + before_j - (w_m * r_z + w_i * r_i + w_j * r_j)


def _direct_edge(w, v_k, v_i):
    """Cost of a direct edge of weight w, its length from np.vecdot; on rows or on lists."""
    dv = np.subtract(v_k, v_i)
    return w * np.sqrt(np.vecdot(dv, dv))


def _post(post_point, zs):
    """``post_point``'s image of the branch points zs, checked to keep their shape."""
    out = post_point(zs)
    if getattr(out, "shape", None) != zs.shape:
        raise ParameterError(f"post_point must return an array of shape {zs.shape}, as given")
    return out


def _one_row(points, s_i, s_j, alpha):
    """Checked scalar arguments: the points as lists of one dimension, alpha,
    s_i and s_j as floats, and the weights w_i (Python's **), w_j and w_m."""
    if not all(isinstance(s, Real) and 0 < s < math.inf for s in (s_i, s_j)):
        raise ParameterError("sectional areas must be finite and strictly positive")
    _check_alpha(alpha)
    rows = [as_point(v).tolist() for v in points]
    if len({len(r) for r in rows}) > 1:
        raise ParameterError("the points must share one dimension")
    alpha, s_i, s_j = float(alpha), float(s_i), float(s_j)
    return rows, alpha, s_i, s_j, s_i ** alpha, *map(float, _weight([s_j, s_i + s_j], alpha))


def branch_point_power(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location minimizing the area-powered quadratic spread.

    A convex combination of the three endpoints with weights s_i**alpha,
    s_j**alpha and (s_i+s_j)**alpha, so it always lies inside the
    triangle (v_i, v_j, v_k).
    """
    points, alpha, *terms = _one_row((v_k, v_i, v_j), s_i, s_j, alpha)
    return np.array([_branch_point(True, alpha, *v, *terms) for v in zip(*points)])


def branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha) -> np.ndarray:
    """Branch location interpolating T-shaped and V-shaped junctions.

    Lies on the segment from the area-weighted midpoint of the two
    downstream nodes (alpha = 0, the T limit) to the upstream node
    itself (alpha = 1, the V limit: no branching).
    """
    points, alpha, *terms = _one_row((v_k, v_i, v_j), s_i, s_j, alpha)
    return np.array([_branch_point(False, alpha, *v, *terms) for v in zip(*points)])


def branch_point_shifted(v_k, v_i, v_j, s_i, s_j, alpha, eps, delta) -> np.ndarray:
    """Interpolating branch point plus a frozen displacement.

    The shift eps / (s_i + s_j + delta) shrinks with the merged area:
    thick trunks are rigid, thin twigs bend.  A zero ``eps`` reduces to
    the unshifted formula exactly.
    """
    points, alpha, *terms = _one_row((v_k, v_i, v_j), s_i, s_j, alpha)
    eps = _shift_vector(eps, len(points[0]), delta).tolist()
    return np.array([_branch_point(False, alpha, *v, *terms, e, float(delta))
                     for *v, e in zip(*points, eps)])


def _shift_vector(eps, dim, delta) -> np.ndarray:
    """``eps`` as a float vector, checked as a frozen shift of dimension
    ``dim`` that is divided by a merged area plus ``delta``."""
    eps = _floats(eps, "eps")
    if eps.shape != (dim,):
        raise ParameterError("eps must have the same dimension as the points")
    if not np.isfinite(eps).all():
        raise ParameterError("eps must be finite")
    if not (isinstance(delta, Real) and 0 < delta < math.inf):
        raise ParameterError("shift_delta must be finite and positive for a shift")
    return eps


def local_improvement(v_k, v_i, v_j, z, s_i, s_j, alpha) -> float:
    """Cost saved by rerouting two direct edges through a branch at ``z``.

    Positive means the branch strictly lowers the network cost; placing
    ``z`` at ``v_k`` gives exactly zero.
    """
    (v_k, v_i, v_j, z), _, _, _, w_i, w_j, w_m = _one_row((v_k, v_i, v_j, z), s_i, s_j, alpha)
    r_i, r_j, r_z, r_kj = (math.sqrt(_squared_distance(*p))
                           for p in ((z, v_i), (z, v_j), (z, v_k), (v_k, v_j)))
    return float(_gain(_direct_edge(w_i, v_k, v_i), w_j * r_kj, w_i, w_j, w_m, r_i, r_j, r_z))


def star_cost(problem: OneToManyProblem, alpha: float) -> float:
    """Cost of wiring every target straight to the source."""
    _check_alpha(alpha)
    lengths = np.linalg.norm(problem.targets - problem.source, axis=1)
    return float(np.sum(problem.areas ** alpha * lengths))


# ---------------------------------------------------------------------------
# the greedy/tabu builder, run in lockstep over a forest

_BLOCK_CELLS = 4096  # bound on trees x widest tree in one lockstep block
_SPAN = 2 ** 20      # bound on a lone tree's cell indices


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


def _picked_terms(v_k, v_i, s_i, alpha, shift):
    """The rows of picked nodes that ``_branch_gains`` reads: v_k, v_i, s_i,
    w_i on Python floats, the direct edge's cost and the shift, if any."""
    w_i = np.array([s ** alpha for s in s_i.tolist()])
    terms = [v_k, v_i, s_i, w_i, _direct_edge(w_i, v_k, v_i)]
    return terms + [shift[:len(v_k)]] if shift is not None else terms


def _branch_gains(terms, v_j, s_j, w_j, before_j, params, post_point):
    """Branch points of picked nodes and candidates v_j (zs, s_m, w_m, gains
    and |v_k - zs|); ``terms`` has one row per candidate, or one for all."""
    v_k, v_i, s_i, w_i, before_i, *shift = terms
    s_m = s_i + s_j
    w_m = _weight(s_m, params.alpha)
    zs = _branch_point(params.formula == "power", params.alpha, v_k, v_i, v_j,
                       *(a[:, None] for a in (s_i, s_j, w_i, w_j, w_m)),
                       shift[0] if shift else None, params.shift_delta)
    if post_point is not None:
        zs = _post(post_point, zs)
    legs = np.empty((3,) + zs.shape)
    np.subtract(zs, v_i, out=legs[0])
    np.subtract(zs, v_j, out=legs[1])
    np.subtract(v_k, zs, out=legs[2])
    r_i, r_j, r_z = _row_norms(legs)
    return zs, s_m, w_m, _gain(before_i, before_j, w_i, w_j, w_m, r_i, r_j, r_z), r_z


class _CellLists:
    """Uniform cell lists (Bentley, Stanat and Williams, 1977) over a lone
    tree's selectable nodes, two to a cell over their box less its outer
    1/64 on each axis.  A key packs a cell's per-axis indices, offset by
    ``_SPAN`` and clamped to [0, 2 * _SPAN), in 21 bits each; a ring
    offset past the clamp at most adds a cell to the search."""

    def __init__(self, cols, lo, side):
        self.cols, self.lo, self.side, self.buckets = cols, lo, side, defaultdict(list)

    @classmethod
    def over(cls, pos_t, ids, cols, where):
        """Cell lists over the nodes ``ids`` (columns of ``pos_t``; ``cols`` has
        them on Python floats), their keys put in ``where``; None where no
        finite grid holds them."""
        pts = pos_t[:, ids]
        k = (ids.size - 1) // 64   # order statistics: numpy's quantile imports numpy.ma
        lo, hi = np.partition(pts, (k, ids.size - 1 - k), axis=1)[:, [k, ids.size - 1 - k]].T
        wide = (hi - lo)[hi > lo]
        # side ** d = 2 * box volume / nodes, in logs so that it cannot overflow
        side = float(np.exp((np.log(2 / ids.size) + np.log(wide).sum()) / max(wide.size, 1)))
        while 0 < side < math.inf and np.prod(np.floor((hi - lo) / side) + 1) > ids.size:
            side *= 2   # a flat box: fewer, wider cells
        if not 0 < side < math.inf:
            return None
        grid = cls(cols, lo.tolist(), side)
        cells = np.clip(np.floor((pts - lo[:, None]) / side), -_SPAN, _SPAN - 1) + _SPAN
        keys = np.left_shift(cells.astype(np.int64), 21 * np.arange(len(lo))[:, None]).sum(axis=0)
        np.frombuffer(where, dtype=np.int64)[ids] = keys
        for j, key in zip(ids.tolist(), keys.tolist()):
            grid.buckets[key].append(j)
        return grid

    def cell(self, p):
        """The key of point p's cell."""
        key = 0
        for a, (x, lo) in enumerate(zip(p, self.lo)):
            t = (x - lo) / self.side
            i = math.floor(t) if -_SPAN <= t < _SPAN else (_SPAN - 1 if t > 0 else -_SPAN)
            key |= i + _SPAN << 21 * a
        return key

    def nearest(self, p, budget):
        """The node of least (distance to p, id), with ``_coord_norms``' bits,
        or None once the rings visit more cells and nodes than ``budget``.
        They stop below every unvisited ring's bound: k rings out, k - 1
        cells plus the distance from p to its cell's nearest wall.  In 2-D
        the sum of squares has no third term: adding 0.0 * 0.0 keeps its bits."""
        side, get, sqrt = self.side, self.buckets.get, math.sqrt
        (X, Y, Z), (px, py, pz) = (*self.cols, None)[:3], (*p, 0.0)[:3]
        key, wall, mag = 0, math.inf, side
        for a, (x, lo) in enumerate(zip(p, self.lo)):   # cell() and its nearest wall
            t = (x - lo) / side
            i = math.floor(t) if -_SPAN <= t < _SPAN else (_SPAN - 1 if t > 0 else -_SPAN)
            key |= i + _SPAN << 21 * a
            below = x - (lo + i * side)
            wall = min(wall, below, side - below)
            mag += abs(x) + abs(lo)
        best, bj, seen, k = math.inf, math.inf, 0, 0
        while True:
            seen += len(shell := _shell(k, len(self.lo)))
            for o in shell:
                bucket = get(key + o, ())
                seen += len(bucket)
                if seen > budget:
                    return None
                for j in bucket:
                    t, u = X[j] - px, Y[j] - py
                    dist = t * t + u * u
                    if Z is not None:
                        v = Z[j] - pz
                        dist += v * v
                    dist = sqrt(dist)
                    if dist < best or dist == best and j < bj:
                        best, bj = dist, j
            # a margin of 1e-12 covers the rounding of cells and walls
            if best + 1e-12 * (mag + k * side) < k * side + wall:
                return bj
            k += 1


@lru_cache(maxsize=256)
def _shell(k, d):
    """The key offsets of the cells k rings out from a cell, in d dimensions."""
    return tuple(sum(e << 21 * a for a, e in enumerate(off))
                 for off in product(range(-k, k + 1), repeat=d) if max(map(abs, off)) == k)


def _lone_steps(bufs, recs, pos, rad, params, shift, post_point):
    """Grow a block's lone tree on the items of its buffers (coordinates,
    area, wa, before, parent; ``pos`` views the coordinates) and records.
    The pick pops a heap of (-distance to the source, id); the nearest
    node comes from cell lists, rebuilt below a quarter of the last build's
    nodes or below 7/8 once the pick's distance to the source has halved,
    or from every selectable node past a budget of cells and nodes.  It is
    evaluated on Python floats with ``_branch_gains``' bits.  Each node's
    length |v_k - v| sits in a buffer, filled by ``_direct_edge`` on rows:
    the targets in one pass, and the branch nodes made since the last pass
    in one more whenever one of them is picked; the picked node's direct
    edge costs w_i times its length, the product ``_direct_edge`` takes.
    Returns the node count, candidate evals, and settled and widened scans."""
    (xs, area, wa, before, parent), (picked, partner, gain_at) = bufs, recs
    alpha, power, delta = params.alpha, params.formula == "power", params.shift_delta
    n, (cap, d), pos_t = rad.size, pos.shape, pos.T
    cols = [memoryview(xs)[c * cap:(c + 1) * cap] for c in range(d)]
    src, v0 = pos[0].tolist(), pos[:1]
    length = array("d", bytes(8 * cap))   # each node's |v_k - v|, filled in passes
    np.frombuffer(length)[1:n + 1] = _direct_edge(1.0, v0, pos[1:n + 1])
    known = n + 1   # the nodes whose length is filled
    eps0 = [None] * d if shift is None else shift[0].tolist()
    sel = bytearray(b"\0" + b"\1" * n + bytes(n))   # selectable flags
    selectable = np.frombuffer(sel, dtype=bool)
    heapq.heapify(heap := list(zip((-rad).tolist(), range(1, n + 1))))
    where = array("q", bytes(8 * cap))   # each node's grid cell
    grid = _CellLists.over(pos_t, np.arange(1, n + 1), cols, where)
    built, reach = n, -heap[0][0]   # the nodes and the farthest one's distance at a build
    count, evals, settled, widened = n + 1, n - 1, 0, 0
    for step in range(n):
        neg, g = heapq.heappop(heap)
        while not sel[g]:
            neg, g = heapq.heappop(heap)
        picked[step], sel[g] = g, 0
        live = n - step - 1       # selectable nodes left
        if not live:
            break
        if 4 * live < built or -2 * neg < reach and 8 * live < 7 * built:
            built, reach = live, -neg
            grid = _CellLists.over(pos_t, np.flatnonzero(selectable), cols, where)
        elif grid:
            grid.buckets[where[g]].remove(g)
        v_i = [col[g] for col in cols]
        j = grid and grid.nearest(v_i, live // 8 + 32)
        if j is None:
            ids = np.flatnonzero(selectable)
            j = int(ids[np.argmin(_coord_norms(pos_t[:, ids] - pos_t[:, g:g + 1]))])

        # ring 1: the nearest node
        v_j = [col[j] for col in cols]
        s_i, s_j, w_j = area[g], area[j], wa[j]
        w_i, s_m, w_m = s_i ** alpha, s_i + s_j, float(_weight(s_i + s_j, alpha))
        z = [_branch_point(power, alpha, o, a, b, s_i, s_j, w_i, w_j, w_m, e, delta)
             for o, a, b, e in zip(src, v_i, v_j, eps0)]
        if post_point is not None:
            z = _post(post_point, np.array([z]))[0].tolist()
        r_i, r_j, r_z = (math.sqrt(_squared_distance(z, v)) for v in (v_i, v_j, src))
        if g >= known:   # a branch node made since the last pass
            np.frombuffer(length)[known:count] = _direct_edge(1.0, v0, pos[known:count])
            known = count
        gain = _gain(w_i * length[g], before[j], w_i, w_j, w_m, r_i, r_j, r_z)
        if gain > GAIN_TOL:
            settled += 1
        elif live > 1:
            # ring 2: every other selectable node, of which the least
            # (distance, id) improving one
            widened += 1
            ids = np.flatnonzero(selectable)
            ids = ids[ids != j]
            evals += ids.size
            terms = _picked_terms(v0, pos[g:g + 1], np.array([s_i]), alpha, shift)
            zs, s_m, w_m, gains, r_z = _branch_gains(
                terms, pos[ids], *(np.frombuffer(b)[ids] for b in bufs[1:4]), params, post_point)
            h = np.flatnonzero(gains > GAIN_TOL)
            if not h.size:
                continue
            h = h[np.argmin(_coord_norms(pos_t[:, ids[h]] - pos_t[:, g:g + 1]))]
            j, z, s_m, gain, w_m, r_z = (int(ids[h]), zs[h].tolist(), float(s_m[h]),
                                         float(gains[h]), float(w_m[h]), float(r_z[h]))
        else:
            continue

        # the merge retires the partner and makes the branch node selectable
        new, count = count, count + 1
        for col, a in zip(cols, z):
            col[new] = a
        area[new], wa[new], before[new] = s_m, w_m, w_m * r_z
        parent[g] = parent[j] = new
        sel[j], sel[new] = 0, 1
        heapq.heappush(heap, (-r_z, new))
        if grid:
            grid.buckets[where[j]].remove(j)
            where[new] = key = grid.cell(z)
            grid.buckets[key].append(new)
        partner[step], gain_at[step] = j, gain
    return count, evals, settled, widened


def _grow_block(problems, params, eps, post_point):
    """Build and finalise the trees of one block, one iteration per step.

    ``problems`` are sorted by size, largest first, and share dimension,
    formula, alpha and shift settings; ``eps`` holds their checked shift
    vectors, or None for every one.  Node data sit in flat buffers at
    per-tree offsets, which numpy reads through zero-copy views and a lone
    tree item by item (``_lone_steps``).  Several trees step in lockstep:
    tree b runs n_b steps, so the running trees are a prefix of the block,
    and row b of (B, W) planes holds its selectable nodes' ids, coordinates
    and distances to the source.  Each node keeps one cell while it is
    selectable: a target starts in cell i - 1 of its row, a picked node's
    cell is emptied in place and a branch node takes its partner's cell,
    so every pass runs over whole rows, and a flat index into a pass's
    (rows, W) result is a flat cell.  Padding and emptied cells hold NaN
    and -inf, which drop out of every comparison.  The block is finalised
    at once: one gather, one ``_sourced_forest`` call and one cumsum for
    the cost traces.  Returns the ``BuildResult``s in block order and the
    block's DEBUG counts.
    """
    alpha = params.alpha
    B, W, d = len(problems), problems[0].n_targets, problems[0].dim

    sizes = np.array([problem.n_targets for problem in problems])
    caps = 2 * sizes + 1
    offs = np.cumsum(caps) - caps
    total = int(caps.sum())
    # positions, area, wa = area ** alpha and before = wa times the
    # distance to the source (the node's direct-edge cost, fixed when it
    # is inserted), and parent, in per-tree ids; targets start on the source
    bufs = [array(t, bytes(8 * m)) for t, m in zip("ddddq", (d * total,) + (total,) * 4)]
    pos, area, wa, before, parent = (np.frombuffer(b, dtype=b.typecode) for b in bufs)
    pos = pos.reshape(d, total).T
    star = np.zeros(B)   # each star cost, with star_cost's arithmetic
    # the selectable nodes of tree b, in the cells of row b that hold a
    # node: flat_ids[b * W:][:W] at positions live[:, b] and at distances
    # rad[b] from the source
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
        wa[tgt] = _weight(area[tgt], alpha)
        before[tgt] = wa[tgt] * rad[b, :n]
        star[b] = np.sum(before[tgt])
        live[:, b, :n] = pos[tgt].T
        flat_ids[b * W:b * W + n] = np.arange(o + 1, o + n + 1)
    v0 = pos[offs]
    shift = np.array(eps) if eps[0] is not None else None
    # running[s]: how many trees have more than s targets, a prefix of the block
    running = (B - np.searchsorted(sizes[::-1], np.arange(W + 1), side="right")).tolist()
    count = sizes + 1           # nodes of each tree so far
    evals = sizes - 1           # ring 1 evaluates one branch point per scan
    # per step and tree: the picked node's flat id, and the partner's
    # flat id and the gain of a merge (0 and 0.0 on a retirement)
    recs = [array(t, bytes(8 * W * B)) for t in "qqd"]
    picked, partner, gain_at = (np.frombuffer(b, dtype=b.typecode).reshape(W, B) for b in recs)
    settled = widened = 0       # scans ring 1 settles by a merge, scans ring 2 runs

    # a shifted branch point far enough out overflows to inf; its gain is
    # then -inf, so it cannot pay, and numpy need not warn about it
    with np.errstate(over="ignore"):
        if B == 1:
            count[0], evals[0], settled, widened = _lone_steps(
                bufs, recs, pos, rad[0], params, shift, post_point)
        else:
            work = np.empty((d, B, W))

            def lowest_id(mask):
                """Per row of ``mask``, the flat cell of its lowest id."""
                c = np.flatnonzero(mask)
                return c if c.size == len(mask) else c[_least_per_tree(c // W, flat_ids[c])]

            for step in range(W):
                nact, nscan = running[step], running[step + 1]
                # pick each running tree's farthest selectable node; empty its cell
                r = rad[:nact]
                c_i = lowest_id(r == r.max(axis=1)[:, None])
                picked[step, :nact] = gi = flat_ids[c_i]
                cells[:, c_i] = pad

                # the trees with selectable nodes left scan them; the others retire
                if nscan:
                    vi = pos[gi[:nscan]]
                    dist = _coord_norms(np.subtract(live[:, :nscan], vi.T[:, :, None],
                                                    out=work[:, :nscan]))
                    per_tree = _picked_terms(v0[:nscan], vi, area[gi[:nscan]], alpha, shift)

                    def scan(c, several):
                        """The improving candidates among flat cells ``c``, or per tree
                        the least (distance, id) improving one if a tree may have
                        ``several``."""
                        tb, k = c // W, flat_ids[c]
                        zs, s_m, w_m, gains, r_z = _branch_gains(
                            [a[tb] for a in per_tree], cells[:d, c].T, area[k], wa[k], before[k],
                            params, post_point)
                        h = (gains > GAIN_TOL).nonzero()[0]
                        if several:
                            h = h[_least_per_tree(tb[h], dist.reshape(-1)[c[h]], k[h])]
                        return tb[h], k[h], c[h], zs[h], s_m[h], gains[h], w_m[h], r_z[h]

                    # ring 1: each tree's nearest node, the lower id on ties; if it
                    # pays, it is the least (distance, id) improving candidate
                    near = lowest_id(dist == np.fmin.reduce(dist, axis=1)[:, None])
                    ring = scan(near, False)
                    paid = ring[0].size
                    rings = [ring] if paid else []
                    settled += paid
                    # ring 2, in the rows that did not merge: every other node, of
                    # which the least (distance, id) improving one
                    if paid < nscan:
                        mask = ~np.isnan(dist)
                        mask.reshape(-1)[near] = False   # ring 1 evaluated these
                        mask[ring[0]] = False
                        left = np.count_nonzero(mask, axis=1)
                        if left.any():
                            widened += int(np.count_nonzero(left))
                            evals[:nscan] += left
                            ring = scan(np.flatnonzero(mask), True)
                            if ring[0].size:
                                rings.append(ring)

                    # each merge retires the partner and puts the branch node in its cell
                    for mb, j, c, z, s_m, gains, w_m, r_z in rings:
                        own = count[mb]
                        new = offs[mb] + own
                        flat_ids[c], cells[:d, c], cells[d, c] = new, z.T, r_z
                        pos[new], area[new], wa[new], before[new] = z, s_m, w_m, w_m * r_z
                        parent[gi[mb]] = parent[j] = own
                        count[mb] = own + 1
                        partner[step, mb], gain_at[step, mb] = j, gains

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
    try:
        problems, params = list(problems), list(params)
        eps = [None] * len(problems) if eps is None else list(eps)
    except TypeError:
        raise ParameterError("problems, params and eps must be sequences") from None
    for items, kind in ((problems, OneToManyProblem), (params, BotParams)):
        if bad := [x for x in items if not isinstance(x, kind)]:
            raise ParameterError(f"expected {kind.__name__} instances, got {type(bad[0]).__name__}")
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
    ``_BLOCK_CELLS`` padded cells (one tree always fits).  A block of
    several trees steps in lockstep, in numpy passes over all of them; a
    block of one tree runs on Python floats, with a heap for its pick and
    cell lists for its nearest node.  Each block's trees are checked
    together in whole-array passes; a tree that fails raises its FlowTree
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

    A forest of one (see ``build_forest``): its pick pops a heap and its
    nearest node comes from cell lists, so that a step reaches every node
    only when the nearest does not pay.  ``candidate_evals`` counts the
    branch points evaluated: mostly one per merge, all other selectable
    nodes per retirement.  Each build logs its counts at DEBUG as
    ``build_one_to_many N=...``.

    ``eps`` overrides the frozen shift vector (otherwise drawn once from
    ``params.seed`` when ``params.shift_norm > 0``); ``post_point`` maps
    candidate branch points (an (n, dim) array, a subset of the
    neighbors) before they are evaluated, e.g. to re-project them onto
    a sphere.  It must act row by row, and sees only the candidates the
    scan reaches.
    """
    return _grow([problem], [params], [eps], post_point)[0][0]
