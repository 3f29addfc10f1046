"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's solver code paths: the transport
oracle enumerates spanning trees of the complete bipartite graph (every
vertex of the transportation polytope is supported on one), and the
clustering oracle brute-forces two-part splits.  The builder reference
is the plain full-scan loop over one tree, with the closed-form
branch-point and gain arithmetic written per tree, as the library's
one-tree loop once had it.  The sphere projection references
project one point at a time, as the renderer once did.
"""

import itertools
import math

import numpy as np

from branchflow.branching import GAIN_TOL, BuildEvent, BuildResult, star_cost
from branchflow.core import FlowTree, ParameterError
from branchflow.io import normalize_lon
from branchflow.pipeline import EARTH_RADIUS_KM
from branchflow.render import MAX_SEGMENT_KM
from branchflow.seeding import random_direction, substream

_TREE_CACHE = {}


def _spanning_trees(m, n):
    """All spanning trees of K_{m,n} as tuples of edge indices.

    Edges are enumerated row-major: edge i*n + j joins source i to
    target j.  Union-find keeps only acyclic, connected subsets.
    """
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    size = m + n
    trees = []
    for subset in itertools.combinations(range(len(edges)), size - 1):
        root = list(range(size))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        ok = True
        for e in subset:
            u, v = edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            root[ru] = rv
        if ok:
            trees.append(subset)
    return edges, trees


def _tree_maps(m, n):
    """Per-tree linear maps from the marginal vector [p; q] to edge flows.

    Cutting a tree edge (i, j) leaves target j in a component whose net
    demand (sum of its target masses minus its source masses) is exactly
    the flow on the edge.  Leaf stripping with unit-vector bookkeeping
    yields each flow as a signed subset sum of [p; q], so one matrix
    multiply evaluates every tree on any instance of this shape.
    Returns (M, idx): M has shape (trees, size-1, size), idx holds each
    edge's flattened position in the m x n cost matrix.
    """
    key = (m, n)
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    edges, trees = _spanning_trees(m, n)
    size = m + n
    M = np.zeros((len(trees), size - 1, size))
    idx = np.zeros((len(trees), size - 1), dtype=int)
    for t, subset in enumerate(trees):
        incident = {v: set() for v in range(size)}
        for e in subset:
            u, v = edges[e]
            incident[u].add(e)
            incident[v].add(e)
        acc = np.zeros((size, size))
        for v in range(size):
            acc[v, v] = 1.0 if v >= m else -1.0
        slot = {e: k for k, e in enumerate(subset)}
        alive_edges = set(subset)
        alive = set(range(size))
        while alive_edges:
            leaf = next(v for v in alive if len(incident[v]) == 1)
            e = incident[leaf].pop()
            src_node, tgt_node = edges[e]
            other = tgt_node if leaf == src_node else src_node
            # flow equals net demand of the component holding the target end
            vec = acc[leaf] if leaf >= m else -acc[leaf]
            M[t, slot[e]] = vec
            idx[t, slot[e]] = src_node * n + (tgt_node - m)
            acc[other] += acc[leaf]
            incident[other].discard(e)
            alive.discard(leaf)
            alive_edges.discard(e)
    _TREE_CACHE[key] = (M, idx)
    return M, idx


def exact_ot_oracle(p, q, c, feas_tol=1e-12):
    """Minimum transport cost by exhaustive search over basic solutions.

    Every vertex of the transportation polytope is the flow pattern of at
    least one spanning tree of K_{m,n}, and the LP optimum sits at a
    vertex, so the minimum over feasible (nonnegative-flow) trees is the
    exact optimum.  Practical up to m, n <= 4.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = p.size, q.size
    M, idx = _tree_maps(m, n)
    flows = M @ np.concatenate([p, q])
    feasible = (flows >= -feas_tol).all(axis=1)
    costs = (np.maximum(flows, 0.0) * c.ravel()[idx]).sum(axis=1)
    return float(costs[feasible].min())


def best_bipartition(points, weights):
    """Optimal weighted 2-means split by brute force over all bipartitions.

    Returns (objective, labels) with point 0 pinned to cluster 0.
    Practical up to a dozen points.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = points.shape[0]
    best_obj = np.inf
    best_lab = None
    for mask in range(2 ** (n - 1)):
        lab = np.zeros(n, dtype=int)
        for i in range(1, n):
            lab[i] = (mask >> (i - 1)) & 1
        obj = 0.0
        for g in (0, 1):
            sel = lab == g
            if not sel.any():
                continue
            w = weights[sel]
            center = (w[:, None] * points[sel]).sum(axis=0) / w.sum()
            obj += float((w * ((points[sel] - center) ** 2).sum(axis=1)).sum())
        if obj < best_obj:
            best_obj = obj
            best_lab = lab
    return best_obj, best_lab


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


def full_scan_build(problem, params, *, eps=None, nearest_only=False, post_point=None):
    """The greedy/tabu builder with a full candidate scan per iteration.

    Every iteration recomputes the distance of every selectable node to
    the source, evaluates a branch point for every other selectable node
    and walks all of them in stable (distance, id) order.  O(N^2) work;
    the library's lazy nearest-first scan must match it byte for byte.
    """
    n = problem.n_targets
    d = problem.dim
    formula = _FORMULAS[params.formula]
    alpha = params.alpha
    if eps is None and params.shift_norm > 0:
        eps = random_direction(substream(params.seed, "branch-shift"), d) * params.shift_norm
    if eps is not None:
        eps = np.asarray(eps, dtype=float)

    cap = 2 * n + 1
    pos = np.zeros((cap, d))
    area = np.zeros(cap)
    parent = np.full(cap, -1, dtype=np.int64)
    selectable = np.zeros(cap, dtype=bool)
    pos[0] = problem.source
    pos[1:n + 1] = problem.targets
    area[1:n + 1] = problem.areas
    area[0] = float(problem.areas.sum())
    parent[1:n + 1] = 0
    selectable[1:n + 1] = True
    count = n + 1

    v0 = pos[0]
    cost = star_cost(problem, alpha)
    trace = [cost]
    events = []
    evals = 0
    step = 0
    while True:
        sel = np.flatnonzero(selectable[:count])
        if sel.size == 0:
            break
        dist0 = np.linalg.norm(pos[sel] - v0, axis=1)
        i = int(sel[int(np.argmax(dist0))])
        cand = sel[sel != i]

        j = -1
        if cand.size:
            s_i = float(area[i])
            s_js = area[cand]
            zs = formula(v0, pos[i], pos[cand], s_i, s_js, alpha)
            if eps is not None:
                zs = zs + eps / (s_i + s_js + params.shift_delta)[:, None]
            if post_point is not None:
                zs = post_point(zs)
            gains = _gains(v0, pos[i], pos[cand], s_i, s_js, alpha, zs)
            evals += cand.size
            order = np.argsort(np.linalg.norm(pos[cand] - pos[i], axis=1), kind="stable")
            if nearest_only:
                order = order[:1]
            improving = gains[order] > GAIN_TOL
            if improving.any():
                hit = int(np.argmax(improving))
                j = int(cand[order[hit]])
                z = zs[order[hit]]
                gain = float(gains[order[hit]])

        if j >= 0:
            b = count
            pos[b] = z
            area[b] = area[i] + area[j]
            parent[b] = 0
            parent[i] = b
            parent[j] = b
            selectable[i] = False
            selectable[j] = False
            selectable[b] = True
            count += 1
            cost -= gain
            trace.append(cost)
            events.append(BuildEvent(step, i, j, b, gain, cost))
        else:
            selectable[i] = False
            events.append(BuildEvent(step, i, None, None, 0.0, cost))
        step += 1

    kind = np.array(["source"] + ["target"] * n + ["branch"] * (count - n - 1))
    tree = FlowTree(pos[:count], kind, parent[:count], area[:count])
    return BuildResult(tree, np.array(trace), tuple(events), evals, eps)


# ---------------------------------------------------------------------------
# per-point sphere projection


def per_point_geo_project(point):
    """(lat, lon) degrees of one 3-D point pushed onto the unit sphere."""
    p = np.asarray(point, dtype=float).reshape(3)
    norm = float(np.linalg.norm(p))
    if not norm > 0:
        raise ParameterError("cannot project the sphere center")
    x, y, z = p / norm
    lat = math.degrees(math.asin(min(1.0, max(-1.0, z))))
    lon = math.degrees(math.atan2(y, x))
    return lat, normalize_lon(lon)


def per_point_arc_points(u, v):
    """Great-circle polyline from u to v in [lon, lat], one point and one edge at a time."""
    dot = float(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))
    omega = math.acos(dot)
    arc_km = omega * EARTH_RADIUS_KM
    n_seg = max(1, math.ceil(arc_km / MAX_SEGMENT_KM))
    pts = []
    for s in range(n_seg + 1):
        t = s / n_seg
        if omega < 1e-12:
            p = u
        else:
            p = (math.sin((1 - t) * omega) * u + math.sin(t * omega) * v) / math.sin(omega)
        lat, lon = per_point_geo_project(p)
        pts.append([lon, lat])
    return pts
