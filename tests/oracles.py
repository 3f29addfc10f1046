"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's solver code paths: the transport
oracle enumerates spanning trees of the complete bipartite graph (every
vertex of the transportation polytope is supported on one), and the
clustering oracle brute-forces two-part splits.  The K-means reference
is the Lloyd loop with one boolean mask per cluster, as weighted_kmeans
once ran it.  The builder reference
is the plain full-scan loop over one tree, with the closed-form
branch-point and gain arithmetic written per tree, as the library's
one-tree loop once had it.  The sphere projection references
project one point at a time, as the renderer once did, and the tree
validation reference checks one node at a time, as validate_tree once
did.  The writer references build the GeoJSON, network JSON and plan
JSON documents as dicts, one edge and one node at a time, and leave the
text to ``json.dumps``, as the library's writers once did.  The
reference start finds each least-cost allocation by one argmin over the
whole cost matrix, closed lines set to inf, as the simplex's start once
did.  The simplex
reference re-hangs every node of a cut-off subtree, leaves included, and
builds the whole reduced-cost matrix from a fresh copy of the duals for
every pricing, as transport_simplex once did; it then walks that matrix
in the library's row blocks, or takes its most negative cell, the
Dantzig rule transport_simplex once used.  The Sinkhorn reference checks
both factors for finiteness and computes both marginal errors on every
iteration, as solve_sinkhorn once did.  The cities CSV reference parses
and checks one row at a time, as load_cities_csv once did.
"""

import csv
import itertools
import json
import math

import numpy as np

from branchflow.branching import GAIN_TOL, BuildResult, star_cost
from branchflow.clustering import _KMEANS_MAX_ITER, _KMEANS_TOL, KMeansResult, _plus_plus_init
from branchflow.core import (
    CONSERVATION_RTOL,
    KIND_BRANCH,
    KIND_SOURCE,
    KIND_TARGET,
    KINDS,
    ConvergenceError,
    FlowTree,
    ParameterError,
    TransportPlan,
    ValidationReport,
    Violation,
    bot_cost,
)
from branchflow.io import _CITY_ALIASES, CityLoadReport, CityTable, normalize_lon
from branchflow.ot import (
    SinkhornResult,
    _PRICE_BLOCKS,
    _PRICE_TOL,
    _check_cost,
    _check_masses,
    _initial_basis,
    _preorder,
    _rebuild_from_basis,
    cost_matrix,
    plan_cost,
    plan_to_assignments,
)
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


def _full_hang(adj, c, m, top, parent, depth, dual):
    """Set parent, depth and dual of every node below ``top``, leaves included."""
    item = c.item
    stack = [top]
    while stack:
        node = stack.pop()
        up = parent[node]
        d = depth[node] + 1
        du = dual[node]
        for nb in adj[node]:
            if nb != up:
                parent[nb] = node
                depth[nb] = d
                cost = item(node, nb - m) if node < m else item(nb, node - m)
                dual[nb] = cost - du
                stack.append(nb)


def _block_entering(reduced, price_tol, start):
    """Block search over row blocks of ceil(m / _PRICE_BLOCKS) rows.

    From block ``start`` on, cyclically, the most negative cell of the
    first block holding a cell below the threshold.  Returns the flat
    index, or -1, and the block it came from.
    """
    m, n = reduced.shape
    rows = math.ceil(m / _PRICE_BLOCKS)
    n_blocks = math.ceil(m / rows)
    for step in range(n_blocks):
        k = (start + step) % n_blocks
        block = reduced[k * rows:(k + 1) * rows]
        at = int(np.argmin(block))
        if block.flat[at] < -price_tol:
            return k * rows * n + at, k
    return -1, start


def argmin_start(p, q, c):
    """Least-cost start on ``c``: one argmin over every cell per allocation.

    The closure rules are the library's: the exhausted line closes,
    except that the last open row (or column) stays open while the other
    side has open lines.  ``c`` is not modified.
    """
    m, n = c.shape
    a = p.copy()
    b = q.copy()
    cc = c.copy()
    rows_open, cols_open = m, n
    alloc = {}
    for _ in range(m + n - 1):
        flat = int(np.argmin(cc))
        i, j = divmod(flat, n)
        x = min(a[i], b[j])
        alloc[(i, j)] = x
        a[i] -= x
        b[j] -= x
        if rows_open > 1 and (a[i] == 0.0 or cols_open == 1):
            cc[i, :] = np.inf
            rows_open -= 1
        else:
            cc[:, j] = np.inf
            cols_open -= 1
    return alloc


def full_walk_simplex(p, q, c, pricing="block"):
    """Transportation simplex that re-hangs whole subtrees, and its pivot line.

    With ``pricing="block"``, the same start, pricing rule, pivot
    tie-breaks, threshold and final rebuild as ``transport_simplex``; only
    the dual bookkeeping and the way the reduced costs are laid out
    differ.  ``pricing="dantzig"`` enters the most negative cell of the
    whole matrix instead.  Both switch to Bland's rule after a stall.
    Returns the plan and the DEBUG line the library logs for the solve.
    """
    if pricing not in ("block", "dantzig"):
        raise ValueError(f"unknown pricing {pricing!r}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m, n = p.shape[0], q.shape[0]
    c = _check_cost(c, m, n)
    _check_masses(p, q)
    price_tol = _PRICE_TOL * max(1.0, float(c.max()))

    alloc = _initial_basis(p, q, c)
    size = m + n
    adj = [set() for _ in range(size)]
    for (i, j) in alloc:
        adj[i].add(m + j)
        adj[m + j].add(i)
    if len(alloc) != size - 1 or len(_preorder(adj)[0]) != size:
        raise ConvergenceError("initial basis is not a spanning tree of all rows and columns")
    parent = [0] * size
    depth = [0] * size
    dual = [0.0] * size
    _full_hang(adj, c, m, 0, parent, depth, dual)

    bland = False
    stalled = 0
    pivots = degenerate = 0
    start = 0
    for _ in range(200 * size + 1000):
        duals = np.array(dual)
        reduced = c - duals[:m, None] - duals[None, m:]
        if bland:
            neg = (reduced < -price_tol).ravel()
            flat = int(np.argmax(neg)) if neg.any() else -1
        elif pricing == "block":
            flat, start = _block_entering(reduced, price_tol, start)
        else:
            flat = int(np.argmin(reduced))
            if reduced.flat[flat] >= -price_tol:
                flat = -1
        if flat < 0:
            break
        ei, ej = divmod(flat, n)

        minus, plus = [], []
        a, b = ei, m + ej
        while a != b:
            on_row_side = depth[a] >= depth[b]
            node = a if on_row_side else b
            up = parent[node]
            cell = (node, up - m) if node < m else (up, node - m)
            if (node < m) == on_row_side:
                minus.append((cell, on_row_side))
            else:
                plus.append(cell)
            if on_row_side:
                a = up
            else:
                b = up
        theta = min(alloc[cell] for cell, _ in minus)
        leaving, on_row_side = min(entry for entry in minus if alloc[entry[0]] == theta)

        for cell, _ in minus:
            alloc[cell] -= theta
        for cell in plus:
            alloc[cell] += theta
        alloc[(ei, ej)] = theta
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)
        del alloc[leaving]
        adj[leaving[0]].discard(m + leaving[1])
        adj[m + leaving[1]].discard(leaving[0])

        inner, outer = (ei, m + ej) if on_row_side else (m + ej, ei)
        parent[inner] = outer
        depth[inner] = depth[outer] + 1
        dual[inner] = c.item(ei, ej) - dual[outer]
        _full_hang(adj, c, m, inner, parent, depth, dual)

        pivots += 1
        if theta > 0:
            stalled = 0
        else:
            degenerate += 1
            stalled += 1
            if stalled > size:
                bland = True
    else:
        raise ConvergenceError("transportation simplex exceeded its pivot budget")

    line = (f"transport_simplex {m}x{n}: {pivots} pivots, {degenerate} degenerate, "
            f"bland switch {'yes' if bland else 'no'}")
    return _rebuild_from_basis(adj, p, q, m, n), line


def reference_sinkhorn(instance, c, cfg):
    """Sinkhorn scaling with every check on every iteration.

    The same kernel, iteration, stopping rule and errors as
    ``solve_sinkhorn``, but both factors are tested for finiteness and
    both marginal L1 errors are computed on every iteration.
    """
    c = _check_cost(c, instance.n_sources, instance.n_targets)
    p, q = instance.p, instance.q

    cmax = float(c.max())
    chat = c / cmax if cmax > 0 else c
    K = np.exp(-chat / cfg.reg)
    if np.any(K.sum(axis=1) == 0.0) or np.any(K.sum(axis=0) == 0.0):
        raise ConvergenceError(
            "scaling kernel underflowed to zero rows/columns; increase reg"
        )

    v = np.ones_like(q)
    u = np.ones_like(p)
    err = np.inf
    converged = False
    n_iter = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for n_iter in range(1, cfg.max_iter + 1):
            Kv = K @ v
            u = p / Kv
            Ktu = K.T @ u
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(Ktu))):
                raise ConvergenceError(
                    "scaling factors overflowed; increase reg"
                )
            col_err = float(np.abs(v * Ktu - q).sum())
            row_err = float(np.abs(u * Kv - p).sum())
            err = max(row_err, col_err)
            if err < cfg.tol:
                converged = True
                break
            v = q / Ktu

    gamma = u[:, None] * K * v[None, :]
    plan = TransportPlan(gamma, p, q)
    return SinkhornResult(plan, n_iter, err, converged)


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


def masked_kmeans(pointset, k, *, seed=0, init=None):
    """Weighted Lloyd iteration as weighted_kmeans once ran it: distances
    from one (n, k, d) einsum, and each center moved to its cluster's
    weighted mean through a boolean mask per cluster.  Seeding, the
    empty-cluster refill and the stopping rule are the library's."""
    x = pointset.points
    w = pointset.weights
    n = pointset.n_points
    if init is not None:
        centers = np.array(init, dtype=float)
    else:
        centers = _plus_plus_init(x, w, k, substream(seed, "kmeans-init"))
    prev = math.inf
    history = []
    for it in range(1, _KMEANS_MAX_ITER + 1):
        diff = x[:, None, :] - centers[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        labels = np.argmin(d2, axis=1)

        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            costs = w * d2[np.arange(n), labels]
            for c in np.flatnonzero(counts == 0):
                movable = counts[labels] > 1
                j = int(np.argmax(np.where(movable, costs, -1.0)))
                counts[labels[j]] -= 1
                counts[c] += 1
                labels[j] = c
                centers[c] = x[j]
                costs[j] = -1.0

        for c in range(k):
            members = labels == c
            wc = w[members]
            centers[c] = (wc[:, None] * x[members]).sum(axis=0) / wc.sum()

        diff = x - centers[labels]
        obj = float(np.sum(w * np.einsum("nd,nd->n", diff, diff)))
        history.append(obj)
        if prev - obj <= _KMEANS_TOL:
            break
        prev = obj
    return KMeansResult(centers, labels, history[-1], it, np.array(history))


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


def full_scan_build(problem, params, *, eps=None, post_point=None):
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
    steps = []   # per iteration: picked, partner, branch, gain, cost
    evals = 0
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
            steps.append((i, j, b, gain, cost))
        else:
            selectable[i] = False
            steps.append((i, -1, -1, 0.0, cost))

    kind = np.array(["source"] + ["target"] * n + ["branch"] * (count - n - 1))
    tree = FlowTree(pos[:count], kind, parent[:count], area[:count])
    columns = tuple(np.array(column) for column in zip(*steps))
    return BuildResult(tree, np.array(trace), columns, evals, eps)


# ---------------------------------------------------------------------------
# per-point sphere projection


def per_point_unit(point):
    """One 3-D point pushed onto the unit sphere.

    A point whose squared norm underflows to 0, although a coordinate is
    not 0, is first divided by its largest absolute coordinate.
    """
    p = np.asarray(point, dtype=float).reshape(3)
    norm = float(np.linalg.norm(p))
    if norm == 0 and np.any(p != 0):
        p = p / np.abs(p).max()
        norm = float(np.linalg.norm(p, axis=-1))
    if not norm > 0:
        raise ParameterError("cannot project the sphere center")
    return p / norm


def per_point_geo_project(point):
    """(lat, lon) degrees of one 3-D point pushed onto the unit sphere."""
    x, y, z = per_point_unit(point)
    lat = math.degrees(math.asin(min(1.0, max(-1.0, z))))
    lon = math.degrees(math.atan2(y, x))
    return lat, normalize_lon(lon)


def per_point_arc_points(u, v):
    """Great-circle polyline from u to v in [lon, lat], one point and one edge at a time.

    The end points are the projections of u and v themselves; the points
    between them are slerped from u/|u| to v/|v|.  Between exact antipodes
    they run along the great circle from u/|u| toward the north pole, or
    from a pole toward lon 0.
    """
    a, b = per_point_unit(u), per_point_unit(v)
    omega = math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
    n_seg = max(1, math.ceil(omega * EARTH_RADIUS_KM / MAX_SEGMENT_KM))
    flip = np.array_equal(a, -b)
    x, y, z = a
    rho = np.hypot(x, y)
    e = np.array([-z * x / rho, -z * y / rho, rho]) if rho else np.array([1.0, 0.0, 0.0])
    pts = [u]
    for s in range(1, n_seg):
        t = s / n_seg
        if flip:
            pts.append(math.cos(t * math.pi) * a + math.sin(t * math.pi) * e)
        else:
            pts.append((math.sin((1 - t) * omega) * a + math.sin(t * omega) * b) / math.sin(omega))
    pts.append(v)
    return [per_point_geo_project(p)[::-1] for p in pts]


def full_precision_arc_points(u, v):
    """Great-circle polyline from u to v in [lon, lat] at full precision,
    slerped between the raw end points; an edge under 1e-12 rad is two
    copies of its start point.  Where u and v have one norm, each point
    is the one of ``per_point_arc_points`` before rounding."""
    dot = float(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))
    omega = math.acos(dot)
    n_seg = max(1, math.ceil(omega * EARTH_RADIUS_KM / MAX_SEGMENT_KM))
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


# ---------------------------------------------------------------------------
# dict-built writers


def dict_geojson(trees, levels=None):
    """GeoJSON FeatureCollection text of a forest, built one feature at a time.

    Planar points are written as ``json`` writes them.  Sphere edges are
    drawn one at a time with ``per_point_arc_points``, each number by
    ``%.6f``.
    """
    if levels is None:
        levels = list(range(len(trees)))
    features = []
    for tree, level in zip(trees, levels):
        for i in np.flatnonzero(tree.parent >= 0):
            a, b = tree.coords[tree.parent[i]], tree.coords[i]
            if tree.dim == 3:
                coords = ",".join(["[%.6f,%.6f]" % tuple(p) for p in per_point_arc_points(a, b)])
            else:
                coords = json.dumps([a.tolist(), b.tolist()], separators=(",", ":"))[1:-1]
            properties = json.dumps({"area": float(tree.area[i]), "level": level},
                                    separators=(",", ":"))
            features.append('{"type":"Feature","geometry":{"type":"LineString","coordinates":['
                            + coords + ']},"properties":' + properties + "}")
    return '{"type":"FeatureCollection","features":[' + ",".join(features) + "]}"


def per_node_network_json(tree, alpha, cost=None):
    """Network JSON text of a flow tree, built one node and one edge at a time."""
    if cost is None:
        cost = bot_cost(tree, alpha)
    nodes = [
        {"id": i, "kind": str(tree.kind[i]), "coords": [float(c) for c in tree.coords[i]]}
        for i in range(tree.n_nodes)
    ]
    edges = [
        {"from": int(tree.parent[i]), "to": i, "area": float(tree.area[i])}
        for i in range(tree.n_nodes)
        if tree.parent[i] >= 0
    ]
    doc = {"nodes": nodes, "edges": edges, "alpha": float(alpha), "cost": float(cost)}
    return json.dumps(doc, separators=(",", ":"))


def dict_plan_json(instance, plan):
    """Plan JSON text of a transport plan, one dict per node and per positive entry."""
    m = instance.n_sources
    kinds = [KIND_SOURCE] * m + [KIND_TARGET] * instance.n_targets
    coords = instance.sources.tolist() + instance.targets.tolist()
    nodes = [{"id": i, "kind": k, "coords": c} for i, (k, c) in enumerate(zip(kinds, coords))]
    edges = [{"from": i, "to": m + j, "area": a}
             for i, row in enumerate(plan_to_assignments(plan)) for j, a in row]
    doc = {"nodes": nodes, "edges": edges, "alpha": 1.0,
           "cost": plan_cost(plan, cost_matrix(instance))}
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-node tree validation


def per_node_children(tree):
    """Child lists per node, in node-id order, one parent at a time."""
    count = tree.n_nodes
    out = [[] for _ in range(count)]
    for n, par in enumerate(tree.parent):
        if 0 <= par < count:
            out[int(par)].append(n)
    return out


def per_node_validate_tree(tree, demands=None):
    """Check a flow tree against the node balance rules.

    Verifies single-source rootedness, acyclicity, leaf-only targets,
    positive areas, and conservation (area into each internal node equals
    the sum of its children's areas, relative tolerance 1e-9).  When
    ``demands`` maps target ids to their assigned areas, those are checked
    too.  Diagnostics are returned, never raised.

    The per-node reference for ``validate_tree``: ``tree`` needs only
    ``n_nodes``, ``kind``, ``parent`` and ``area``, so a tree that fails
    construction can be checked too.
    """
    v: list[Violation] = []
    n = tree.n_nodes

    for i, k in enumerate(tree.kind):
        if k not in KINDS:
            v.append(Violation("bad-kind", (i,), None, f"node {i} has unknown kind {k!r}"))

    src = np.flatnonzero(tree.kind == KIND_SOURCE)
    if src.size != 1:
        v.append(Violation("source-count", tuple(int(s) for s in src), None,
                           f"expected exactly one source node, found {src.size}"))
    for s in src:
        if tree.parent[s] != -1:
            v.append(Violation("source-parent", (int(s),), None,
                               f"source node {s} must not have a parent"))

    for i in range(n):
        par = int(tree.parent[i])
        if tree.kind[i] == KIND_SOURCE:
            continue
        if par < 0 or par >= n:
            v.append(Violation("orphan", (i,), None, f"node {i} has no valid parent"))
        elif par == i:
            v.append(Violation("cycle", (i,), None, f"node {i} is its own parent"))

    # Walk parent chains; any chain that revisits an in-progress node is a cycle.
    color = np.zeros(n, dtype=np.int8)  # 0 new, 1 on current chain, 2 settled
    for start in range(n):
        if color[start]:
            continue
        chain = []
        node = start
        while True:
            if node < 0 or node >= n:
                break  # dangling parent, already reported as orphan
            if color[node] == 2:
                break
            if color[node] == 1:
                cyc = chain[chain.index(node):]
                v.append(Violation("cycle", tuple(cyc), None,
                                   f"nodes {cyc} form a cycle"))
                break
            color[node] = 1
            chain.append(node)
            if tree.parent[node] == -1:
                break
            node = int(tree.parent[node])
        for m in chain:
            color[m] = 2

    nonsource = tree.kind != KIND_SOURCE
    bad_area = np.flatnonzero(nonsource & ~(tree.area > 0))
    for i in bad_area:
        v.append(Violation("nonpositive-area", (int(i),), float(tree.area[i]),
                           f"node {i} carries nonpositive area {tree.area[i]}"))

    kids = per_node_children(tree)
    for i in range(n):
        k = tree.kind[i]
        if k == KIND_TARGET and kids[i]:
            v.append(Violation("target-not-leaf", (i, *kids[i]), None,
                               f"target node {i} has children {kids[i]}"))
        elif k in (KIND_SOURCE, KIND_BRANCH):
            outflow = float(tree.area[kids[i]].sum()) if kids[i] else 0.0
            residual = float(tree.area[i] - outflow)
            tol = CONSERVATION_RTOL * max(1.0, abs(float(tree.area[i])))
            if abs(residual) > tol:
                v.append(Violation("conservation", (i,), residual,
                                   f"node {i} carries {tree.area[i]} but sends {outflow} "
                                   f"(residual {residual:.3g})"))

    if demands is not None:
        for node, demand in demands.items():
            if node < 0 or node >= n or tree.kind[node] != KIND_TARGET:
                v.append(Violation("demand-mismatch", (int(node),), None,
                                   f"demand given for non-target node {node}"))
            elif not (math.isfinite(demand) and abs(tree.area[node] - demand)
                      <= CONSERVATION_RTOL * max(1.0, abs(demand))):
                v.append(Violation("demand-mismatch", (int(node),),
                                   float(tree.area[node] - demand),
                                   f"target {node} carries {tree.area[node]} "
                                   f"but was assigned {demand}"))

    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# per-row cities CSV loading


def _per_row_city(row):
    """One row's (name, country, lat, lon, population), or None, and its drop reason."""
    raw = {}
    for field in _CITY_ALIASES:
        value = row.get(field)
        if value is None or value.strip() == "":
            return None, f"missing-{field}"
        raw[field] = value.strip()
    try:
        lat = float(raw["lat"])
        lon = float(raw["lng"])
        pop = float(raw["population"])
    except ValueError:
        return None, "unparsable-number"
    if not (math.isfinite(lat) and math.isfinite(lon) and math.isfinite(pop)):
        return None, "unparsable-number"
    if not -90.0 <= lat <= 90.0:
        return None, "latitude-out-of-range"
    if pop <= 0:
        return None, "nonpositive-population"
    return (raw["city"], raw["country"], lat, normalize_lon(lon), pop), None


def per_row_load_cities(path):
    """The cities CSV at ``path``, whose header names every required
    column, loaded and checked one row at a time."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        lower = [h.strip().lower() for h in next(reader)]
        col_of = {field: lower.index(next(a for a in aliases if a in lower))
                  for field, aliases in _CITY_ALIASES.items()}
        width = max(col_of.values()) + 1
        cities = []
        dropped = {}
        n_rows = 0
        for cells in reader:
            if not cells:
                continue
            n_rows += 1
            if len(cells) < width:
                city, reason = None, "short-row"
            else:
                city, reason = _per_row_city({f: cells[c] for f, c in col_of.items()})
            if city is None:
                dropped[reason] = dropped.get(reason, 0) + 1
            else:
                cities.append(city)
    columns = tuple(zip(*cities)) or ((),) * len(_CITY_ALIASES)
    return CityLoadReport(CityTable(*columns), n_rows, dropped)
