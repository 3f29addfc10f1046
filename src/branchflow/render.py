"""Rendering flow forests to SVG documents and GeoJSON FeatureCollections.

SVG draws edges as segments with stroke width scaling like area**alpha,
a red dot per source and blue dots for targets.  GeoJSON emits one
LineString per edge; edges of unit-sphere trees are subdivided into
great-circle arcs of at most 100 km so they follow the globe on a map.

SVG projects the sphere nodes ``_BLOCK`` at a time.  GeoJSON takes the
edges ``_BLOCK`` at a time, across trees of one dimension.  It projects
and formats each node that a block touches once, and that text is the
first or last point of every feature at the node, so the LineStrings
share their vertices.  On the sphere the points between an edge's ends
are slerped from its unit end points, in windows of about ``_BLOCK``
points, each in one broadcast of the slerp formula, whose norms and
divisions are elementwise numpy ops with the bits of the one-point
path.  sin, acos, asin and atan2 stay on libm through ``math``: numpy's
vectorized versions differ from it in the last bit on some inputs (about
8% for arcsin and arctan2 on an AVX-512 machine), as do ``norm(axis=1)``
and ``einsum`` norms, and either would change the coordinate bytes.
Sphere coordinates are written with ``%.6f`` (about 0.11 m, the
precision RFC 7946 section 11.2 suggests), planar ones and areas with
``%r`` (the ``repr(float)`` that ``json`` writes for a finite float),
and SVG rows with ``%.3f``.

Both documents are made in pieces, which the public functions join and
the CLI writes as they come.  Every check comes before the first piece.
The slerp between exactly antipodal end points has no direction, so such
an edge follows the great circle through the north pole, or through lon
0 from a pole.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np

from .core import KIND_SOURCE, KIND_TARGET, FlowTree, ParameterError, _check_alpha
from .io import _BLOCK, _row_blocks
from .pipeline import EARTH_RADIUS_KM, _dot_norms, _lon_lat_rows

MAX_SEGMENT_KM = 100.0
_SVG_WIDTH = 800
_SVG_MARGIN = 0.05      # padding around the drawing, as a share of its larger span
_STROKE_SCALE = 6.0     # stroke width of the thickest edge
_POINT_RADIUS = 3.0     # target dot radius; source dots are 1.6 times larger
_LINE = ('\n<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
         'stroke="#555555" stroke-width="%.3f" stroke-linecap="round"/>')
_DOTS = {KIND_SOURCE: f'" r="{1.6 * _POINT_RADIUS:.3f}" fill="#cc2222"/>',
         KIND_TARGET: f'" r="{_POINT_RADIUS:.3f}" fill="#2255cc"/>'}

_log = logging.getLogger(__name__)


def _check_trees(trees):
    trees = list(trees)
    for t, tree in enumerate(trees):
        if not isinstance(tree, FlowTree):
            raise ParameterError(f"entry {t} is not a flow tree")
    return trees


def render_svg(trees, *, alpha: float = 0.5) -> str:
    """Draw a forest of flow trees as a standalone SVG document.

    Stroke widths scale like area**alpha relative to the thickest edge.
    Unit-sphere trees are drawn in equirectangular (lon, lat) axes; an
    empty forest yields a valid empty document.
    """
    return "".join(_svg_chunks(trees, alpha))


def _svg_chunks(trees, alpha):
    """``render_svg`` in pieces: the header, blocks of edges, blocks of dots, the end."""
    trees = _check_trees(trees)
    _check_alpha(alpha)

    # every sphere tree's nodes in one projection, split back per tree
    sphere = [t.coords for t in trees if t.dim == 3]
    sizes = np.cumsum([len(c) for c in sphere])[:-1]
    rows = iter(np.split(_lon_lat_rows(np.concatenate(sphere)), sizes) if sphere else ())
    planar = [next(rows) if t.dim == 3 else t.coords for t in trees]
    lo = np.min([p.min(axis=0) for p in planar] or [np.zeros(2)], axis=0)
    hi = np.max([p.max(axis=0) for p in planar] or [np.ones(2)], axis=0)
    with np.errstate(over="ignore"):   # a box past the float range is rejected below
        span = np.maximum(hi - lo, 1e-9)
        pad = _SVG_MARGIN * float(span.max())
        lo = lo - pad
        span = span + 2 * pad
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(span))):
        raise ParameterError("coordinates too large to draw: the drawing box overflows")
    scale = _SVG_WIDTH / float(span[0])
    height = max(1, int(round(float(span[1]) * scale)))
    xy = [((p[:, 0] - lo[0]) * scale, height - (p[:, 1] - lo[1]) * scale) for p in planar]

    children = [np.flatnonzero(t.parent >= 0) for t in trees]
    max_w = max([float((t.area[c] ** alpha).max()) for t, c in zip(trees, children) if c.size]
                + [1e-12])

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{height}" '
           f'viewBox="0 0 {_SVG_WIDTH} {height}">\n'
           f'<rect width="{_SVG_WIDTH}" height="{height}" fill="white"/>')
    for tree, (x, y), child in zip(trees, xy, children):
        head = tree.parent[child]
        # a scalar power per edge: the array power may round differently
        widths = [max(_STROKE_SCALE * a ** alpha / max_w, 0.3) for a in tree.area[child].tolist()]
        yield from _row_blocks(_LINE, [x[head], y[head], x[child], y[child], np.array(widths)], "")
    for tree, (x, y) in zip(trees, xy):
        dot = np.flatnonzero((tree.kind == KIND_SOURCE) | (tree.kind == KIND_TARGET))
        tails = np.where(tree.kind[dot] == KIND_SOURCE, _DOTS[KIND_SOURCE], _DOTS[KIND_TARGET])
        yield from _row_blocks('\n<circle cx="%.3f" cy="%.3f%s', [x[dot], y[dot], tails], "")
    yield "\n</svg>"


def _arc_block(u, v, omega, n_seg) -> np.ndarray:
    """The interior arc points of a window of edges from unit end points u
    and v, every point in one broadcast of the slerp: their (P, 2)
    [lon, lat] rows, n_seg - 1 per edge, t = s / n_seg for s = 1..n_seg-1.
    Between exact antipodes, where the slerp has no direction, the points
    are cos(t pi) u + sin(t pi) e, e the unit vector at u toward the north
    pole, or toward lon 0 from a pole.  Both ends are unit vectors, so no
    point can overflow."""
    k = n_seg - 1
    edge = np.repeat(np.arange(k.size), k)
    t = (np.arange(edge.size) - (np.cumsum(k) - k)[edge] + 1) / n_seg[edge]
    w = omega[edge]
    sin_a = np.array(list(map(math.sin, ((1 - t) * w).tolist())))
    sin_b = np.array(list(map(math.sin, (t * w).tolist())))
    sin_w = np.array(list(map(math.sin, omega.tolist())))[edge]
    points = (sin_a[:, None] * u[edge] + sin_b[:, None] * v[edge]) / sin_w[:, None]
    flip = np.flatnonzero((u == -v).all(axis=1)[edge])
    if flip.size:
        a = u[edge[flip]]
        x, y, z = a.T
        rho = np.hypot(x, y)
        pole = rho == 0
        rho[pole] = 1.0
        e = np.column_stack((-z * x / rho, -z * y / rho, rho))
        e[pole] = 1.0, 0.0, 0.0
        tw = (t[flip] * math.pi).tolist()
        cos, sin = (np.array(list(map(f, tw)))[:, None] for f in (math.cos, math.sin))
        points[flip] = cos * a + sin * e
    return _lon_lat_rows(points)


def render_geojson(trees, levels=None) -> str:
    """Serialize a forest as a GeoJSON FeatureCollection, one LineString per edge.

    ``levels`` optionally tags each tree's features (defaults to the tree
    index).  Sphere trees emit [lon, lat] positions along great-circle
    arcs; planar trees emit their raw coordinates.  Tree, edge and arc
    point counts go to this module's logger at DEBUG.
    """
    return "".join(_geojson_chunks(trees, levels))


def _edge_blocks(trees, children):
    """Blocks of at most ``_BLOCK`` edges of trees of one dimension, in
    order: lists of runs (t, lo, hi), the children lo..hi-1 of tree t."""
    block, n = [], 0
    for t, (tree, child) in enumerate(zip(trees, children)):
        lo = 0
        while lo < child.size:
            if n == _BLOCK or (block and trees[block[-1][0]].dim != tree.dim):
                yield block
                block, n = [], 0
            hi = min(child.size, lo + _BLOCK - n)
            block.append((t, lo, hi))
            n += hi - lo
            lo = hi
    if block:
        yield block


def _texts(fmt, rows):
    """One text per (n, 2) row, through the two-number template ``fmt``."""
    return list(map(fmt.__mod__, zip(*rows.T.tolist())))


_FEATURE = '{"type":"Feature","geometry":{"type":"LineString","coordinates":[['
_AREA = ']]},"properties":{"area":'


def _geojson_chunks(trees, levels):
    """``render_geojson`` in pieces: the head, the features of each run of
    a tree's edges that falls in one window of about ``_BLOCK`` points,
    the tail.

    Per block of ``_BLOCK`` edges (``_edge_blocks``), the nodes that its
    edges touch are projected and formatted once, and each node's text is
    the first or last point of every feature that touches it.  On the
    sphere the interior arc points of a window are slerped in one batch
    (``_arc_block``) from the unit end points.
    """
    trees = _check_trees(trees)
    levels = list(range(len(trees)) if levels is None else levels)
    if len(levels) != len(trees):
        raise ParameterError("levels must have one entry per tree")
    try:
        tails = [',"level":' + json.dumps(level, separators=(",", ":"), allow_nan=False) + "}}"
                 for level in levels]
    except (TypeError, ValueError) as exc:   # NaN, an infinity or no JSON value at all
        raise ParameterError(f"levels must be finite JSON values: {exc}") from None
    children = [np.flatnonzero(t.parent >= 0) for t in trees]
    # every node is an edge's end: its norm faults come before the head,
    # checked about 8 * _BLOCK nodes at a time
    sphere, n = [], 0
    for tree in trees:
        if tree.dim == 3:
            sphere.append(tree.coords)
            n += tree.n_nodes
        if n >= 8 * _BLOCK:
            _dot_norms(np.concatenate(sphere))
            sphere, n = [], 0
    if sphere:
        _dot_norms(np.concatenate(sphere))

    yield '{"type":"FeatureCollection","features":['
    n_edges = n_points = 0
    for runs in _edge_blocks(trees, children):
        # the block's nodes, numbered apart per run (each run is another tree's)
        ks = [children[t][lo:hi] for t, lo, hi in runs]
        off = np.cumsum([0] + [trees[t].n_nodes for t, _, _ in runs])
        ends = np.concatenate([trees[t].parent[k] + o for (t, _, _), k, o in zip(runs, ks, off)]
                              + [k + o for k, o in zip(ks, off)])
        nodes, ends = np.unique(ends, return_inverse=True)
        head, tail = np.split(ends, 2)
        cuts = np.searchsorted(nodes, off).tolist()
        coords = np.concatenate([trees[t].coords[nodes[a:b] - o]
                                 for (t, _, _), a, b, o in zip(runs, cuts, cuts[1:], off)])
        if coords.shape[1] == 3:
            text = _texts("%.6f,%.6f", _lon_lat_rows(coords))
            p, norms = _dot_norms(coords)
            unit = p / norms[:, None]
            u, v = unit[head], unit[tail]
            cos = np.clip(np.vecdot(u, v), -1.0, 1.0)
            omega = np.array(list(map(math.acos, cos.tolist())))
            n_seg = np.maximum(np.ceil(omega * EARTH_RADIUS_KM / MAX_SEGMENT_KM), 1).astype(int)
        else:
            text = _texts("%r,%r", coords)
            n_seg = np.ones(head.size, dtype=int)
        head = [text[i] for i in head.tolist()]
        tail = [text[i] for i in tail.tolist()]
        area = np.concatenate([trees[t].area[k] for (t, _, _), k in zip(runs, ks)]).tolist()
        n_points += int(n_seg.sum()) + len(head)
        # the interior points of each window of about _BLOCK points in one batch,
        # the text of each run of one tree within it in one piece
        window = (np.cumsum(n_seg + 1) - n_seg - 1) // _BLOCK
        wcuts = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), len(head)]
        rcuts = np.cumsum([hi - lo for _, lo, hi in runs])
        for wa, wb in zip(wcuts, wcuts[1:]):
            mids = ["],["] * (wb - wa)   # between an edge's end points: its interior points
            e = np.flatnonzero(n_seg[wa:wb] > 1)
            if e.size:
                k = e + wa
                points = _texts("%.6f,%.6f", _arc_block(u[k], v[k], omega[k], n_seg[k]))
                bounds = np.cumsum(n_seg[k] - 1).tolist()
                for i, lo, hi in zip(e.tolist(), [0] + bounds, bounds):
                    mids[i] = "],[" + "],[".join(points[lo:hi]) + "],["
            r = int(np.searchsorted(rcuts, wa, side="right"))
            stops = [wa, *rcuts[r:np.searchsorted(rcuts, wb)].tolist(), wb]
            for r, (a, b) in enumerate(zip(stops, stops[1:]), r):
                level = tails[runs[r][0]]
                yield ("," if n_edges else "") + ",".join([
                    f"{_FEATURE}{h}{m}{c}{_AREA}{x!r}{level}"
                    for h, m, c, x in zip(head[a:b], mids[a - wa:b - wa], tail[a:b], area[a:b])])
                n_edges += b - a
    _log.debug("render_geojson: %d trees, %d edges, %d arc points", len(trees), n_edges, n_points)
    yield "]}"
