"""Rendering flow forests to SVG documents and GeoJSON FeatureCollections.

SVG draws edges as segments with stroke width scaling like area**alpha,
a red dot per source and blue dots for targets.  GeoJSON emits one
LineString per edge; edges of unit-sphere trees are subdivided into
great-circle arcs of at most 100 km so they follow the globe on a map.

SVG projects the sphere nodes ``_BLOCK`` at a time.  GeoJSON takes the
sphere edges ``_BLOCK`` at a time: it checks their angles, then draws
their arc sample points in runs of about ``_BLOCK``, each in one
broadcast of the slerp formula, whose norms and divisions are
elementwise numpy ops with the bits of the one-point path.  sin, acos,
asin and atan2 stay on libm through ``math``: numpy's vectorized
versions differ from it in the last bit on some inputs (about 8% for
arcsin and arctan2 on an AVX-512 machine), as do ``norm(axis=1)`` and
``einsum`` norms, and either would change the coordinate bytes.  Text
goes through ``%`` templates: a block's GeoJSON features in one
operation, numbers by ``%r`` (the ``repr(float)`` that ``json`` writes
for a finite float), and SVG rows by ``%.3f``.

Both documents are made in pieces, which the public functions join and
the CLI writes as they come.  Every check comes before the first piece
but two GeoJSON faults between end points whose norms pass: an arc angle
or a slerp point that overflows.  The CLI then removes its file.
"""

from __future__ import annotations

import functools
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


def _great_circle_arcs(n: int, endpoints):
    """Great-circle polylines along n edges, in segments of at most 100 km.

    ``endpoints(a, b)`` gives the (b - a, 3) start and end points of
    edges a..b-1.  Per ``_BLOCK`` edges this gathers and checks the end
    points once, then yields each run of them whose first points fall in
    one window of ``_BLOCK`` points: (a, b, the n_seg + 1 point counts of
    edges a..b-1, their [lon, lat] rows).  The norms are row-wise, so the
    bits do not depend on the block.  An edge under 1e-12 rad is two
    copies of its start point.
    """
    for lo in range(0, n, _BLOCK):
        (u, nu), (v, nv) = map(_dot_norms, endpoints(lo, min(lo + _BLOCK, n)))
        cos = np.clip(np.vecdot(u, v) / (nu * nv), -1.0, 1.0)
        if np.isnan(cos).any():
            raise ParameterError("coordinates too large to draw as great-circle arcs")
        omega = np.array(list(map(math.acos, cos.tolist())))
        n_seg = np.maximum(np.ceil(omega * EARTH_RADIUS_KM / MAX_SEGMENT_KM), 1).astype(np.int64)
        window = (np.cumsum(n_seg + 1) - n_seg - 1) // _BLOCK
        cuts = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), n_seg.size]
        for a, b in zip(cuts, cuts[1:]):
            yield lo + a, lo + b, n_seg[a:b] + 1, _arc_block(u[a:b], v[a:b], omega[a:b], n_seg[a:b])


def _arc_block(u, v, omega, n_seg) -> np.ndarray:
    """The arcs of one block of edges, from end points checked by
    ``_dot_norms``, every sample point in one broadcast of the slerp:
    their (P, 2) [lon, lat] rows, n_seg + 1 per edge."""
    # one row per sample point: its edge and t = s / n_seg, s = 0..n_seg
    ends = np.cumsum(n_seg + 1)
    edge = np.repeat(np.arange(n_seg.size), n_seg + 1)
    t = (np.arange(edge.size) - (ends - n_seg - 1)[edge]) / n_seg[edge]
    w = omega[edge]
    sin_a = np.array(list(map(math.sin, ((1 - t) * w).tolist())))
    sin_b = np.array(list(map(math.sin, (t * w).tolist())))
    sin_w = np.array(list(map(math.sin, omega.tolist())))[edge]
    flat = w < 1e-12
    sin_w[flat] = 1.0
    ue = u[edge]
    pts = (sin_a[:, None] * ue + sin_b[:, None] * v[edge]) / sin_w[:, None]
    pts[flat] = ue[flat]
    return _lon_lat_rows(pts)


def render_geojson(trees, levels=None) -> str:
    """Serialize a forest as a GeoJSON FeatureCollection, one LineString per edge.

    ``levels`` optionally tags each tree's features (defaults to the tree
    index).  Sphere trees emit [lon, lat] positions along great-circle
    arcs; planar trees emit their raw coordinates.  Tree, edge and arc
    point counts go to this module's logger at DEBUG.
    """
    return "".join(_geojson_chunks(trees, levels))


def _geojson_chunks(trees, levels):
    """``render_geojson`` in pieces: the head, the features of each run of
    a tree's edges that falls in one arc block or one block of
    ``_BLOCK`` planar edges, the tail."""
    trees = _check_trees(trees)
    levels = list(range(len(trees)) if levels is None else levels)
    if len(levels) != len(trees):
        raise ParameterError("levels must have one entry per tree")
    try:   # a level is manifest text: its % signs are escaped for the template
        tails = [(',"level":' + json.dumps(level, separators=(",", ":"), allow_nan=False)
                  + "}}").replace("%", "%%") for level in levels]
    except (TypeError, ValueError) as exc:   # NaN, an infinity or no JSON value at all
        raise ParameterError(f"levels must be finite JSON values: {exc}") from None

    children = [np.flatnonzero(t.parent >= 0) for t in trees]
    # the sphere edges, tree by tree: sphere[s] holds edges starts[s]..starts[s + 1] - 1
    sphere = [(t, c) for t, c in zip(trees, children) if t.dim == 3 and c.size]
    starts = np.cumsum([0] + [c.size for _, c in sphere])

    def endpoints(a, b):
        lo, hi = np.searchsorted(starts, [a, b - 1], side="right").tolist()
        ks = [(t, c[max(a - o, 0):b - o]) for (t, c), o in zip(sphere[lo - 1:hi], starts[lo - 1:])]
        return (np.concatenate([t.coords[t.parent[k]] for t, k in ks]),
                np.concatenate([t.coords[k] for t, k in ks]))

    for t, _ in sphere:   # every node is an edge's end: its norm faults come before the head
        _dot_norms(t.coords)
    blocks = _great_circle_arcs(int(starts[-1]), endpoints)

    @functools.cache
    def feature(n_points):
        return ('{"type":"Feature","geometry":{"type":"LineString","coordinates":[['
                + "],[".join(["%r,%r"] * n_points) + ']]},"properties":{"area":%r')

    # json writes a finite float as its repr, and every coordinate and area here is finite
    yield '{"type":"FeatureCollection","features":['
    n_edges = n_points = 0
    counts = ()   # the point counts of the arc block's edges not yet written; xy their points
    for tree, child, tail in zip(trees, children, tails):
        lo = 0
        while lo < child.size:
            if tree.dim == 3:
                if not len(counts):
                    _, _, counts, xy = next(blocks)
                hi = min(child.size, lo + len(counts))
                count, counts = np.split(counts, [hi - lo])
                points, xy = np.split(xy, [count.sum()])
            else:
                hi = min(child.size, lo + _BLOCK)
                k = child[lo:hi]
                points = np.stack([tree.coords[tree.parent[k]], tree.coords[k]], axis=1)
                count = np.full(hi - lo, 2)
            values = np.insert(points.ravel(), 2 * np.cumsum(count), tree.area[child[lo:hi]])
            template = (tail + ",").join([feature(c) for c in count.tolist()]) + tail
            yield ("," if n_edges else "") + template % tuple(values.tolist())
            n_edges += hi - lo
            n_points += int(count.sum())
            lo = hi
    _log.debug("render_geojson: %d trees, %d edges, %d arc points", len(trees), n_edges, n_points)
    yield "]}"
