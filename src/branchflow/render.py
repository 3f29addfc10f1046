"""Rendering flow forests to SVG documents and GeoJSON FeatureCollections.

SVG draws edges as segments with stroke width scaling like area**alpha,
a red dot per source and blue dots for targets.  GeoJSON emits one
LineString per edge; edges of unit-sphere trees are subdivided into
great-circle arcs of at most 100 km so they follow the globe on a map.

SVG projects every sphere node of a forest in one call.  GeoJSON checks
the angle of every sphere edge in one call, then draws the arc sample
points one block of about ``_ARC_BLOCK_POINTS`` at a time, each block in
one broadcast of the slerp formula, whose norms and divisions are
elementwise numpy ops with the bits of the one-point path.  sin, acos,
asin and atan2 stay on libm through ``math``: numpy's vectorized
versions differ from it in the last bit on some inputs (about 8% for
arcsin and arctan2 on an AVX-512 machine), as do ``norm(axis=1)`` and
``einsum`` norms, and either would change the coordinate bytes.  The
GeoJSON text is written from templates, each number as its
``repr(float)``, which is how ``json`` writes a finite float.

Both documents are made in pieces, which the public functions join and
the CLI writes as they come.  Every check comes before the first piece.
"""

from __future__ import annotations

import itertools
import json
import logging
import math

import numpy as np

from .core import KIND_SOURCE, KIND_TARGET, FlowTree, ParameterError, _check_alpha
from .pipeline import EARTH_RADIUS_KM, _dot_norms, _lon_lat_rows

MAX_SEGMENT_KM = 100.0
_ARC_BLOCK_POINTS = 1 << 14   # about this many arc sample points are drawn at a time
_SVG_WIDTH = 800
_SVG_MARGIN = 0.05      # padding around the drawing, as a share of its larger span
_STROKE_SCALE = 6.0     # stroke width of the thickest edge
_POINT_RADIUS = 3.0     # target dot radius; source dots are 1.6 times larger

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
    """``render_svg`` in pieces: the header, each tree's edges, each tree's dots, the end."""
    trees = _check_trees(trees)
    _check_alpha(alpha)

    # every sphere tree's nodes in one projection, split back per tree
    sphere = [t.coords for t in trees if t.dim == 3]
    sizes = np.cumsum([len(c) for c in sphere])[:-1]
    rows = iter(np.split(_lon_lat_rows(np.concatenate(sphere)), sizes) if sphere else ())
    planar = [next(rows) if t.dim == 3 else t.coords for t in trees]
    if planar:
        allpts = np.vstack(planar)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    else:
        lo = np.zeros(2)
        hi = np.ones(2)
    span = np.maximum(hi - lo, 1e-9)
    pad = _SVG_MARGIN * float(span.max())
    lo = lo - pad
    span = span + 2 * pad
    scale = _SVG_WIDTH / float(span[0])
    height = max(1, int(round(float(span[1]) * scale)))
    xy = [((p[:, 0] - lo[0]) * scale, height - (p[:, 1] - lo[1]) * scale) for p in planar]

    children = [np.flatnonzero(t.parent >= 0) for t in trees]
    max_w = 0.0
    for tree, child in zip(trees, children):
        if child.size:
            max_w = max(max_w, float((tree.area[child] ** alpha).max()))
    max_w = max(max_w, 1e-12)

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{height}" '
           f'viewBox="0 0 {_SVG_WIDTH} {height}">\n'
           f'<rect width="{_SVG_WIDTH}" height="{height}" fill="white"/>')
    for tree, (x, y), child in zip(trees, xy, children):
        head = tree.parent[child]
        # a scalar power per edge: the array power may round differently
        widths = [_STROKE_SCALE * a ** alpha / max_w for a in tree.area[child].tolist()]
        yield "".join([
            f'\n<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#555555" stroke-width="{max(w, 0.3):.3f}" stroke-linecap="round"/>'
            for x1, y1, x2, y2, w in zip(x[head].tolist(), y[head].tolist(),
                                         x[child].tolist(), y[child].tolist(), widths)
        ])
    source_dot = f'" r="{1.6 * _POINT_RADIUS:.3f}" fill="#cc2222"/>'
    target_dot = f'" r="{_POINT_RADIUS:.3f}" fill="#2255cc"/>'
    for tree, (x, y) in zip(trees, xy):
        yield "".join([
            f'\n<circle cx="{xk:.3f}" cy="{yk:.3f}{source_dot if k == KIND_SOURCE else target_dot}'
            for k, xk, yk in zip(tree.kind.tolist(), x.tolist(), y.tolist())
            if k == KIND_SOURCE or k == KIND_TARGET
        ])
    yield "\n</svg>"


def _great_circle_arcs(u: np.ndarray, v: np.ndarray):
    """Great-circle polylines from each row of u to the same row of v.

    Returns an iterator over one list of [lon, lat] positions per edge,
    with segments of at most 100 km.  An edge shorter than 1e-12 rad is
    drawn as two copies of its start point.  The norms and angles are
    checked in this call, the points drawn one block of edges at a time.
    """
    u, nu = _dot_norms(u)
    v, nv = _dot_norms(v)
    cos = np.clip(np.vecdot(u, v) / (nu * nv), -1.0, 1.0)
    if np.isnan(cos).any():
        raise ParameterError("coordinates too large to draw as great-circle arcs")
    omega = np.fromiter(map(math.acos, cos), float, cos.size)
    n_seg = np.maximum(np.ceil(omega * EARTH_RADIUS_KM / MAX_SEGMENT_KM), 1).astype(np.int64)
    # a block holds the edges whose first sample point falls in one window of _ARC_BLOCK_POINTS
    first = np.cumsum(n_seg + 1) - n_seg - 1
    ends = [*(np.flatnonzero(np.diff(first // _ARC_BLOCK_POINTS)) + 1).tolist(), n_seg.size]
    return itertools.chain.from_iterable(
        _arc_block(u[a:b], v[a:b], omega[a:b], n_seg[a:b]) for a, b in zip([0, *ends], ends)
    )


def _arc_block(u, v, omega, n_seg) -> list:
    """The arcs of one block of edges, every sample point in one broadcast of the slerp."""
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
    rows = _lon_lat_rows(pts).tolist()
    return [rows[e - k - 1:e] for e, k in zip(ends.tolist(), n_seg.tolist())]


def render_geojson(trees, levels=None) -> str:
    """Serialize a forest as a GeoJSON FeatureCollection, one LineString per edge.

    ``levels`` optionally tags each tree's features (defaults to the tree
    index).  Sphere trees emit [lon, lat] positions along great-circle
    arcs; planar trees emit their raw coordinates.  Tree, edge and arc
    point counts go to this module's logger at DEBUG.
    """
    return "".join(_geojson_chunks(trees, levels))


def _geojson_chunks(trees, levels):
    """``render_geojson`` in pieces: the head, each tree's features, the tail."""
    trees = _check_trees(trees)
    if levels is None:
        levels = list(range(len(trees)))
    levels = list(levels)
    if len(levels) != len(trees):
        raise ParameterError("levels must have one entry per tree")

    children = [np.flatnonzero(t.parent >= 0) for t in trees]
    # the arcs of every sphere edge of the forest, checked in one call
    sphere = [(t, c) for t, c in zip(trees, children) if t.dim == 3]
    arcs = iter(())
    if sphere:
        arcs = _great_circle_arcs(np.concatenate([t.coords[t.parent[c]] for t, c in sphere]),
                                  np.concatenate([t.coords[c] for t, c in sphere]))

    # json writes a finite float as its repr, and every coordinate and area here is finite
    yield '{"type":"FeatureCollection","features":['
    n_edges = n_points = 0
    for tree, child, level in zip(trees, children, levels):
        if tree.dim == 3:
            lines = itertools.islice(arcs, child.size)
        else:
            lines = zip(tree.coords[tree.parent[child]].tolist(), tree.coords[child].tolist())
        tail = ',"level":' + json.dumps(level, separators=(",", ":")) + "}}"
        features = []
        for coords, area in zip(lines, tree.area[child].tolist()):
            n_points += len(coords)
            features.append(
                '{"type":"Feature","geometry":{"type":"LineString","coordinates":[['
                + "],[".join([f"{x!r},{y!r}" for x, y in coords])
                + ']]},"properties":{"area":' + repr(area) + tail
            )
        if features:
            yield ("," if n_edges else "") + ",".join(features)
            n_edges += len(features)
    _log.debug("render_geojson: %d trees, %d edges, %d arc points", len(trees), n_edges, n_points)
    yield "]}"
