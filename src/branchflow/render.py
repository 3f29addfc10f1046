"""Rendering flow forests to SVG documents and GeoJSON FeatureCollections.

SVG draws edges as segments with stroke width scaling like area**alpha,
a red dot per source and blue dots for targets.  GeoJSON emits one
LineString per edge; edges of unit-sphere trees are subdivided into
great-circle arcs of at most 100 km so they follow the globe on a map.

Sphere trees are projected in one batch per tree: the arc sample points
of every edge come from one broadcast of the slerp formula, and their
norms and divisions are elementwise numpy ops with the bits of the
one-point path.  sin, acos, asin and atan2 stay on libm through
``math``: numpy's vectorized versions differ from it in the last bit on
some inputs (about 8% for arcsin and arctan2 on an AVX-512 machine), as
do ``norm(axis=1)`` and ``einsum`` norms, and either would change the
coordinate bytes.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np

from .core import KIND_SOURCE, KIND_TARGET, FlowTree, ParameterError
from .pipeline import EARTH_RADIUS_KM, _check_norms, _lon_lat_rows

MAX_SEGMENT_KM = 100.0
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


def _planar_coords(tree: FlowTree) -> np.ndarray:
    """Node positions in a drawing plane; sphere trees become (lon, lat)."""
    if tree.dim == 2:
        return np.asarray(tree.coords)
    return np.array(_lon_lat_rows(tree.coords))


def render_svg(trees, *, alpha: float = 0.5) -> str:
    """Draw a forest of flow trees as a standalone SVG document.

    Stroke widths scale like area**alpha relative to the thickest edge.
    Unit-sphere trees are drawn in equirectangular (lon, lat) axes; an
    empty forest yields a valid empty document.
    """
    trees = _check_trees(trees)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")

    planar = [_planar_coords(t) for t in trees]
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

    def place(p):
        x = (p[0] - lo[0]) * scale
        y = height - (p[1] - lo[1]) * scale
        return x, y

    max_w = 0.0
    for tree in trees:
        child = np.flatnonzero(tree.parent >= 0)
        if child.size:
            max_w = max(max_w, float((tree.area[child] ** alpha).max()))
    max_w = max(max_w, 1e-12)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_SVG_WIDTH} {height}">',
        f'<rect width="{_SVG_WIDTH}" height="{height}" fill="white"/>',
    ]
    for tree, pts in zip(trees, planar):
        for i in np.flatnonzero(tree.parent >= 0):
            x1, y1 = place(pts[int(tree.parent[i])])
            x2, y2 = place(pts[i])
            w = _STROKE_SCALE * float(tree.area[i] ** alpha) / max_w
            lines.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="#555555" stroke-width="{max(w, 0.3):.3f}" stroke-linecap="round"/>'
            )
    for tree, pts in zip(trees, planar):
        for i in range(tree.n_nodes):
            if tree.kind[i] == KIND_SOURCE:
                x, y = place(pts[i])
                lines.append(
                    f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{1.6 * _POINT_RADIUS:.3f}" '
                    f'fill="#cc2222"/>'
                )
            elif tree.kind[i] == KIND_TARGET:
                x, y = place(pts[i])
                lines.append(
                    f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{_POINT_RADIUS:.3f}" '
                    f'fill="#2255cc"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines)


def _great_circle_arcs(u: np.ndarray, v: np.ndarray) -> list:
    """Great-circle polylines from each row of u to the same row of v.

    Returns one list of [lon, lat] positions per edge, with segments of
    at most 100 km.  An edge shorter than 1e-12 rad is drawn as two
    copies of its start point.
    """
    with np.errstate(over="ignore"):   # an overflowed norm is rejected below
        nu = np.sqrt(np.vecdot(u, u))
        nv = np.sqrt(np.vecdot(v, v))
    u, nu = _check_norms(u, nu)
    v, nv = _check_norms(v, nv)
    cos = np.clip(np.vecdot(u, v) / (nu * nv), -1.0, 1.0)
    if np.isnan(cos).any():
        raise ParameterError("coordinates too large to draw as great-circle arcs")
    omega = list(map(math.acos, cos.tolist()))
    n_seg = np.array(
        [max(1, math.ceil(w * EARTH_RADIUS_KM / MAX_SEGMENT_KM)) for w in omega], dtype=np.int64
    )

    # one row per sample point: its edge and t = s / n_seg, s = 0..n_seg
    ends = np.cumsum(n_seg + 1)
    edge = np.repeat(np.arange(n_seg.size), n_seg + 1)
    t = (np.arange(edge.size) - (ends - n_seg - 1)[edge]) / n_seg[edge]
    w = np.array(omega)[edge]
    sin_a = np.array(list(map(math.sin, ((1 - t) * w).tolist())))
    sin_b = np.array(list(map(math.sin, (t * w).tolist())))
    sin_w = np.array(list(map(math.sin, omega)))[edge]
    flat = w < 1e-12
    sin_w[flat] = 1.0
    ue = u[edge]
    pts = (sin_a[:, None] * ue + sin_b[:, None] * v[edge]) / sin_w[:, None]
    pts[flat] = ue[flat]
    rows = _lon_lat_rows(pts)
    return [rows[e - k - 1:e] for e, k in zip(ends.tolist(), n_seg.tolist())]


def render_geojson(trees, levels=None) -> str:
    """Serialize a forest as a GeoJSON FeatureCollection, one LineString per edge.

    ``levels`` optionally tags each tree's features (defaults to the tree
    index).  Sphere trees emit [lon, lat] positions along great-circle
    arcs; planar trees emit their raw coordinates.  Tree, edge and arc
    point counts go to this module's logger at DEBUG.
    """
    trees = _check_trees(trees)
    if levels is None:
        levels = list(range(len(trees)))
    levels = list(levels)
    if len(levels) != len(trees):
        raise ParameterError("levels must have one entry per tree")

    features = []
    n_points = 0
    for tree, level in zip(trees, levels):
        child = np.flatnonzero(tree.parent >= 0)
        a = tree.coords[tree.parent[child]]
        b = tree.coords[child]
        if tree.dim == 3:
            lines = _great_circle_arcs(a, b)
        else:
            lines = [[pa, pb] for pa, pb in zip(a.tolist(), b.tolist())]
        for coords, area in zip(lines, tree.area[child].tolist()):
            n_points += len(coords)
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": coords},
                    "properties": {"area": area, "level": level},
                }
            )
    _log.debug(
        "render_geojson: %d trees, %d edges, %d arc points",
        len(trees), len(features), n_points,
    )
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, separators=(",", ":"))
