"""Rendering flow forests to SVG documents and GeoJSON FeatureCollections.

SVG draws edges as segments with stroke width scaling like area**alpha,
a red dot per source and blue dots for targets.  GeoJSON emits one
LineString per edge; edges of unit-sphere trees are subdivided into
great-circle arcs of at most 100 km so they follow the globe on a map.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import KIND_SOURCE, KIND_TARGET, FlowTree, ParameterError
from .pipeline import EARTH_RADIUS_KM, geo_project

MAX_SEGMENT_KM = 100.0


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
    out = np.empty((tree.n_nodes, 2))
    for i in range(tree.n_nodes):
        lat, lon = geo_project(tree.coords[i])
        out[i] = (lon, lat)
    return out


def render_svg(
    trees,
    *,
    alpha: float = 0.5,
    width: int = 800,
    margin: float = 0.05,
    stroke_scale: float = 6.0,
    point_radius: float = 3.0,
) -> str:
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
    pad = margin * float(span.max())
    lo = lo - pad
    span = span + 2 * pad
    scale = width / float(span[0])
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for tree, pts in zip(trees, planar):
        for i in np.flatnonzero(tree.parent >= 0):
            x1, y1 = place(pts[int(tree.parent[i])])
            x2, y2 = place(pts[i])
            w = stroke_scale * float(tree.area[i] ** alpha) / max_w
            lines.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="#555555" stroke-width="{max(w, 0.3):.3f}" stroke-linecap="round"/>'
            )
    for tree, pts in zip(trees, planar):
        for i in range(tree.n_nodes):
            if tree.kind[i] == KIND_SOURCE:
                x, y = place(pts[i])
                lines.append(
                    f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{1.6 * point_radius:.3f}" '
                    f'fill="#cc2222"/>'
                )
            elif tree.kind[i] == KIND_TARGET:
                x, y = place(pts[i])
                lines.append(
                    f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{point_radius:.3f}" '
                    f'fill="#2255cc"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines)


def _arc_points(u: np.ndarray, v: np.ndarray) -> list:
    """Great-circle polyline from u to v in (lon, lat), segments <= 100 km."""
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
        lat, lon = geo_project(p)
        pts.append([lon, lat])
    return pts


def render_geojson(trees, levels=None) -> str:
    """Serialize a forest as a GeoJSON FeatureCollection, one LineString per edge.

    ``levels`` optionally tags each tree's features (defaults to the tree
    index).  Sphere trees emit [lon, lat] positions along great-circle
    arcs; planar trees emit their raw coordinates.
    """
    trees = _check_trees(trees)
    if levels is None:
        levels = list(range(len(trees)))
    levels = list(levels)
    if len(levels) != len(trees):
        raise ParameterError("levels must have one entry per tree")

    features = []
    for tree, level in zip(trees, levels):
        geographic = tree.dim == 3
        for i in np.flatnonzero(tree.parent >= 0):
            a = tree.coords[int(tree.parent[i])]
            b = tree.coords[i]
            if geographic:
                coords = _arc_points(np.asarray(a), np.asarray(b))
            else:
                coords = [[float(a[0]), float(a[1])], [float(b[0]), float(b[1])]]
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": coords},
                    "properties": {"area": float(tree.area[i]), "level": level},
                }
            )
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, separators=(",", ":"))
