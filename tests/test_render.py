"""SVG and GeoJSON emission."""

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from branchflow import (
    BotParams,
    FlowTree,
    OneToManyProblem,
    ParameterError,
    StructuralError,
    build_one_to_many,
    geo_embed,
    render_geojson,
    render_svg,
)
from branchflow.pipeline import EARTH_RADIUS_KM
from branchflow.seeding import substream


def star_tree():
    return FlowTree(
        coords=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        kind=["source", "target", "target"],
        parent=[-1, 0, 0],
        area=[4.0, 3.0, 1.0],
    )


def geo_edge_tree(lon_span=10.0):
    return FlowTree(
        coords=[geo_embed(0.0, 0.0), geo_embed(0.0, lon_span)],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )


# ---------------------------------------------------------------------------
# SVG


def test_svg_empty_forest_is_valid_document():
    text = render_svg([])
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert not [el for el in root.iter() if el.tag.endswith("line")]


def test_svg_single_edge():
    tree = FlowTree([[0.0, 0.0], [1.0, 1.0]], ["source", "target"], [-1, 0], [1.0, 1.0])
    root = ET.fromstring(render_svg([tree]))
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(lines) == 1
    assert len(circles) == 2
    fills = {c.get("fill") for c in circles}
    assert fills == {"#cc2222", "#2255cc"}


def test_svg_stroke_widths_follow_area_power():
    alpha = 0.5
    root = ET.fromstring(render_svg([star_tree()], alpha=alpha, stroke_scale=6.0))
    widths = sorted(
        float(el.get("stroke-width")) for el in root.iter() if el.tag.endswith("line")
    )
    thick = 6.0
    thin = 6.0 * (1.0 / 3.0) ** alpha
    assert widths[1] == pytest.approx(thick, abs=1e-3)
    assert widths[0] == pytest.approx(thin, abs=1e-3)


def test_svg_source_dot_is_larger():
    root = ET.fromstring(render_svg([star_tree()], point_radius=3.0))
    radii = {c.get("fill"): float(c.get("r")) for c in root.iter() if c.tag.endswith("circle")}
    assert radii["#cc2222"] == pytest.approx(4.8, abs=1e-9)
    assert radii["#2255cc"] == pytest.approx(3.0, abs=1e-9)


def test_svg_deterministic():
    trees = [star_tree()]
    assert render_svg(trees) == render_svg(trees)


def test_svg_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        render_svg(["nope"])
    # a broken tree never reaches render_svg: constructing it raises
    with pytest.raises(StructuralError) as excinfo:
        FlowTree([[0.0, 0.0], [1.0, 0.0]], ["source", "target"], [-1, 0], [1.0, 0.5])
    assert [v.kind for v in excinfo.value.report.violations] == ["conservation"]
    with pytest.raises(ParameterError):
        render_svg([star_tree()], alpha=2.0)


def test_svg_sphere_tree_uses_lon_lat_axes():
    text = render_svg([geo_edge_tree()])
    assert ET.fromstring(text) is not None


# ---------------------------------------------------------------------------
# GeoJSON


def test_geojson_empty():
    doc = json.loads(render_geojson([]))
    assert doc == {"type": "FeatureCollection", "features": []}


def test_geojson_planar_single_edge():
    tree = FlowTree([[0.0, 0.0], [1.0, 1.0]], ["source", "target"], [-1, 0], [1.0, 1.0])
    doc = json.loads(render_geojson([tree]))
    assert len(doc["features"]) == 1
    feat = doc["features"][0]
    assert feat["geometry"]["type"] == "LineString"
    assert feat["geometry"]["coordinates"] == [[0.0, 0.0], [1.0, 1.0]]
    assert feat["properties"] == {"area": 1.0, "level": 0}


def test_geojson_feature_count_is_total_edges():
    rng = substream(1, "render")
    problems = [
        OneToManyProblem(np.zeros(2), rng.uniform(-1, 1, (n, 2)), np.full(n, 1.0 / n))
        for n in (5, 9)
    ]
    trees = [build_one_to_many(p, BotParams(alpha=0.5)).tree for p in problems]
    doc = json.loads(render_geojson(trees))
    total_edges = sum(int((t.parent >= 0).sum()) for t in trees)
    assert len(doc["features"]) == total_edges
    assert {f["properties"]["level"] for f in doc["features"]} == {0, 1}


def test_geojson_levels_tags():
    tree = FlowTree([[0.0, 0.0], [1.0, 1.0]], ["source", "target"], [-1, 0], [1.0, 1.0])
    doc = json.loads(render_geojson([tree, tree], levels=["global", "country"]))
    assert [f["properties"]["level"] for f in doc["features"]] == ["global", "country"]
    with pytest.raises(ParameterError):
        render_geojson([tree], levels=["a", "b"])


def test_geojson_subdivides_great_circle_edges():
    tree = geo_edge_tree(lon_span=10.0)
    doc = json.loads(render_geojson([tree]))
    coords = doc["features"][0]["geometry"]["coordinates"]

    arc_km = EARTH_RADIUS_KM * math.radians(10.0)
    expected_segments = math.ceil(arc_km / 100.0)
    assert len(coords) == expected_segments + 1

    assert coords[0][0] == pytest.approx(0.0, abs=1e-9)
    assert coords[-1][0] == pytest.approx(10.0, abs=1e-9)
    assert all(abs(lat) < 1e-9 for _, lat in coords)

    # consecutive points no farther apart than the segment cap
    for (lon1, lat1), (lon2, lat2) in zip(coords, coords[1:]):
        u = geo_embed(lat1, lon1)
        v = geo_embed(lat2, lon2)
        gap = EARTH_RADIUS_KM * math.acos(float(np.clip(np.dot(u, v), -1, 1)))
        assert gap <= 100.0 + 1e-6


def test_geojson_short_edge_single_segment():
    tree = geo_edge_tree(lon_span=0.5)  # about 56 km
    doc = json.loads(render_geojson([tree]))
    assert len(doc["features"][0]["geometry"]["coordinates"]) == 2


def test_svg_numbers_formatted_compactly():
    text = render_svg([star_tree()])
    for token in re.findall(r'x1="([0-9.]+)"', text):
        assert re.fullmatch(r"\d+\.\d{3}", token)
