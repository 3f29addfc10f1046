"""SVG and GeoJSON emission."""

import hashlib
import json
import logging
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchflow import (
    BotParams,
    FlowTree,
    OneToManyProblem,
    ParameterError,
    StructuralError,
    TransportInstance,
    build_one_to_many,
    geo_embed,
    geo_project,
    load_cities_csv,
    render_geojson,
    render_svg,
    sample_cities_path,
    santa_pipeline,
    solve_network,
    to_sphere,
)
from branchflow.pipeline import EARTH_RADIUS_KM, _lon_lat_rows
from branchflow.render import _great_circle_arcs
from branchflow.seeding import substream

from oracles import per_point_arc_points, per_point_geo_project


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
    root = ET.fromstring(render_svg([star_tree()], alpha=alpha))
    widths = sorted(
        float(el.get("stroke-width")) for el in root.iter() if el.tag.endswith("line")
    )
    thick = 6.0
    thin = 6.0 * (1.0 / 3.0) ** alpha
    assert widths[1] == pytest.approx(thick, abs=1e-3)
    assert widths[0] == pytest.approx(thin, abs=1e-3)


def test_svg_source_dot_is_larger():
    root = ET.fromstring(render_svg([star_tree()]))
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


# ---------------------------------------------------------------------------
# pinned output bytes


def sphere_edge_case_tree():
    """A sphere tree whose edges hit every special case of the arc sampler.

    Edge 0->1 has zero length (omega < 1e-12), 0->2 crosses the
    antimeridian, 3->4 runs through the north pole with a sample point
    at its middle, 0->5 ends at a node scaled off the sphere, and 0->6
    and 0->7 end on the antimeridian with y = +0.0 and y = -0.0.
    """
    coords = [
        geo_embed(20.0, 175.0),
        geo_embed(20.0, 175.0),
        geo_embed(25.0, -170.0),
        geo_embed(82.0, 0.0),
        geo_embed(82.0, 180.0),
        2.5 * geo_embed(-30.0, 40.0),
        [-1.0, 0.0, 0.0],
        [-1.0, -0.0, 0.0],
        geo_embed(-90.0, 0.0),
    ]
    return FlowTree(
        coords=coords,
        kind=["source", "branch", "target", "branch", "target",
              "target", "target", "target", "target"],
        parent=[-1, 0, 1, 0, 3, 0, 0, 0, 3],
        area=[7.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 2.0],
    )


def pinned_forest(name):
    """(trees, levels) of one pinned render case."""
    if name == "santa-sample":
        cities = load_cities_csv(sample_cities_path()).cities
        network = santa_pipeline(cities, params=BotParams(alpha=0.5, seed=0))
        entries = list(network.all_trees())
        return [tree for _, _, tree in entries], [level for level, _, _ in entries]
    if name == "planar-forest":
        rng = substream(5, "render", "pinned")
        inst = TransportInstance(
            rng.uniform(-1.0, 1.0, (6, 2)), rng.uniform(-1.0, 1.0, (120, 2)),
            np.full(6, 1.0 / 6), np.full(120, 1.0 / 120),
        )
        trees = list(solve_network(inst, BotParams(alpha=0.5)).trees)
        return trees, None
    assert name == "sphere-edge-cases"
    return [sphere_edge_case_tree(), geo_edge_tree(170.0)], ["a", "b"]


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, fmt, digest", [
    ("santa-sample", "geojson", "e9efb88d93b9e695da88a2a990aaf728ab107e3dd486c40a7b77d716ce54958d"),
    ("santa-sample", "svg", "c7772c14e3c5a2075948812927eaab44e8ad4fa428686818833b47028dc81c39"),
    ("planar-forest", "geojson", "6aa14780bce061517c05e73a216feea4ddda39fe5f3969edba461eb28525c43e"),
    ("planar-forest", "svg", "f7b1a7f37524670159c1457b7610890a7cafa4d5d08a502547b9d3c72e2cb2a6"),
    ("sphere-edge-cases", "geojson", "ff78b8613d5c62873479345b0ae745d3e1b6c88a489255e1ec73ee8324cb062c"),
    ("sphere-edge-cases", "svg", "bbb747eba587cd1fb0eaa433f42592e09512f613eea9661f67821aa1c3d737dd"),
])
def test_render_bytes_are_pinned(name, fmt, digest):
    """GeoJSON and SVG bytes of fixed forests, taken from the per-point projection."""
    trees, levels = pinned_forest(name)
    text = render_geojson(trees, levels) if fmt == "geojson" else render_svg(trees)
    assert sha256(text) == digest


# ---------------------------------------------------------------------------
# the batched projection against the per-point path


def bits(values):
    """Float bit patterns, so that 0.0 and -0.0 tell apart."""
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def sphere_points(draw):
    """(n, 3) points: random directions, poles, lon +-180, axes; many off the sphere."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["normal", "lat-lon", "special"]))
    if layout == "normal":
        pts = rng.normal(size=(n, 3))
    elif layout == "lat-lon":
        lat = rng.choice([-90.0, 90.0, 0.0, 45.0], n)
        lat = np.where(rng.random(n) < 0.5, lat, rng.uniform(-90.0, 90.0, n))
        lon = rng.choice([-180.0, 180.0, 0.0, -90.0], n)
        lon = np.where(rng.random(n) < 0.5, lon, rng.uniform(-180.0, 180.0, n))
        pts = geo_embed(lat, lon).reshape(n, 3)
    else:
        specials = np.array([
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0],
            [-1.0, 1e-300, 0.0], [-1.0, -1e-300, 0.0], [1e-17, 0.0, 1.0], [0.0, -1e-17, -1.0],
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, 4.0, 12.0],
        ])
        pts = specials[rng.integers(0, len(specials), n)]
    scale = draw(st.sampled_from(["unit", "scaled"]))
    if scale == "scaled":
        pts = pts * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return pts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sphere_points())
def test_batched_projection_matches_per_point_bitwise(pts):
    expected = [per_point_geo_project(p) for p in pts]
    rows = _lon_lat_rows(pts)
    assert np.array_equal(bits(rows), bits([[lon, lat] for lat, lon in expected]))
    for p, (lat, lon) in zip(pts, expected):
        assert np.array_equal(bits(geo_project(p)), bits([lat, lon]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sphere_points(), st.integers(0, 2**32 - 1))
def test_batched_arcs_match_per_edge_arcs_bitwise(pts, seed):
    """Each edge keeps its point count and its [lon, lat] bits, zero-length
    edges, antipodes and rescaled copies of one direction included."""
    rng = np.random.default_rng(seed)
    n = len(pts)
    u = pts[rng.integers(0, n, 2 * n)]
    v = pts[rng.integers(0, n, 2 * n)]
    v[::4] = u[::4] * rng.choice([1.0, 2.5, 1e-3, -1.0], (len(u[::4]), 1))
    try:
        expected = [per_point_arc_points(a, b) for a, b in zip(u, v)]
    except ParameterError:
        with pytest.raises(ParameterError):
            _great_circle_arcs(u, v)
        return
    arcs = _great_circle_arcs(u, v)
    assert [len(arc) for arc in arcs] == [len(arc) for arc in expected]
    for arc, ref in zip(arcs, expected):
        assert np.array_equal(bits(arc), bits(ref))


def test_projection_rejects_the_sphere_center():
    center = FlowTree(
        coords=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )
    for render in (render_geojson, render_svg):
        with pytest.raises(ParameterError, match="cannot project the sphere center"):
            render([center])
    with pytest.raises(ParameterError, match="cannot project the sphere center"):
        geo_project([0.0, 0.0, 0.0])


def test_projection_rejects_overflowing_norms():
    # the squared norms overflow to inf; 1/inf used to project to lat 0, lon -0.0
    huge = FlowTree(
        coords=[[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )
    with np.errstate(over="ignore"):
        for project in (render_geojson, render_svg):
            with pytest.raises(ParameterError, match="too large"):
                project([huge])
        with pytest.raises(ParameterError, match="too large"):
            geo_project([1e200, 0.0, 0.0])
        with pytest.raises(ParameterError, match="too large"):
            to_sphere([[1e200, 0.0, 0.0]])


@pytest.mark.parametrize("tiny", [1e-200, 1e-170, 5e-324])
def test_projection_rescales_tiny_coordinates(tiny):
    # the squared norm underflows to 0, yet the point has a direction
    assert geo_project([tiny, 0.0, 0.0]) == (0.0, 0.0)
    assert geo_project([0.0, 0.0, -tiny]) == (-90.0, 0.0)
    lat, lon = geo_project([tiny, tiny, 0.0])
    assert lat == 0.0 and lon == pytest.approx(45.0, abs=1e-12)
    assert to_sphere([[tiny, 0.0, 0.0]]).tolist() == [[1.0, 0.0, 0.0]]
    rows = to_sphere([[0.0, 3.0, 4.0], [0.0, -tiny, 0.0]])
    assert rows.tolist() == [[0.0, 0.6, 0.8], [0.0, -1.0, 0.0]]

    def edge(scale):
        return FlowTree(
            coords=[[scale, 0.0, 0.0], [0.0, scale, 0.0]],
            kind=["source", "target"],
            parent=[-1, 0],
            area=[1.0, 1.0],
        )

    assert render_svg([edge(tiny)]) == render_svg([edge(1.0)])
    assert render_geojson([edge(tiny)]) == render_geojson([edge(1.0)])
    # no direction at all still raises
    with pytest.raises(ParameterError, match="cannot project the sphere center"):
        to_sphere([[tiny, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ParameterError, match="cannot project the sphere center"):
        geo_project([-0.0, 0.0, 0.0])


def test_geojson_logs_point_counts(caplog):
    with caplog.at_level(logging.DEBUG, logger="branchflow.render"):
        render_geojson([geo_edge_tree(10.0), star_tree()])
        render_geojson([])
    assert [r.getMessage() for r in caplog.records] == [
        "render_geojson: 2 trees, 3 edges, 17 arc points",
        "render_geojson: 0 trees, 0 edges, 0 arc points",
    ]


def test_geojson_rejects_arcs_between_huge_points():
    # the squared norms overflow, so the arc angle would be inf / inf
    huge = FlowTree(
        coords=[[1e200, 1e200, 0.0], [1e200, 1e200, 1.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ParameterError, match="too large"):
            render_geojson([huge])
