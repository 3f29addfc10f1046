"""SVG and GeoJSON emission."""

import hashlib
import json
import logging
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    network_to_json,
    render_geojson,
    render_svg,
    sample_cities_path,
    santa_pipeline,
    solve_network,
    to_sphere,
)
from branchflow.pipeline import EARTH_RADIUS_KM, _lon_lat_rows
from branchflow.render import _BLOCK, _arc_block, _geojson_chunks, _svg_chunks
from branchflow.seeding import substream

from oracles import (
    dict_geojson,
    full_precision_arc_points,
    per_node_network_json,
    per_point_arc_points,
    per_point_geo_project,
)


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


def sphere_star(rng, n):
    """A source and n targets at random places on the sphere: edges of up to 202 arc points."""
    lat = rng.uniform(-80.0, 80.0, n + 1)
    lon = rng.uniform(-180.0, 180.0, n + 1)
    return FlowTree(geo_embed(lat, lon), ["source"] + ["target"] * n, [-1] + [0] * n,
                    [float(n)] + [1.0] * n)


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


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, [1, math.nan], object()],
                         ids=["nan", "inf", "minus-inf", "nested-nan", "object"])
def test_geojson_rejects_a_level_that_is_not_finite_json(level):
    # NaN and the infinities went out as NaN and Infinity, which are not JSON,
    # and an object raised json's TypeError
    chunks = _geojson_chunks([star_tree(), star_tree()], ["global", level])
    with pytest.raises(ParameterError, match="levels must be finite JSON values"):
        next(chunks)   # before the head, so the CLI opens no file


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
    ("santa-sample", "geojson", "8fe5b30a7494ffb6b09ca52b6635ba27ea3c0b33ad596f86ccf748d7f7809d68"),
    ("santa-sample", "svg", "c7772c14e3c5a2075948812927eaab44e8ad4fa428686818833b47028dc81c39"),
    ("planar-forest", "geojson", "a45f6a54dafb07b442216589e06257d724b01d2d0ad43c65ac601c9f2c1c44cd"),
    ("planar-forest", "svg", "f4d46bda690afb1949483278468104cd31b61ccfa0ce820bf1804f8ad2aced0c"),
    ("sphere-edge-cases", "geojson", "d5e8751653a1092cbcc26c837acb0b2de41daea3a0fc9a4a98f158d8643092b2"),
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
@given(sphere_points(), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, _BLOCK]))
@example(pts=np.array([[-1.0, -1e-300, 0.0], [-1.0, -1e-300, 0.0], [1.0, 0.0, 0.0]]), seed=0,
         block=1)
def test_batched_arcs_match_per_edge_arcs_bitwise(pts, seed, block):
    """Each edge keeps its point count, its interior points their [lon, lat]
    bits and its end points the text of its nodes' own projections,
    zero-length edges, antipodes and rescaled copies of one direction
    included, at any block size."""
    rng = np.random.default_rng(seed)
    n = len(pts)
    u = pts[rng.integers(0, n, 2 * n)]
    v = pts[rng.integers(0, n, 2 * n)]
    v[::4] = u[::4] * rng.choice([1.0, 2.5, 1e-3, -1.0], (len(u[::4]), 1))
    trees = [FlowTree([a, b], ["source", "target"], [-1, 0], [1.0, 1.0]) for a, b in zip(u, v)]
    rows = []

    def arc_block(*args):
        rows.append(_arc_block(*args))
        return rows[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("branchflow.render._BLOCK", block)
        mp.setattr("branchflow.pipeline._BLOCK", block)
        mp.setattr("branchflow.render._arc_block", arc_block)
        expected = [per_point_arc_points(a, b) for a, b in zip(u, v)]
        text = render_geojson(trees)
    assert text == dict_geojson(trees)
    interior = [p for ref in expected for p in ref[1:-1]]
    assert np.array_equal(bits(np.concatenate(rows or [np.empty((0, 2))])),
                          bits(interior).reshape(-1, 2))


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
    # no numpy overflow warning first: the suite makes a RuntimeWarning an error
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


def test_geojson_over_several_arc_blocks_matches_the_reference(monkeypatch):
    """A sphere forest of several arc blocks, with trees across block boundaries."""
    sizes = []

    def arc_block(u, v, omega, n_seg):
        sizes.append(int((n_seg - 1).sum()))
        return _arc_block(u, v, omega, n_seg)

    monkeypatch.setattr("branchflow.render._arc_block", arc_block)
    rng = substream(7, "render", "blocks")
    trees = [sphere_star(rng, 60) for _ in range(8)]
    trees.insert(3, star_tree())
    text = render_geojson(trees)
    assert text == dict_geojson(trees)

    # the arc points of each sphere edge, and the window its first point falls in;
    # the planar tree ends a block of edges, so the windows start again after it
    points = [len(f["geometry"]["coordinates"]) for f in json.loads(text)["features"]]
    per_tree = np.split(points, np.cumsum([t.n_nodes - 1 for t in trees])[:-1])
    groups = [np.concatenate(per_tree[:3]), np.concatenate(per_tree[4:])]
    window = [(np.cumsum(p) - p) // _BLOCK for p in groups]
    windows = [set(w.tolist()) for w in np.split(np.concatenate(window), np.cumsum([60] * 8)[:-1])]
    assert groups[1].sum() > 2 * _BLOCK
    assert sum(len(w) > 1 for w in windows) >= 2   # trees that straddle a window boundary
    interior = [np.bincount(w, p - 2).astype(int).tolist() for w, p in zip(window, groups)]
    assert sizes == [n for counts in interior for n in counts if n]
    assert max(sizes) < _BLOCK + 202


@pytest.mark.parametrize("block", [1, 2, 7, 150])
def test_geojson_bytes_do_not_depend_on_the_arc_block(monkeypatch, block):
    rng = substream(8, "render", "blocks")
    trees = [random_tree(rng) for _ in range(10)] + [sphere_star(rng, 5), star_tree()]
    # levels become part of a % template: their own % signs must come out as written
    levels = list("abcdefghi") + ["50%", "%s", "%%r"]
    expected = dict_geojson(trees, levels)
    assert render_geojson(trees, levels) == expected
    svg = render_svg(trees)
    monkeypatch.setattr("branchflow.render._BLOCK", block)
    monkeypatch.setattr("branchflow.pipeline._BLOCK", block)
    monkeypatch.setattr("branchflow.io._BLOCK", block)
    assert render_geojson(trees, levels) == expected
    assert render_svg(trees) == svg


def near_star(rng, n):
    """A source and n targets within 4 degrees of it: edges of a few arc points."""
    lat = rng.uniform(-60.0, 60.0) + rng.uniform(-4.0, 4.0, n + 1)
    lon = rng.uniform(-180.0, 180.0) + rng.uniform(-4.0, 4.0, n + 1)
    return FlowTree(geo_embed(lat, lon), ["source"] + ["target"] * n, [-1] + [0] * n,
                    [float(n)] + [1.0] * n)


def traced_peak(pieces):
    """Peak traced memory while the pieces are made and dropped one by one."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in pieces:
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_render_peak_memory_grows_only_by_per_edge_and_per_node_arrays(monkeypatch):
    # the Python floats and strings of a block do not grow with the forest.  What
    # may is 8-byte entries: per edge, for GeoJSON, its child index and spares for
    # the per-tree lists; per node, for SVG, its gathered coordinates (3), their
    # [lon, lat] row (2), its x and y (2) and a child index
    monkeypatch.setattr("branchflow.render._BLOCK", 256)
    monkeypatch.setattr("branchflow.pipeline._BLOCK", 256)
    monkeypatch.setattr("branchflow.io._BLOCK", 256)
    rng = substream(9, "render", "memory")
    forest = [near_star(rng, 200) for _ in range(4)]
    nodes = sum(t.n_nodes for t in forest)
    edges = nodes - len(forest)
    geo = [traced_peak(_geojson_chunks(f, None)) for f in (forest, forest * 4)]
    svg = [traced_peak(_svg_chunks(f, 0.5)) for f in (forest, forest * 4)]
    assert min(nodes, edges) > 2 * 256   # every block is full in both forests
    assert geo[1] - geo[0] <= 3 * edges * 4 * 8, geo
    assert svg[1] - svg[0] <= 3 * nodes * 8 * 8, svg


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


def center_tree():
    return FlowTree(
        coords=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )


def overflowing_tree():
    return FlowTree(
        coords=[[0.0, 1.0, 0.0], [1e200, 0.0, 0.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )


@pytest.mark.parametrize("bad", [center_tree, overflowing_tree])
@pytest.mark.parametrize("render", [render_geojson, render_svg])
def test_bad_tree_inside_a_forest_raises_as_when_alone(bad, render):
    good = geo_edge_tree(30.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ParameterError) as alone:
            render([bad()])
        with pytest.raises(ParameterError) as inside:
            render([good, bad(), star_tree(), good])
    assert str(inside.value) == str(alone.value)


# ---------------------------------------------------------------------------
# the writers against the dict-built references


LEVEL_TEXT = ['say "hi"', "Zürich", "東京", "back\\slash", "tab\tnew\nline", "\u2028", ""]
levels_st = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from(LEVEL_TEXT),
    st.text(max_size=6),
    st.dictionaries(
        st.sampled_from(LEVEL_TEXT), st.one_of(st.integers(), st.text(max_size=4), st.floats()),
        max_size=3,
    ),
)


def random_tree(rng, dim=None, tree_scale=False):
    """A valid tree of 2 to 12 nodes, planar or on the sphere (or of
    ``dim``), with zero-length edges and, on the sphere, edges across the
    antimeridian, its nodes scaled off the sphere (all by one factor with
    ``tree_scale``)."""
    n = int(rng.integers(2, 13))
    parent = np.array([-1] + [int(rng.integers(0, i)) for i in range(1, n)])
    leaf = np.ones(n, dtype=bool)
    leaf[parent[1:]] = False
    area = np.where(leaf, rng.uniform(0.01, 3.0, n), 0.0)
    for i in range(n - 1, 0, -1):
        area[parent[i]] += area[i]
    kind = np.where(leaf, "target", "branch")
    kind[0] = "source"
    if (rng.random() < 0.5) if dim is None else dim == 2:
        coords = rng.uniform(-5.0, 5.0, (n, 2))
    else:
        lat = rng.uniform(-89.0, 89.0, n)
        lon = np.where(rng.random(n) < 0.5, rng.choice([179.5, -179.5, 180.0, -180.0], n),
                       rng.uniform(-180.0, 180.0, n))
        coords = geo_embed(lat, lon) * rng.choice([1.0, 1.0, 0.5, 40.0], (1 if tree_scale else n, 1))
    for i in np.flatnonzero(rng.random(n) < 0.2)[1:]:   # zero-length edges
        coords[i] = coords[parent[i]]
    return FlowTree(coords, kind, parent, area)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.data())
def test_writers_match_the_dict_built_references(seed, n_trees, data):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng) for _ in range(n_trees)]
    levels = data.draw(st.one_of(st.none(), st.lists(levels_st, min_size=n_trees,
                                                     max_size=n_trees)))
    assert render_geojson(trees, levels) == dict_geojson(trees, levels)
    alpha = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
    for tree in trees:
        for cost in (None, float(rng.uniform(0.0, 9.0))):
            assert network_to_json(tree, alpha, cost) == per_node_network_json(tree, alpha, cost)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([[2], [3], [2, 3]]), st.integers(1, 6))
def test_geojson_features_share_their_end_point_vertices(seed, dims, n_trees):
    """Each node has one [lon, lat] text, the first or last point of every
    feature that touches it.  Point counts are those of the full-precision
    arcs, and every sphere coordinate lies within 5e-7 degrees (the 6th
    decimal's rounding) of its full-precision value: within a tree all
    nodes have one norm, so both slerps draw one great circle."""
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, dims[i % len(dims)], tree_scale=True) for i in range(n_trees)]
    lines = iter(re.findall(r'"coordinates":\[\[(.*?)\]\]\}', render_geojson(trees)))
    for tree in trees:
        text = {}
        for i in np.flatnonzero(tree.parent >= 0).tolist():
            points = next(lines).split("],[")
            for node, point in ((int(tree.parent[i]), points[0]), (i, points[-1])):
                assert text.setdefault(node, point) == point
            a, b = tree.coords[tree.parent[i]], tree.coords[i]
            if tree.dim == 2:
                assert points == ["%r,%r" % tuple(p) for p in (a.tolist(), b.tolist())]
                continue
            ref = np.array(full_precision_arc_points(a, b))
            got = np.array([p.split(",") for p in points], dtype=float)
            assert got.shape == ref.shape
            gap = np.abs(got - ref)
            gap[:, 0] = np.minimum(gap[:, 0] % 360.0, 360.0 - gap[:, 0] % 360.0)
            assert gap.max() <= 5e-7 + 1e-9
    assert next(lines, None) is None


def test_geojson_slerps_unit_end_points_of_huge_nodes():
    # each node projects, but the slerp of the raw end points overflowed at
    # the arc's middle: the sample point there is about 1e152 / 1e-8
    tree = FlowTree(1e152 * np.array([[1.0, 0.0, 0.0], [-1.0, 1e-8, 0.0]]), ["source", "target"],
                    [-1, 0], [1.0, 1.0])
    text = render_geojson([tree])
    assert text == dict_geojson([tree])
    coords = json.loads(text)["features"][0]["geometry"]["coordinates"]
    assert len(coords) == 202
    assert coords[0] == [0.0, 0.0] and coords[-1] == [179.999999, 0.0]


@pytest.mark.parametrize("u, v", [([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
                                  ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]),
                                  ([0.6, 0.8, 0.0], [-0.6, -0.8, 0.0])],
                         ids=["equator", "poles", "oblique"])
def test_geojson_draws_exactly_antipodal_edges(monkeypatch, u, v):
    # the slerp has no direction: the arc runs from u over the north pole,
    # or from a pole along lon 0
    projected = []

    def lon_lat_rows(points):
        projected.append(np.array(points))
        return _lon_lat_rows(points)

    monkeypatch.setattr("branchflow.render._lon_lat_rows", lon_lat_rows)
    tree = FlowTree([u, v], ["source", "target"], [-1, 0], [1.0, 1.0])
    text = render_geojson([tree])
    assert text == dict_geojson([tree])
    coords = json.loads(text)["features"][0]["geometry"]["coordinates"]
    assert len(coords) == 202
    assert [coords[0], coords[-1]] == [[float("%.6f" % x) for x in geo_project(p)[::-1]]
                                       for p in (u, v)]
    interior = projected[-1]
    assert interior.shape == (200, 3)
    assert np.abs(np.linalg.norm(interior, axis=1) - 1.0).max() < 1e-9
    lon, lat = np.array(coords[1:-1]).T
    if u[2]:
        assert np.all(lon == 0.0)
    else:
        assert lat.max() > 89.0
