"""Network JSON round-tripping, longitude handling, and the cities loader."""

import csv
import importlib.util
import io
import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchflow import (
    BotParams,
    CityTable,
    FlowTree,
    InputError,
    ParameterError,
    StructuralError,
    build_forest,
    build_one_to_many,
    load_cities_csv,
    network_from_json,
    network_to_json,
    render_svg,
    sample_cities_path,
    santa_pipeline,
)
from branchflow.core import TransportInstance, TransportPlan
from branchflow.io import _CITY_ALIASES, _BLOCK, _CITY_BLOCK, normalize_lon, plan_to_json
from branchflow.ot import SinkhornConfig, cost_matrix, plan_cost, solve_exact, solve_sinkhorn
from branchflow.pipeline import geo_embed, synthetic_instance, synthetic_problem

from oracles import dict_plan_json, per_node_network_json, per_row_load_cities


def single_edge_tree():
    return FlowTree(
        coords=[[0.0, 0.0], [3.0, 4.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[1.0, 1.0],
    )


def y_tree():
    return FlowTree(
        coords=[[0.0, 0.0], [1.0, 0.2], [1.0, -0.2], [0.5, 0.0]],
        kind=["source", "target", "target", "branch"],
        parent=[-1, 3, 3, 0],
        area=[1.0, 0.5, 0.5, 1.0],
    )


# ---------------------------------------------------------------------------
# network JSON


def test_network_json_exact_bytes():
    text = network_to_json(single_edge_tree(), 0.5, cost=5.0)
    assert text == (
        '{"nodes":['
        '{"id":0,"kind":"source","coords":[0.0,0.0]},'
        '{"id":1,"kind":"target","coords":[3.0,4.0]}'
        '],"edges":[{"from":0,"to":1,"area":1.0}],'
        '"alpha":0.5,"cost":5.0}'
    )


def test_network_json_roundtrip_bitwise():
    tree = y_tree()
    doc = network_from_json(network_to_json(tree, 0.25, cost=1.5))
    assert np.array_equal(doc.tree.coords, tree.coords)
    assert np.array_equal(doc.tree.kind, tree.kind)
    assert np.array_equal(doc.tree.parent, tree.parent)
    assert np.array_equal(doc.tree.area, tree.area)
    assert doc.alpha == 0.25
    assert doc.cost == 1.5


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
       alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
       formula=st.sampled_from(["interp", "power"]), n=st.integers(1, 60))
def test_network_json_roundtrip_of_built_trees(seed, d, alpha, formula, n):
    # the builder and the parser sum the source's outflow the same way, so
    # every array comes back bit for bit, the source area included
    problems = [synthetic_problem(seed, n, d), synthetic_problem(seed + 1, n // 2 + 1, d)]
    params = BotParams(alpha=alpha, formula=formula, seed=seed)
    for result in build_forest(problems, [params, params]):
        text = network_to_json(result.tree, alpha)
        doc = network_from_json(text)
        for name in ("coords", "kind", "parent", "area"):
            got, want = getattr(doc.tree, name), getattr(result.tree, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert network_to_json(doc.tree, doc.alpha, doc.cost) == text


def test_network_json_edges_sorted_by_head():
    text = network_to_json(y_tree(), 0.5)
    payload = json.loads(text)
    heads = [e["to"] for e in payload["edges"]]
    assert heads == sorted(heads)
    ids = [n["id"] for n in payload["nodes"]]
    assert ids == sorted(ids)


def test_network_json_default_cost_is_computed():
    payload = json.loads(network_to_json(single_edge_tree(), 0.5))
    assert payload["cost"] == 5.0  # unit area, 3-4-5 edge


def test_network_json_rejects_invalid_tree():
    # a broken tree never reaches network_to_json: constructing it raises
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0]],
            kind=["source", "target"],
            parent=[-1, 0],
            area=[1.0, 0.5],
        )
    (bad,) = excinfo.value.report.violations
    assert (bad.kind, bad.nodes, bad.residual) == ("conservation", (0,), 0.5)


def huge_edge_tree():
    # a valid tree whose edge length overflows: its squared length is beyond the float range
    return FlowTree(coords=[[0.0, 0.0], [1e200, 1e200]], kind=["source", "target"],
                    parent=[-1, 0], area=[1.0, 1.0])


@pytest.mark.parametrize("tree, alpha, cost", [
    (single_edge_tree, 5.0, 1.0), (single_edge_tree, math.nan, 1.0),
    (single_edge_tree, 0.5, math.nan), (single_edge_tree, 0.5, math.inf),
    (single_edge_tree, 0.5, -math.inf), (huge_edge_tree, 0.5, None),
])
def test_network_json_rejects_what_the_reader_rejects(tree, alpha, cost):
    # an alpha outside [0, 1] and a NaN or infinite cost would make a
    # document that network_from_json refuses, or that is not JSON at all;
    # an edge length beyond the float range gives no numpy overflow warning
    with pytest.raises(ParameterError):
        network_to_json(tree(), alpha, cost)


@pytest.mark.parametrize("block", [1, 2, 3, _BLOCK])
def test_json_bytes_do_not_depend_on_the_row_block(monkeypatch, block):
    trees = [build_one_to_many(synthetic_problem(seed, n, d), BotParams(alpha=0.5)).tree
             for seed, n, d in [(4, 1, 2), (5, 9, 2), (6, 1, 3), (7, 8, 3)]]
    inst = synthetic_instance(8, 3, 7)
    c = cost_matrix(inst)
    plans = [solve_exact(inst, c), solve_sinkhorn(inst, c, SinkhornConfig(reg=0.05)).plan]
    assert np.all(plans[1].gamma > 0)   # Sinkhorn rows are dense
    cities = load_cities_csv(sample_cities_path()).cities
    cities = CityTable(**{field: column[:40] for field, column in vars(cities).items()})
    sphere = [tree for _, _, tree in santa_pipeline(cities, params=BotParams(seed=0)).all_trees()]
    forests = [[tree for tree in trees if tree.dim == 2], sphere]
    svgs = [render_svg(forest, alpha=0.5) for forest in forests]   # at the default block
    for module in ("io", "render", "pipeline"):
        monkeypatch.setattr(f"branchflow.{module}._BLOCK", block)
    for tree in trees:
        assert network_to_json(tree, 0.5) == per_node_network_json(tree, 0.5)
    for plan in plans:
        assert plan_to_json(inst, plan, plan_cost(plan, c)) == dict_plan_json(inst, plan)
    for forest, svg in zip(forests, svgs):
        assert render_svg(forest, alpha=0.5) == svg


def test_network_json_peak_memory_stays_within_four_times_the_text():
    # per block of rows the writer holds only that block's Python objects;
    # the rest of the peak is the block strings and the text they join into
    tree = build_one_to_many(synthetic_problem(0, 4000), BotParams(alpha=0.5)).tree
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = network_to_json(tree, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text), (peak, len(text))


TWO_NODES = (
    '{"nodes":[{"id":0,"kind":"source","coords":[0.0,0.0]},'
    '{"id":1,"kind":"target","coords":[1.0,0.0]}],'
    '"edges":[{"from":0,"to":1,"area":1.0}],"alpha":0.5,"cost":null}'
)
HUGE_INT = "1" + "0" * 400   # a JSON integer too large for a float


def two_nodes(old, new):
    assert old in TWO_NODES
    return TWO_NODES.replace(old, new, 1)


# each malformed document and the exact message it raises
MALFORMED = {
    "not json at all": "not valid JSON: Expecting value: line 1 column 1 (char 0)",
    "[]": "network document must be a JSON object",
    '{"nodes":[],"edges":[],"alpha":0.5,"cost":null}': "nodes must be a nonempty array",
    '{"edges":[],"alpha":0.5}': "network document is missing the 'nodes' field",
    '{"nodes":[{"id":true,"kind":"source","coords":[0.0]}],"edges":[],"alpha":0.5,"cost":null}':
        "node ids must cover 0..0, got True",
    '{"nodes":[{"id":0,"kind":"river","coords":[0.0]}],"edges":[],"alpha":0.5,"cost":null}':
        "node 0 has unknown kind 'river'",
    '{"nodes":[{"id":0,"kind":"source","coords":[0.0,0.0]},'
    '{"id":0,"kind":"target","coords":[1.0,0.0]}],'
    '"edges":[{"from":0,"to":0,"area":1.0}],"alpha":0.5,"cost":null}': "duplicate node id 0",
    two_nodes('"alpha":0.5', '"alpha":7'): "alpha must lie in [0, 1], got 7.0",
    two_nodes('"cost":null', '"cost":"five"'): "cost must be a finite number",
    two_nodes("[0.0,0.0]", "[true,0.0]"): "node 0 has a non-finite coordinate",
    two_nodes("[1.0,0.0]", "[1.0,NaN]"): "node 1 has a non-finite coordinate",
    two_nodes("[1.0,0.0]", "[-Infinity,0.0]"): "node 1 has a non-finite coordinate",
    two_nodes('"area":1.0', '"area":NaN'): "edge into 1 needs a finite area",
    two_nodes('"area":1.0', '"area":Infinity'): "edge into 1 needs a finite area",
    two_nodes("[1.0,0.0]", "[1.0,0.0,0.0]"): "all nodes must share one dimension",
    two_nodes('{"id":1,"kind":"target","coords":[1.0,0.0]}', "[1,1.0,0.0]"):
        "each node must be an object",
    two_nodes('{"from":0,"to":1,"area":1.0}', "[0,1,1.0]"): "each edge must be an object",
    two_nodes(',"area":1.0', ""): "edge into 1 needs a finite area",
    two_nodes('[{"from":0,"to":1,"area":1.0}]', '{"from":0,"to":1,"area":1.0}'):
        "edges must be an array",
    two_nodes('"from":0', '"from":2'): "edge 'from' must be a node id, got 2",
    two_nodes('"to":1', '"to":"1"'): "edge 'to' must be a node id, got '1'",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_network_json_malformed_is_input_error(text):
    with pytest.raises(InputError, match=f"^{re.escape(MALFORMED[text])}$"):
        network_from_json(text)


@pytest.mark.parametrize("old, new, message", [
    ("[1.0,0.0]", f"[{HUGE_INT},0.0]", "node 1 has a non-finite coordinate"),
    ('"area":1.0', f'"area":{HUGE_INT}', "edge into 1 needs a finite area"),
    ('"alpha":0.5', f'"alpha":{HUGE_INT}', "alpha must be a finite number"),
    ('"cost":null', f'"cost":-{HUGE_INT}', "cost must be a finite number"),
], ids=["coords", "area", "alpha", "cost"])
def test_network_json_huge_integer_is_input_error(old, new, message):
    # float(int) overflows past 1.8e308; that is a malformed number, not a crash
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        network_from_json(two_nodes(old, new))


def test_network_json_negative_area_is_structural_error():
    text = (
        '{"nodes":[{"id":0,"kind":"source","coords":[0.0,0.0]},'
        '{"id":1,"kind":"target","coords":[1.0,0.0]}],'
        '"edges":[{"from":0,"to":1,"area":-1.0}],"alpha":0.5,"cost":null}'
    )
    with pytest.raises(StructuralError):
        network_from_json(text)


def test_network_json_null_cost_parses_as_none():
    text = (
        '{"nodes":[{"id":0,"kind":"source","coords":[0.0,0.0]},'
        '{"id":1,"kind":"target","coords":[1.0,0.0]}],'
        '"edges":[{"from":0,"to":1,"area":1.0}],"alpha":0.5,"cost":null}'
    )
    doc = network_from_json(text)
    assert doc.cost is None
    assert doc.alpha == 0.5


def test_network_json_double_parent_is_structural_error():
    text = (
        '{"nodes":[{"id":0,"kind":"source","coords":[0.0,0.0]},'
        '{"id":1,"kind":"branch","coords":[0.5,0.0]},'
        '{"id":2,"kind":"target","coords":[1.0,0.0]}],'
        '"edges":[{"from":0,"to":2,"area":1.0},{"from":1,"to":2,"area":1.0}],'
        '"alpha":0.5,"cost":null}'
    )
    with pytest.raises(StructuralError):
        network_from_json(text)


def test_plan_to_json_direct_edges():
    inst = TransportInstance(
        [[0.0, 0.0], [2.0, 0.0]],
        [[0.0, 1.0], [2.0, 1.0]],
        [0.3, 0.7],
        [0.6, 0.4],
    )
    plan = TransportPlan([[0.3, 0.0], [0.3, 0.4]], [0.3, 0.7], [0.6, 0.4])
    payload = json.loads(plan_to_json(inst, plan, plan_cost(plan, cost_matrix(inst))))
    assert len(payload["edges"]) == 3
    areas = sorted(e["area"] for e in payload["edges"])
    assert areas == [0.3, 0.3, 0.4]


# ---------------------------------------------------------------------------
# longitude


def test_normalize_lon_wrapping():
    assert normalize_lon(0.0) == 0.0
    assert normalize_lon(180.0) == 180.0
    assert normalize_lon(-180.0) == 180.0
    assert normalize_lon(181.0) == -179.0
    assert normalize_lon(540.0) == 180.0
    assert normalize_lon(-200.0) == 160.0


# ---------------------------------------------------------------------------
# cities CSV


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_well_formed(tmp_path):
    path = write(
        tmp_path,
        "ok.csv",
        "city,country,lat,lng,population\n"
        "A,X,10.0,20.0,1000\n"
        "B,X,-5.0,30.0,2000\n"
        "C,Y,40.0,-70.0,500\n",
    )
    report = load_cities_csv(path)
    assert len(report.cities) == 3
    assert report.n_rows == 3
    assert report.n_dropped == 0
    assert report.cities.name == ("A", "B", "C")
    assert report.cities.country == ("X", "X", "Y")
    assert report.cities.lat == (10.0, -5.0, 40.0)
    assert report.cities.lon == (20.0, 30.0, -70.0)
    assert report.cities.population == (1000.0, 2000.0, 500.0)
    assert "3 cities" in report.summary()


def test_load_drop_reasons(tmp_path):
    path = write(
        tmp_path,
        "bad.csv",
        "city,country,lat,lng,population\n"
        "A,X,10.0,20.0,\n"
        "B,X,91.0,30.0,100\n"
        "C,X,zap,30.0,100\n"
        "D,X,0.0,30.0,-3\n"
        "E,X,1.0,2.0,50\n",
    )
    report = load_cities_csv(path)
    assert len(report.cities) == 1
    assert report.dropped == {
        "missing-population": 1,
        "latitude-out-of-range": 1,
        "unparsable-number": 1,
        "nonpositive-population": 1,
    }
    assert report.n_dropped == 4


@pytest.mark.parametrize("lat", [-90.0, 90.0, -0.0, -90.5, 90.000001, 1e300,
                                 float("inf"), float("-inf"), float("nan")])
def test_latitude_rule_is_the_same_for_every_caller(tmp_path, lat):
    # the loader, santa_pipeline and geo_embed accept exactly the latitudes in [-90, 90]
    ok = -90.0 <= lat <= 90.0
    report = load_cities_csv(write(tmp_path, "c.csv", f"city,country,lat,lng,population\n"
                                                      f"A,X,{lat!r},20.0,100\n"))
    table = CityTable(("A",), ("X",), (lat,), (20.0,), (100.0,))
    if ok:
        assert report.dropped == {} and report.cities.lat == (lat,)
        assert santa_pipeline(table).countries == ("X",)
        assert geo_embed([0.0, lat], [0.0, 20.0]).shape == (2, 3)
        return
    reason = "latitude-out-of-range" if np.isfinite(lat) else "unparsable-number"
    assert report.dropped == {reason: 1}
    message = f"latitude must lie in [-90, 90], got {lat}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        santa_pipeline(table)
    with pytest.raises(ParameterError, match=re.escape(message)):
        geo_embed([0.0, lat], [0.0, 20.0])


def test_load_aliases_case_and_extras(tmp_path):
    path = write(
        tmp_path,
        "alias.csv",
        "Name,Country,Latitude,Lon,Pop,Elevation\n"
        "A,X,10.0,200.0,1000,123\n",
    )
    report = load_cities_csv(path)
    assert len(report.cities) == 1
    assert report.cities.lon == (-160.0,)  # normalized, not dropped


def test_load_missing_column_diagnostics(tmp_path):
    path = write(tmp_path, "cols.csv", "city,country,lat,population\nA,X,1,2\n")
    with pytest.raises(InputError, match="lng"):
        load_cities_csv(path)


def test_load_skips_utf8_bom(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a byte order mark
    text = "city,country,lat,lng,population\nA,X,10.0,20.0,1000\n"
    plain = write(tmp_path, "plain.csv", text)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    report = load_cities_csv(bom)
    assert len(report.cities) == 1
    assert report == load_cities_csv(plain)


def test_load_short_rows_counted(tmp_path):
    path = write(
        tmp_path,
        "short.csv",
        "city,country,lat,lng,population\nA,X\nB,X,1.0,2.0,3\n",
    )
    report = load_cities_csv(path)
    assert len(report.cities) == 1
    assert report.dropped == {"short-row": 1}


def test_load_unreadable_path(tmp_path):
    with pytest.raises(InputError):
        load_cities_csv(tmp_path / "nope.csv")


# field texts that sit on the edge of a drop rule, or of float()'s text rules
_EDGE_NUMBERS = ["", " ", "\t", "nan", "-inf", "inf", "1_000", "\u0661\u0662", "0x10", "zap",
                 " 12.5 ", "-0.0", "90", "-90", "90.000001", "-90.000001", "0", "-3",
                 "540", "-180", "1e400"]
_numbers = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats(-100.0, 100.0).map(repr),
                     st.floats().map(repr), st.integers(-10**6, 10**6).map(str))
_texts = st.one_of(st.sampled_from(["A", "b c", "Z\u00fcrich"]),
                   st.text(alphabet='aZ \u00e9,"\n', max_size=4))


@st.composite
def cities_csv_bytes(draw):
    """A cities CSV with random header aliases, case, extra columns and
    column order, and rows that are blank, short or full, with or without a BOM."""
    header = [draw(st.sampled_from(aliases)) for aliases in _CITY_ALIASES.values()]
    header = [draw(st.sampled_from([h, h.upper(), f" {h.title()} "])) for h in header]
    header += [f"extra{i}" for i in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(header))))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([header[i] for i in order])
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(_texts), draw(_texts), draw(_numbers), draw(_numbers), draw(_numbers)]
        row += [draw(_texts) for _ in header[5:]]
        row = [row[i] for i in order]
        writer.writerow(row[:draw(st.one_of(st.just(len(row)), st.integers(0, len(row))))])
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + out.getvalue().encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=cities_csv_bytes(), block=st.sampled_from([1, 2, 3, _CITY_BLOCK]))
def test_load_matches_the_per_row_reference(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("cities") / "c.csv"
    path.write_bytes(data)
    with mock.patch("branchflow.io._CITY_BLOCK", block):
        got = load_cities_csv(path)
    want = per_row_load_cities(path)
    assert (got.n_rows, got.dropped, got.summary()) == (want.n_rows, want.dropped, want.summary())
    assert got.cities.name == want.cities.name
    assert got.cities.country == want.cities.country
    for column in ("lat", "lon", "population"):
        # repr tells -0.0 from 0.0 and a numpy float from a Python one
        assert list(map(repr, getattr(got.cities, column))) == \
            list(map(repr, getattr(want.cities, column)))


def test_bundled_sample_dataset():
    path = sample_cities_path()
    report = load_cities_csv(path)
    assert len(report.cities) == 1000
    assert report.n_dropped == 0
    assert len(set(report.cities.country)) == 20
    assert min(report.cities.population) > 0


def load_sample_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_sample_cities.py"
    spec = importlib.util.spec_from_file_location("make_sample_cities", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sample_tool_defaults_rewrite_bundled_sample(tmp_path):
    tool = load_sample_tool()
    out = tmp_path / "cities.csv"
    assert tool.main(["--out", str(out)]) == 0
    assert out.read_bytes() == sample_cities_path().read_bytes()


def test_sample_tool_writes_any_size_and_rejects_too_few(tmp_path):
    tool = load_sample_tool()
    out = tmp_path / "big" / "cities.csv"
    assert tool.main(["--n-cities", "2500", "--out", str(out)]) == 0
    report = load_cities_csv(out)
    assert len(report.cities) == 2500
    assert report.n_dropped == 0
    assert len(set(report.cities.country)) == 20
    with pytest.raises(SystemExit) as exc:
        tool.main(["--n-cities", "59", "--out", str(tmp_path / "small.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "small.csv").exists()
