"""Two-stage network solving, dual trees, spherical geometry, hierarchy."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import branchflow.core
import branchflow.pipeline
from branchflow import (
    BotParams,
    CityTable,
    InputError,
    OneToManyProblem,
    ParameterError,
    SinkhornConfig,
    TransportInstance,
    TransportPlan,
    bot_cost,
    build_forest,
    build_one_to_many,
    cost_matrix,
    dual_network,
    geo_embed,
    geo_project,
    network_from_json,
    network_to_json,
    plan_cost,
    plan_to_assignments,
    render_svg,
    santa_pipeline,
    solve_exact,
    solve_network,
    solve_sinkhorn,
    subadditivity_gain,
    validate_tree,
    weighted_centroid,
)
from branchflow.branching import (
    branch_point_interp, branch_point_power, branch_point_shifted, local_improvement,
)
from branchflow.clustering import WeightedPointSet, choose_k, weighted_kmeans
from branchflow.ot import transport_simplex
from branchflow.core import as_point
from branchflow.pipeline import (
    DEFAULT_POLE, EARTH_RADIUS_KM, synthetic_instance, synthetic_problem, to_sphere,
)
from branchflow.seeding import substream


def random_instance(seed, m, n):
    rng = substream(seed, "pipe-test")
    xs = rng.uniform(-1.0, 1.0, (m, 2))
    ys = rng.uniform(-1.0, 1.0, (n, 2))
    p = rng.uniform(0.2, 1.0, m)
    q = rng.uniform(0.2, 1.0, n)
    return TransportInstance(xs, ys, p / p.sum(), q / q.sum())


def random_cities(seed, n, countries):
    rng = substream(seed, "cities")
    rows = []
    for i in range(n):
        rows.append((
            f"city{i}",
            countries[i % len(countries)],
            float(rng.uniform(-60, 70)),
            float(rng.uniform(-179, 179)),
            float(rng.lognormal(10, 1)),
        ))
    return CityTable(*zip(*rows))


# ---------------------------------------------------------------------------
# solve_network


def test_single_source_reduces_to_direct_build():
    inst = random_instance(1, 1, 20)
    params = BotParams(alpha=0.4)
    res = solve_network(inst, params)
    assert len(res.trees) == 1
    assert [i for i, _, _ in res.report.per_source] == [0]

    problem = OneToManyProblem(inst.sources[0], inst.targets, inst.q)
    direct = build_one_to_many(problem, params)
    assert np.array_equal(res.trees[0].coords, direct.tree.coords)
    assert np.array_equal(res.trees[0].parent, direct.tree.parent)
    assert np.array_equal(res.trees[0].area, direct.tree.area)


def test_mirror_symmetric_instance_gives_mirror_trees():
    rng = substream(5, "mirror")
    k = 16
    half = rng.uniform(0.3, 1.2, (k, 2)) + np.array([0.2, -0.4])
    targets = np.vstack([half, half * np.array([-1.0, 1.0])])
    q = np.full(2 * k, 1.0 / (2 * k))  # halves sum to exactly 0.5 each
    inst = TransportInstance([[1.0, 0.0], [-1.0, 0.0]], targets, [0.5, 0.5], q)

    res = solve_network(inst, BotParams(alpha=0.5))
    perm = np.concatenate([np.arange(k, 2 * k), np.arange(0, k)])
    assert np.array_equal(res.plan.gamma[0], res.plan.gamma[1][perm])

    t0, t1 = res.trees
    flip = np.array([-1.0, 1.0])
    assert np.array_equal(t1.coords, t0.coords * flip)
    assert np.array_equal(t1.area, t0.area)
    assert np.array_equal(t1.parent, t0.parent)
    assert np.array_equal(t1.kind, t0.kind)


def test_forest_report_is_consistent():
    inst = random_instance(2, 8, 60)
    params = BotParams(alpha=0.25)
    res = solve_network(inst, params)

    assert res.report.ot_mode == "exact"
    assert res.report.threshold == 0.0
    assert res.report.sinkhorn_iterations is None

    sources, stars, bots = zip(*res.report.per_source)
    assert res.report.star_cost == pytest.approx(sum(stars), rel=1e-12)
    assert res.report.bot_cost == pytest.approx(sum(bots), rel=1e-12)
    assert res.report.bot_cost < res.report.star_cost
    assert all(b <= s + 1e-12 for s, b in zip(stars, bots))

    recomputed = sum(bot_cost(t, 0.25) for t in res.trees)
    assert res.report.bot_cost == pytest.approx(recomputed, rel=1e-12)

    for tree, i in zip(res.trees, sources):
        assert validate_tree(tree).ok
        assert np.array_equal(tree.coords[0], inst.sources[i])
        targets = tree.kind == "target"
        assert float(tree.area[targets].sum()) == pytest.approx(float(tree.area[0]), abs=1e-12)

    # every target's full mass is distributed across the forest
    placed = np.zeros(inst.n_targets)
    for tree, i in zip(res.trees, sources):
        for node in np.flatnonzero(tree.kind == "target"):
            j = int(np.argmin(np.linalg.norm(inst.targets - tree.coords[node], axis=1)))
            placed[j] += tree.area[node]
    assert np.allclose(placed, inst.q, atol=1e-9)


def test_sinkhorn_mode_thresholds_and_reports():
    inst = random_instance(3, 4, 30)
    res = solve_network(inst, BotParams(alpha=0.5), ot_mode="sinkhorn")
    assert res.report.ot_mode == "sinkhorn"
    assert res.report.threshold == 1e-8
    assert res.report.sinkhorn_iterations >= 1
    assert res.report.sinkhorn_converged
    for tree in res.trees:
        assert float(tree.area[tree.kind == "target"].min()) > 1e-8

    # a threshold that silences every coupling leaves nothing to build
    with pytest.raises(ParameterError, match="threshold 10.0 drops every plan entry"):
        solve_network(inst, BotParams(alpha=0.5), ot_mode="sinkhorn", threshold=10.0)


def test_solve_network_skips_a_source_with_no_entry_above_the_threshold():
    inst = synthetic_instance(0, 3, 5)
    # the smallest row maximum of the exact plan: source 2 keeps no entry
    res = solve_network(inst, BotParams(alpha=0.25), threshold=0.18136517925028542)
    assert [i for i, _, _ in res.report.per_source] == [0, 1]
    assert [tree.coords[0].tolist() for tree in res.trees] == inst.sources[:2].tolist()


def test_solve_network_rejects_nan_threshold():
    inst = random_instance(3, 4, 30)
    with pytest.raises(ParameterError, match="threshold"):
        solve_network(inst, BotParams(alpha=0.5), threshold=math.nan)


def test_solve_network_rejects_unknown_mode():
    inst = random_instance(4, 2, 5)
    with pytest.raises(ParameterError):
        solve_network(inst, BotParams(), ot_mode="simplex")


# ---------------------------------------------------------------------------
# dual_network


def dual_problem(seed=7, n=40):
    rng = substream(seed, "dual-test")
    targets = rng.uniform(-1.0, 1.0, (n, 2))
    areas = rng.uniform(0.1, 1.0, n)
    return OneToManyProblem(np.zeros(2), targets, areas / areas.sum())


def test_dual_zero_shift_trees_coincide():
    problem = dual_problem()
    artery, vein = dual_network(problem, BotParams(alpha=0.5, shift_norm=0.0))
    assert np.array_equal(artery.coords, vein.coords)
    assert np.array_equal(artery.parent, vein.parent)


def test_dual_shifted_trees_share_leaves_but_not_branches():
    problem = dual_problem()
    params = BotParams(alpha=0.5, shift_norm=0.01, shift_delta=0.01, seed=3)
    artery, vein = dual_network(problem, params)

    for tree in (artery, vein):
        assert validate_tree(tree).ok
        targets = tree.kind == "target"
        assert np.array_equal(tree.coords[targets], problem.targets)
        assert np.array_equal(tree.area[targets], problem.areas)

    a_branch = artery.coords[artery.kind == "branch"]
    v_branch = vein.coords[vein.kind == "branch"]
    if a_branch.shape == v_branch.shape:
        assert float(np.abs(a_branch - v_branch).max()) > 0.0
    # repeatable given the same seed
    artery2, _ = dual_network(problem, params)
    assert np.array_equal(artery2.coords, artery.coords)


def test_each_tree_is_validated_once(monkeypatch):
    """Every node of every tree is checked exactly once, by the builder's
    whole-forest check; serializing and costing a tree check nothing."""
    original = branchflow.core._check_forest
    checked = []

    def recording(kind, parent, area, starts, links=None):
        checked.append(parent)
        return original(kind, parent, area, starts, links)

    monkeypatch.setattr(branchflow.core, "_check_forest", recording)
    result = solve_network(random_instance(4, 3, 30), BotParams(alpha=0.25, seed=4))
    for tree in result.trees:
        network_to_json(tree, 0.25)
        bot_cost(tree, 0.25)
    assert len(result.trees) == 3
    # each tree's nodes lie in one checked forest, and no other node was checked
    assert sum(parent.size for parent in checked) == sum(t.n_nodes for t in result.trees)
    for tree in result.trees:
        assert [np.shares_memory(parent, tree.parent) for parent in checked].count(True) == 1


# ---------------------------------------------------------------------------
# spherical geometry


def test_geo_embed_anchors():
    origin = geo_embed(0.0, 0.0)
    assert origin[0] == 1.0 and origin[1] == 0.0 and origin[2] == 0.0
    pole = geo_embed(90.0, 123.0)
    assert pole[2] == 1.0
    assert abs(pole[0]) < 1e-12 and abs(pole[1]) < 1e-12


def test_geo_embed_rejects_out_of_range():
    with pytest.raises(ParameterError):
        geo_embed(91.0, 0.0)
    with pytest.raises(ParameterError):
        geo_embed(0.0, float("nan"))
    with pytest.raises(ParameterError):
        geo_embed([10.0, -90.5], [0.0, 0.0])
    with pytest.raises(ParameterError):
        geo_embed([10.0, 20.0], [0.0, float("inf")])


def test_geo_embed_arrays_match_scalar_calls_bitwise():
    rng = substream(12, "embed")
    lats = rng.uniform(-90.0, 90.0, 200)
    lons = rng.uniform(-540.0, 540.0, 200)
    xyz = geo_embed(lats, lons)
    assert xyz.shape == (200, 3)
    assert geo_embed(0.0, 0.0).shape == (3,)
    for row, lat, lon in zip(xyz, lats, lons):
        assert np.array_equal(row, geo_embed(lat, lon))


def test_geo_roundtrip_identity():
    rng = substream(11, "roundtrip")
    lats = rng.uniform(-89.9, 89.9, 1000)
    lons = rng.uniform(-179.9, 179.9, 1000)
    worst = 0.0
    for lat, lon in zip(lats, lons):
        lat2, lon2 = geo_project(geo_embed(lat, lon))
        dlon = abs(lon2 - lon)
        dlon = min(dlon, 360.0 - dlon)
        worst = max(worst, abs(lat2 - lat), dlon)
    assert math.radians(worst) < 1e-12


def test_geo_project_normalizes_off_sphere_points():
    lat, lon = geo_project(np.array([0.0, 0.0, 5.0]))
    assert lat == pytest.approx(90.0, abs=1e-12)
    assert -180.0 < lon <= 180.0


def test_to_sphere_unit_rows():
    rng = substream(12, "sphere")
    pts = rng.normal(0, 1, (50, 3))
    out = to_sphere(pts)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# santa_pipeline


def test_hierarchy_structure_and_coverage():
    cities = random_cities(1, 60, ["A", "B", "C"])
    net = santa_pipeline(cities, params=BotParams(alpha=0.5, seed=5))

    assert net.countries == ("A", "B", "C")
    assert net.pole == DEFAULT_POLE

    # population-proportional top-level shares
    pops = np.array(cities.population)
    country = np.array(cities.country)
    for ci, name in enumerate(net.countries):
        expected = pops[country == name].sum() / pops.sum()
        assert net.shares[ci] == pytest.approx(expected, rel=1e-12)

    # every city in exactly one regional tree
    seen = []
    for ci, name in enumerate(net.countries):
        n_cities = int(np.sum(country == name))
        assert len(net.regional_trees[ci]) == choose_k(n_cities)
        for members in net.regional_members[ci]:
            seen.extend(members)
    assert sorted(seen) == list(range(len(cities)))

    for level, label, tree in net.all_trees():
        assert validate_tree(tree).ok
        leaves = tree.kind == "target"
        assert float(tree.area[leaves].sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(np.linalg.norm(tree.coords, axis=1), 1.0, atol=1e-12)

    assert net.global_tree is next(net.all_trees())[2]
    assert np.allclose(net.global_tree.coords[0], geo_embed(*DEFAULT_POLE), atol=1e-15)
    assert net.n_trees == 1 + 3 + sum(len(t) for t in net.regional_trees)


def test_hierarchy_single_city_country_degenerates():
    cities = CityTable(("only",), ("Z",), (10.0,), (20.0,), (1000.0,))
    net = santa_pipeline(cities)
    assert net.countries == ("Z",)
    assert net.global_tree.n_nodes == 2
    assert len(net.country_trees) == 1
    assert len(net.regional_trees[0]) == 1
    leaf = net.regional_trees[0][0]
    assert list(leaf.kind) == ["source", "target"]
    assert np.allclose(leaf.coords[1], geo_embed(10.0, 20.0), atol=1e-15)
    for _, _, tree in net.all_trees():
        assert validate_tree(tree).ok


def test_hierarchy_custom_pole():
    cities = random_cities(3, 10, ["A"])
    net = santa_pipeline(cities, pole=(80.0, 10.0))
    assert net.pole == (80.0, 10.0)
    assert np.allclose(net.global_tree.coords[0], geo_embed(80.0, 10.0), atol=1e-15)


def test_hierarchy_rejects_a_bad_pole_before_any_kmeans(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return weighted_kmeans(*args, **kwargs)

    monkeypatch.setattr(branchflow.pipeline, "weighted_kmeans", counting)
    with pytest.raises(ParameterError, match="latitude"):
        santa_pipeline(random_cities(3, 40, ["A", "B"]), pole=(95.0, 0.0))
    assert calls == []


def test_hierarchy_rejects_empty_city_table():
    with pytest.raises(ParameterError, match="at least one city"):
        santa_pipeline(CityTable((), (), (), (), ()))


def test_hierarchy_normalizes_a_hand_built_longitude():
    # a table is plain columns; the pipeline wraps 200 degrees to -160
    wrapped = santa_pipeline(CityTable(("a",), ("Z",), (10.0,), (200.0,), (5.0,)))
    plain = santa_pipeline(CityTable(("a",), ("Z",), (10.0,), (-160.0,), (5.0,)))
    assert np.array_equal(wrapped.regional_trees[0][0].coords, plain.regional_trees[0][0].coords)


@pytest.mark.parametrize("column, value, message", [
    ("lat", 95.0, "latitude must lie in [-90, 90], got 95.0"),
    ("lon", math.inf, "longitude must be finite"),
    ("population", 0.0, "population must be positive, got 0.0"),
    ("population", -3.0, "population must be positive, got -3.0"),
    ("population", math.nan, "population must be positive, got nan"),
    ("population", math.inf, "population must be positive, got inf"),
    ("country", None, "every column of the city table needs one entry per city"),
])
def test_hierarchy_checks_the_table_before_any_kmeans(monkeypatch, column, value, message):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return weighted_kmeans(*args, **kwargs)

    monkeypatch.setattr(branchflow.pipeline, "weighted_kmeans", counting)
    cities = random_cities(3, 40, ["A", "B"])
    if value is None:   # one entry short
        bad = getattr(cities, column)[:-1]
    else:               # the last city breaks the rule
        bad = getattr(cities, column)[:-1] + (value,)
    with pytest.raises(ParameterError, match=re.escape(message)):
        santa_pipeline(replace(cities, **{column: bad}))
    assert calls == []


def test_hierarchy_rejects_a_total_population_past_the_float_range():
    cities = CityTable(("a", "b"), ("Z", "Z"), (10.0, -10.0), (20.0, -160.0), (1e308, 1e308))
    with pytest.raises(ParameterError, match="the total population must be finite"):
        santa_pipeline(cities)


POINTS = WeightedPointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0])
EDGE = build_one_to_many(OneToManyProblem([0.0, 0.0], [[1.0, 0.0]], [1.0]), BotParams()).tree


@pytest.mark.parametrize("call, message", [
    (lambda: branch_point_interp([0, 0], [1, 1, 1], [2, 2], 1, 1, 0.5), "share one dimension"),
    (lambda: branch_point_power([0, 0], [1, 1], [2, 2, 2], 1, 1, 0.5), "share one dimension"),
    (lambda: local_improvement([0, 0], [1, 0], [0, 1], [0, 0, 0], 1, 1, 0.5),
     "share one dimension"),
    (lambda: geo_project([1.0, 0.0]), "a sphere point needs 3 coordinates"),
    (lambda: geo_embed([1.0, 2.0], [1.0, 2.0, 3.0]), "lat and lon must have one shape"),
    (lambda: weighted_kmeans(POINTS, 2.0), "k must be an integer, got 2.0"),
    (lambda: weighted_kmeans(POINTS, True), "k must be an integer, got True"),
    (lambda: santa_pipeline(random_cities(3, 10, ["A"]), (10.0,)), "pole must be one"),
    (lambda: network_to_json(EDGE, 0.5, "12"), "cost must be a finite number, got '12'"),
], ids=["interp-dims", "power-dims", "improvement-z-dims", "project-2d", "embed-shapes",
        "kmeans-float-k", "kmeans-bool-k", "santa-short-pole", "json-string-cost"])
def test_public_entry_points_reject_malformed_arguments(call, message):
    # each of these died with a raw numpy or Python error, or wrote a string cost as a number
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


PLAN = TransportPlan([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])


@pytest.mark.parametrize("call, message", [
    (lambda: BotParams(alpha="0.5"), "alpha must lie in [0, 1], got '0.5'"),
    (lambda: BotParams(shift_norm="0.1"), "shift_norm must be finite"),
    (lambda: BotParams(shift_norm=0.1, shift_delta="0.1"), "shift_delta must be finite"),
    (lambda: branch_point_interp([0, 0], [1, 0], [0, 1], "1", 1, 0.5),
     "sectional areas must be finite"),
    (lambda: subadditivity_gain("1", 1, 0.5), "masses must be finite"),
    (lambda: SinkhornConfig(reg="0.1"), "reg must be positive, got '0.1'"),
    (lambda: SinkhornConfig(tol="0.1"), "tol must be positive and finite, got '0.1'"),
    (lambda: plan_to_assignments(PLAN, "0"), "threshold must be nonnegative, got '0'"),
    (lambda: geo_embed("a", 0.0), "lat must hold real numbers"),
    (lambda: santa_pipeline(random_cities(3, 10, ["A"]), ("a", "b")),
     "lat must hold real numbers"),
    (lambda: network_to_json(EDGE, "0.5"), "alpha must lie in [0, 1], got '0.5'"),
    (lambda: render_svg([EDGE], alpha="0.5"), "alpha must lie in [0, 1], got '0.5'"),
], ids=["params-alpha", "params-shift-norm", "params-shift-delta", "interp-area",
        "subadditivity-mass", "sinkhorn-reg", "sinkhorn-tol", "assignments-threshold",
        "embed-lat", "santa-pole", "json-alpha", "svg-alpha"])
def test_public_entry_points_reject_non_numbers(call, message):
    # a string reached a range check's comparison, which raised TypeError, or numpy's
    # float conversion, which raised ValueError
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


INSTANCE = TransportInstance([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
                             [0.5, 0.5], [0.2, 0.3, 0.5])
PROBLEM = OneToManyProblem([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: branch_point_shifted([0, 0], [1, 0], [0, 1], 1.0, 1.0, 0.5, ["a", 0], 0.01),
     "eps must hold real numbers"),
    (lambda: build_forest([PROBLEM], [BotParams()], eps=[["a", 0]]), "eps must hold real numbers"),
    (lambda: solve_exact(INSTANCE, "x"), "the cost matrix must hold real numbers"),
    (lambda: solve_sinkhorn(INSTANCE, [[1, 2, 3], [1, 2]]),
     "the cost matrix must hold real numbers"),
    (lambda: plan_cost(solve_exact(INSTANCE, cost_matrix(INSTANCE)), [["x"] * 3] * 2),
     "the cost matrix must hold real numbers"),
    (lambda: transport_simplex(["a"], [1.0], [[1.0]]), "p must hold real numbers"),
    (lambda: transport_simplex(1.0, [1.0], [[1.0]]), "got shapes () and (1,)"),
    (lambda: transport_simplex([[1.0]], [1.0], [[1.0]]), "got shapes (1, 1) and (1,)"),
    (lambda: transport_simplex([1.0], [[1.0]], [[1.0]]), "got shapes (1,) and (1, 1)"),
    (lambda: weighted_kmeans(POINTS, 2, init=[[0, 0], [1]]), "init must hold real numbers"),
    (lambda: weighted_kmeans(POINTS, 2, init="ab"), "init must hold real numbers"),
    (lambda: weighted_kmeans(POINTS, 2, seed="a"), "seed must be an integer, got 'a'"),
    (lambda: geo_project(["a", 0, 0]), "a sphere point must hold real numbers"),
    (lambda: to_sphere([["a", 0, 0]]), "points must hold real numbers"),
    (lambda: santa_pipeline(replace(random_cities(3, 10, ["A"]), population=("a",) * 10)),
     "population must hold real numbers"),
], ids=["shifted-eps", "forest-eps", "exact-cost", "sinkhorn-ragged-cost", "plan-cost",
        "simplex-string-p", "simplex-scalar-p", "simplex-matrix-p", "simplex-matrix-q",
        "kmeans-ragged-init", "kmeans-string-init", "kmeans-string-seed", "project-string",
        "sphere-string", "santa-string-population"])
def test_public_float_arguments_go_through_one_checked_conversion(call, message):
    # each of these died in numpy's float conversion or indexing with a raw error
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


ONE_D = '{"nodes":[{"id":0,"kind":"source","coords":[0.0]},{"id":1,"kind":"target","coords":[1.0]}],' \
        '"edges":[{"from":0,"to":1,"area":1.0}],"alpha":0.5,"cost":1.0}'


@pytest.mark.parametrize("call, error, message", [
    (lambda: OneToManyProblem([0, 0], [[1, 0, 0]], [1]), ParameterError,
     "source and targets must share one dimension"),
    (lambda: OneToManyProblem([0, 0], [[1, 0]], [1, 2]), ParameterError,
     "areas must have one entry per target"),
    (lambda: OneToManyProblem([0, 0], [[1, 0]], [0.0]), ParameterError,
     "areas must be strictly positive"),
    (lambda: WeightedPointSet(np.empty((0, 2)), []), ParameterError,
     "at least one point is required"),
    (lambda: weighted_centroid([[0, 0], [1, 0]], [1.0]), ParameterError,
     "weights must have one entry per point"),
    (lambda: weighted_centroid(POINTS, [1.0, 1.0, 1.0]), ParameterError,
     "weights are already part of the point set"),
    (lambda: as_point([0, 0, 0, 0]), ParameterError,
     "a point needs 2 or 3 coordinates, got shape (4,)"),
    (lambda: as_point([0, math.inf]), ParameterError, "point coordinates must be finite"),
    (lambda: WeightedPointSet([[0, 0, 0, 0]], [1]), ParameterError,
     "points must be an (n, 2) or (n, 3) array, got shape (1, 4)"),
    (lambda: WeightedPointSet([[0, math.nan]], [1]), ParameterError,
     "points contains non-finite coordinates"),
    (lambda: WeightedPointSet([[0, 0]], [math.inf]), ParameterError,
     "weights contains non-finite entries"),
    (lambda: TransportInstance([[0, 0]], [[1, 0]], [0.5, 0.5], [1]), ParameterError,
     "p must have one mass per source"),
    (lambda: TransportInstance([[0, 0]], [[1, 0]], [1], [0.5, 0.5]), ParameterError,
     "q must have one mass per target"),
    (lambda: TransportPlan([1.0], [1], [1]), ParameterError, "gamma must be a matrix"),
    (lambda: TransportPlan([[-1.0]], [1], [1]), ParameterError,
     "gamma entries must be finite and nonnegative"),
    (lambda: TransportPlan([[1.0]], [0.5, 0.5], [1]), ParameterError,
     "gamma shape must match the marginal lengths"),
    (lambda: network_from_json(ONE_D), InputError, "node 0 coords must be 2-D or 3-D"),
    (lambda: solve_exact(INSTANCE, -cost_matrix(INSTANCE)), ParameterError,
     "cost entries must be finite and nonnegative"),
    (lambda: transport_simplex([0.0, 1.0], [1.0], [[1.0], [1.0]]), ParameterError,
     "supplies and demands must be strictly positive"),
    (lambda: synthetic_problem(0, 5, d=4), ParameterError, "d must be 2 or 3, got 4"),
], ids=["problem-dims", "problem-areas-length", "problem-zero-area", "points-empty",
        "centroid-weights-length", "centroid-set-and-weights", "point-shape", "point-inf",
        "points-shape", "points-nan", "weights-inf", "instance-p-length", "instance-q-length",
        "plan-vector", "plan-negative", "plan-shape", "json-1d-coords", "negative-cost",
        "simplex-zero-supply", "synthetic-4d"])
def test_input_checks_raise_their_error_and_message(call, error, message):
    # checks that the rest of the suite never reaches
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error


def test_geo_project_reports_a_nan_coordinate_as_non_finite():
    with pytest.raises(ParameterError, match="non-finite coordinates"):
        geo_project([math.nan, 0.0, 1.0])


def test_earth_radius_constant():
    assert EARTH_RADIUS_KM == 6371.0
