"""Acceptance gate: one test per shipping criterion.

Each test records a PASS/FAIL line (printed in the terminal summary by
conftest) and then asserts, so a red criterion is visible both ways.
"""

import json
import os
from collections import Counter
from time import perf_counter

import numpy as np
import pytest
from conftest import record_criterion
from oracles import exact_ot_oracle

from branchflow import (
    BotParams,
    OneToManyProblem,
    SinkhornConfig,
    TransportInstance,
    bot_cost,
    branch_point_interp,
    branch_point_power,
    build_one_to_many,
    cost_matrix,
    dual_network,
    plan_cost,
    render_geojson,
    santa_pipeline,
    solve_exact,
    solve_network,
    solve_sinkhorn,
    subadditivity_gain,
    validate_tree,
)
from branchflow.cli import main
from branchflow.clustering import choose_k
from branchflow.io import load_cities_csv, sample_cities_path
from branchflow.pipeline import synthetic_instance, synthetic_problem
from branchflow.seeding import substream


def _masses(rng, n):
    w = rng.random(n) + 1e-3
    return w / w.sum()


def _random_instance(rng, m, n):
    return TransportInstance(
        rng.uniform(-1.0, 1.0, (m, 2)),
        rng.uniform(-1.0, 1.0, (n, 2)),
        _masses(rng, m),
        _masses(rng, n),
    )


def test_criterion_1_exact_solver_matches_enumeration():
    t0 = perf_counter()
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        instance = _random_instance(rng, m, n)
        c = cost_matrix(instance)
        got = plan_cost(solve_exact(instance, c), c)
        want = exact_ot_oracle(instance.p, instance.q, c)
        worst = max(worst, abs(got - want))
    elapsed = perf_counter() - t0
    passed = worst <= 1e-9 and elapsed < 5.0
    record_criterion(
        1,
        passed,
        f"200 instances up to 4x4: worst |cost diff| {worst:.2e} "
        f"(<= 1e-9), {elapsed:.2f}s (< 5s)",
    )
    assert passed


def test_criterion_2_sinkhorn_accuracy():
    t0 = perf_counter()
    worst_gap = 0.0
    worst_marg = 0.0
    for k in range(20):
        rng = np.random.default_rng(2000 + k)
        instance = _random_instance(rng, 10, 10)
        c = cost_matrix(instance)
        c = c / c.max()
        exact_cost = plan_cost(solve_exact(instance, c), c)
        res = solve_sinkhorn(instance, c, SinkhornConfig(reg=0.01))
        assert res.converged
        gap = (plan_cost(res.plan, c) - exact_cost) / exact_cost
        row, col = res.plan.marginal_error()
        worst_gap = max(worst_gap, gap)
        worst_marg = max(worst_marg, row, col)
    elapsed = perf_counter() - t0
    passed = worst_gap < 0.01 and worst_marg < 1e-6 and elapsed < 5.0
    record_criterion(
        2,
        passed,
        f"20 seeded 10x10 instances at reg 0.01: worst cost gap "
        f"{worst_gap:.3%} (< 1%), worst marginal L1 {worst_marg:.2e} "
        f"(< 1e-6), {elapsed:.2f}s (< 5s)",
    )
    assert passed


def test_criterion_3_single_source_descent():
    t0 = perf_counter()
    max_insertions = 0
    all_decreasing = True
    for seed in range(50):
        result = build_one_to_many(synthetic_problem(seed, 100), BotParams(alpha=0.5, seed=seed))
        trace = result.trace
        all_decreasing = all_decreasing and bool(np.all(np.diff(trace) < 0))
        inserted = sum(1 for e in result.events if e.branch is not None)
        max_insertions = max(max_insertions, inserted)
    elapsed = perf_counter() - t0
    passed = all_decreasing and max_insertions < 100 and elapsed < 2.0
    record_criterion(
        3,
        passed,
        f"50 seeds, 100 targets, alpha 0.5: every trace strictly "
        f"decreasing, max {max_insertions} insertions (< 100), "
        f"{elapsed:.2f}s (< 2s)",
    )
    assert passed


def test_criterion_4_forest_cost_reduction():
    reductions = {"exact": [], "sinkhorn": []}
    strict = {"exact": 0, "sinkhorn": 0}
    t_max = 0.0
    for seed in range(10):
        for mode in ("exact", "sinkhorn"):
            t0 = perf_counter()
            params = BotParams(alpha=0.25, seed=seed)
            result = solve_network(synthetic_instance(seed, 50, 1000), params, mode)
            t_max = max(t_max, perf_counter() - t0)
            rep = result.report
            if rep.bot_cost < rep.star_cost:
                strict[mode] += 1
            reductions[mode].append(1.0 - rep.bot_cost / rep.star_cost)
    med_sink = float(np.median(reductions["sinkhorn"]))
    med_exact = float(np.median(reductions["exact"]))
    passed = (
        strict["exact"] == 10
        and strict["sinkhorn"] == 10
        and med_sink >= 0.50
        and t_max < 30.0
    )
    record_criterion(
        4,
        passed,
        f"50x1000, alpha 0.25, 10 seeds: tree cost below star cost on "
        f"{strict['sinkhorn']}/10 (sinkhorn) and {strict['exact']}/10 "
        f"(exact) seeds; median reduction {med_sink:.2%} sinkhorn "
        f"(>= 50%), {med_exact:.2%} exact; max {t_max:.1f}s/seed (< 30s)",
    )
    assert passed


def test_criterion_5_alpha_limits():
    star_exact = True
    no_branches = True
    for formula in ("interp", "power"):
        for seed in range(5):
            params = BotParams(alpha=1.0, formula=formula, seed=seed)
            result = build_one_to_many(synthetic_problem(seed, 40), params)
            kinds = result.tree.kind
            no_branches = no_branches and int(np.sum(kinds == "branch")) == 0
            cost = bot_cost(result.tree, 1.0)
            star_exact = star_exact and cost == result.trace[0] == result.trace[-1]

    rng = substream(5, "acceptance", "alpha-zero")
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        v_k, v_i, v_j = rng.uniform(-5, 5, (3, d))
        s_i, s_j = rng.uniform(0.1, 3.0, 2)
        z = branch_point_interp(v_k, v_i, v_j, s_i, s_j, 0.0)
        midpoint = (s_i * v_i + s_j * v_j) / (s_i + s_j)
        worst = max(worst, float(np.max(np.abs(z - midpoint))))

    passed = no_branches and star_exact and worst <= 1e-12
    record_criterion(
        5,
        passed,
        f"alpha 1: zero branches and tree cost == star cost exactly "
        f"(both formulas, 5 seeds); alpha 0: branch point at the "
        f"area-weighted midpoint, worst dev {worst:.2e} (<= 1e-12)",
    )
    assert passed


def _rotation(rng, d):
    if d == 2:
        a = rng.uniform(0, 2 * np.pi)
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    rx, ry, rz = rng.uniform(0, 2 * np.pi, 3)
    def rot(axis, a):
        r = np.eye(3)
        i, j = [k for k in range(3) if k != axis]
        r[i, i] = r[j, j] = np.cos(a)
        r[i, j] = -np.sin(a)
        r[j, i] = np.sin(a)
        return r
    return rot(0, rx) @ rot(1, ry) @ rot(2, rz)


def _events_monotone(events, n_targets):
    """Each node is consumed at most once; branch ids exist before use."""
    consumed = set()
    introduced = set()
    for e in events:
        for node in (e.picked, e.partner):
            if node is None:
                continue
            if node in consumed:
                return False
            if node > n_targets and node not in introduced:
                return False
            consumed.add(node)
        if e.branch is not None:
            introduced.add(e.branch)
    return True


def test_criterion_6_invariant_suite():
    failures = []

    rng = substream(6, "acceptance", "invariants")
    for alpha, formula in ((0.3, "interp"), (0.7, "power"), (0.5, "interp")):
        n = 80
        targets = rng.uniform(-1, 1, (n, 2))
        areas = _masses(rng, n)
        problem = OneToManyProblem(np.zeros(2), targets, areas)
        result = build_one_to_many(problem, BotParams(alpha=alpha, formula=formula, seed=6))
        demands = {i + 1: float(areas[i]) for i in range(n)}
        report = validate_tree(result.tree, demands)
        if not report.ok:
            failures.append(f"validity/conservation ({formula}): {report.summary()}")
        if not _events_monotone(result.events, n):
            failures.append(f"tabu selectability not monotone ({formula})")

    worst_rigid = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        v_k, v_i, v_j = rng.uniform(-3, 3, (3, d))
        s_i, s_j = rng.uniform(0.1, 2.0, 2)
        a = rng.uniform(0.0, 0.999)
        rot = _rotation(rng, d)
        shift = rng.uniform(-4, 4, d)
        for fn in (branch_point_power, branch_point_interp):
            z = fn(v_k, v_i, v_j, s_i, s_j, a)
            zr = fn(rot @ v_k + shift, rot @ v_i + shift, rot @ v_j + shift, s_i, s_j, a)
            worst_rigid = max(worst_rigid, float(np.max(np.abs(zr - (rot @ z + shift)))))
    if worst_rigid > 1e-9:
        failures.append(f"rigid-motion deviation {worst_rigid:.2e}")

    masses = rng.uniform(0.01, 10.0, (1000, 2))
    alphas = rng.uniform(0.0, 0.999, 1000)
    gains = [subadditivity_gain(m1, m2, a) for (m1, m2), a in zip(masses, alphas)]
    n_positive = sum(1 for g in gains if g > 0)
    if n_positive != 1000:
        failures.append(f"subadditivity gain positive on {n_positive}/1000 samples")

    passed = not failures
    record_criterion(
        6,
        passed,
        "validity, conservation, monotone tabu, rigid-motion equivariance "
        f"(worst {worst_rigid:.2e} <= 1e-9), merge gain > 0 on "
        f"{n_positive}/1000 samples"
        + ("" if passed else "; " + "; ".join(failures)),
    )
    assert passed, failures


def test_criterion_7_paired_trees():
    rng = substream(7, "acceptance", "dual")
    n = 200
    targets = rng.uniform(-1, 1, (n, 2))
    areas = _masses(rng, n)
    problem = OneToManyProblem(np.zeros(2), targets, areas)
    params = BotParams(alpha=0.5, shift_norm=0.01, shift_delta=0.01, seed=7)
    artery, vein = dual_network(problem, params)

    same_leaves = (
        np.array_equal(artery.coords[1 : n + 1], vein.coords[1 : n + 1])
        and list(artery.kind[1 : n + 1]) == ["target"] * n
        and list(vein.kind[1 : n + 1]) == ["target"] * n
    )

    def branch_coords(tree):
        pts = tree.coords[tree.kind == "branch"]
        return pts[np.lexsort(pts.T[::-1])]

    ab, vb = branch_coords(artery), branch_coords(vein)
    branches_differ = ab.shape != vb.shape or not np.array_equal(ab, vb)

    demands = {i + 1: float(areas[i]) for i in range(n)}
    artery_ok = validate_tree(artery, demands).ok
    vein_ok = validate_tree(vein, demands).ok

    passed = same_leaves and branches_differ and artery_ok and vein_ok
    record_criterion(
        7,
        passed,
        f"200-target pair at alpha 0.5, shift 0.01: identical leaf sets "
        f"{same_leaves}, branch layouts differ {branches_differ} "
        f"({len(ab)} vs {len(vb)} branches), both trees valid "
        f"{artery_ok and vein_ok}",
    )
    assert passed


def test_criterion_8_city_hierarchy_sample():
    report = load_cities_csv(sample_cities_path())
    cities = report.cities
    n_cities = len(cities)
    counts = Counter(cities.country)

    t0 = perf_counter()
    network = santa_pipeline(cities, params=BotParams(alpha=0.5, seed=0))
    elapsed = perf_counter() - t0

    seen = sorted(
        i
        for by_region in network.regional_members
        for member_ids in by_region
        for i in member_ids
    )
    coverage = seen == list(range(n_cities))

    k_rule = all(
        len(network.regional_trees[c]) == choose_k(counts[name])
        for c, name in enumerate(network.countries)
    )

    entries = list(network.all_trees())
    all_valid = all(validate_tree(tree).ok for _, _, tree in entries)

    geo = render_geojson(
        [tree for _, _, tree in entries], [level for level, _, _ in entries]
    )
    doc = json.loads(geo)
    geo_ok = doc["type"] == "FeatureCollection" and len(doc["features"]) > n_cities

    passed = (
        n_cities == 1000
        and len(network.countries) == 20
        and coverage
        and k_rule
        and all_valid
        and geo_ok
        and elapsed < 10.0
    )
    record_criterion(
        8,
        passed,
        f"{n_cities} cities, {len(network.countries)} countries, "
        f"{network.n_trees} trees: coverage {coverage}, region-count rule "
        f"{k_rule}, all valid {all_valid}, GeoJSON parses {geo_ok}, "
        f"{elapsed:.2f}s (< 10s)",
    )
    assert passed


FULL_CITIES = os.environ.get("BRANCHFLOW_FULL_CITIES")


@pytest.mark.skipif(
    not FULL_CITIES,
    reason="set BRANCHFLOW_FULL_CITIES to a full-scale cities CSV to run "
    "the large benchmark (performance check, not a correctness gate)",
)
def test_full_city_benchmark():
    report = load_cities_csv(FULL_CITIES)
    t0 = perf_counter()
    network = santa_pipeline(report.cities, params=BotParams(alpha=0.5, seed=0))
    elapsed = perf_counter() - t0
    seen = sorted(
        i
        for by_region in network.regional_members
        for member_ids in by_region
        for i in member_ids
    )
    assert seen == list(range(len(report.cities)))
    print(f"full run: {len(report.cities)} cities, {network.n_trees} trees, {elapsed:.1f}s")


def test_criterion_9_deterministic_network_output(tmp_path, capsys):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in dirs:
        code = main(["net", "--seed", "11", "--out", str(out)])
        assert code == 0
    files = [
        {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}
        for d in dirs
    ]
    identical = files[0] == files[1]
    n_files = len(files[0])
    passed = identical and n_files >= 51 and set(files[0]) == set(files[1])
    record_criterion(
        9,
        passed,
        f"two default-size `net` runs, seed 11: {n_files} files each, "
        f"byte-identical {identical}",
    )
    assert passed
