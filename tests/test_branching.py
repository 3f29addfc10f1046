"""Closed-form branch points and the greedy/tabu tree builder."""

import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchflow import (
    BotParams,
    OneToManyProblem,
    ParameterError,
    bot_cost,
    branch_point_interp,
    branch_point_power,
    branch_point_shifted,
    build_forest,
    build_one_to_many,
    local_improvement,
    star_cost,
    validate_tree,
)
from branchflow import branching, pipeline
from branchflow.io import load_cities_csv, network_to_json, sample_cities_path
from branchflow.pipeline import santa_pipeline, synthetic_problem
from branchflow.seeding import substream

from oracles import full_scan_build


def narrow_problem():
    """Two close targets straight ahead: the branch pays off."""
    return OneToManyProblem(
        source=[0.0, 0.0],
        targets=[[1.0, 0.2], [1.0, -0.2]],
        areas=[0.5, 0.5],
    )


def random_problem(seed, n, d=2):
    rng = substream(seed, "branch-test")
    targets = rng.uniform(-1.0, 1.0, (n, d))
    areas = rng.uniform(0.1, 1.0, n)
    return OneToManyProblem(np.zeros(d), targets, areas / areas.sum())


# ---------------------------------------------------------------------------
# closed-form branch points


def test_power_alpha_zero_is_centroid():
    v_k, v_i, v_j = np.array([0.0, 0.0]), np.array([2.0, 1.0]), np.array([-1.0, 3.0])
    z = branch_point_power(v_k, v_i, v_j, 0.3, 1.7, 0.0)
    assert np.allclose(z, (v_k + v_i + v_j) / 3.0, atol=1e-15)


def test_power_alpha_one_equal_areas():
    v_k, v_i, v_j = np.array([0.0, 1.0]), np.array([2.0, 0.0]), np.array([-2.0, 0.0])
    z = branch_point_power(v_k, v_i, v_j, 1.0, 1.0, 1.0)
    assert np.allclose(z, (v_i + v_j + 2.0 * v_k) / 4.0, atol=1e-15)


def test_power_symmetric_inputs_stay_on_axis():
    z = branch_point_power([0.0, 0.0], [1.0, 0.7], [1.0, -0.7], 0.4, 0.4, 0.6)
    assert z[1] == pytest.approx(0.0, abs=1e-15)


def test_power_point_inside_triangle():
    rng = substream(3, "triangle")
    for _ in range(50):
        v_k, v_i, v_j = rng.uniform(-2, 2, (3, 2))
        s_i, s_j = rng.uniform(0.05, 2.0, 2)
        alpha = rng.uniform(0.0, 1.0)
        z = branch_point_power(v_k, v_i, v_j, s_i, s_j, alpha)
        # solve for barycentric coordinates of z in (v_i, v_j, v_k)
        A = np.column_stack([v_i - v_k, v_j - v_k])
        lam = np.linalg.solve(A, z - v_k)
        assert lam[0] >= -1e-12 and lam[1] >= -1e-12
        assert lam.sum() <= 1.0 + 1e-12


def test_interp_alpha_one_is_parent_exactly():
    v_k = np.array([0.3, -0.8])
    z = branch_point_interp(v_k, [1.0, 0.0], [0.0, 1.0], 0.7, 0.2, 1.0)
    assert np.array_equal(z, v_k)


def test_interp_alpha_zero_equal_areas_is_midpoint():
    z = branch_point_interp([5.0, 5.0], [1.0, 0.0], [-1.0, 0.0], 0.5, 0.5, 0.0)
    assert np.array_equal(z, np.array([0.0, 0.0]))


def test_interp_hand_value():
    z = branch_point_interp([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], 1.0, 3.0, 0.5)
    assert np.allclose(z, [0.125, 0.375], atol=1e-15)


def test_interp_affine_in_alpha():
    rng = substream(4, "affine")
    v_k, v_i, v_j = rng.uniform(-1, 1, (3, 3))
    s_i, s_j = 0.8, 0.3
    z0 = branch_point_interp(v_k, v_i, v_j, s_i, s_j, 0.0)
    z1 = branch_point_interp(v_k, v_i, v_j, s_i, s_j, 1.0)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        z = branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha)
        assert np.allclose(z, (1 - alpha) * z0 + alpha * z1, atol=1e-12)


def test_branch_point_rejects_bad_areas():
    with pytest.raises(ParameterError):
        branch_point_power([0, 0], [1, 0], [0, 1], 0.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        branch_point_interp([0, 0], [1, 0], [0, 1], 1.0, -1.0, 0.5)


def test_shifted_zero_eps_matches_interp():
    args = ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], 1.0, 3.0, 0.5)
    plain = branch_point_interp(*args)
    shifted = branch_point_shifted(*args, eps=np.zeros(2), delta=0.01)
    assert np.array_equal(shifted, plain)


def test_shifted_hand_value_unit_divisor():
    # the divisor lands exactly on 1.0 for these inputs
    assert 0.99 + 0.01 == 1.0
    args = ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], 0.66, 0.33, 0.5)
    assert 0.66 + 0.33 == 0.99
    plain = branch_point_interp(*args)
    shifted = branch_point_shifted(*args, eps=np.array([0.01, 0.0]), delta=0.01)
    assert np.array_equal(shifted, plain + np.array([0.01, 0.0]))


def test_shifted_large_areas_are_rigid():
    args = ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    eps = np.array([0.5, 0.0])
    small = branch_point_shifted(*args, 1.0, 1.0, 0.5, eps=eps, delta=0.01)
    big = branch_point_shifted(*args, 2.0, 2.0, 0.5, eps=eps, delta=0.01)
    plain_small = branch_point_interp(*args, 1.0, 1.0, 0.5)
    plain_big = branch_point_interp(*args, 2.0, 2.0, 0.5)
    shift_small = np.linalg.norm(small - plain_small)
    shift_big = np.linalg.norm(big - plain_big)
    assert shift_big < shift_small
    assert shift_big / shift_small == pytest.approx(2.01 / 4.01, rel=1e-12)


def test_shifted_validates_delta_and_eps_shape():
    with pytest.raises(ParameterError):
        branch_point_shifted([0, 0], [1, 0], [0, 1], 1.0, 1.0, 0.5, np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        branch_point_shifted([0, 0], [1, 0], [0, 1], 1.0, 1.0, 0.5, np.zeros(3), 0.01)


# ---------------------------------------------------------------------------
# local_improvement


def test_improvement_zero_at_parent():
    assert local_improvement([0, 0], [1, 0.2], [1, -0.2], [0, 0], 0.5, 0.5, 0.5) == 0.0


def test_improvement_narrow_angle_hand_value():
    delta = local_improvement([0, 0], [1, 0.2], [1, -0.2], [0.5, 0.0], 0.5, 0.5, 0.5)
    star = 2.0 * math.sqrt(0.5) * math.hypot(1.0, 0.2)
    branched = 0.5 + 2.0 * math.sqrt(0.5) * math.hypot(0.5, 0.2)
    assert delta == pytest.approx(star - branched, rel=1e-12)
    assert delta == pytest.approx(0.180644, abs=1e-6)
    assert delta > 0


def test_improvement_wide_angle_is_negative():
    delta = local_improvement([0, 0], [1, 1], [1, -1], [0.5, 0.0], 0.5, 0.5, 0.5)
    star = 2.0 * math.sqrt(0.5) * math.sqrt(2.0)
    branched = 0.5 + 2.0 * math.sqrt(0.5) * math.hypot(0.5, 1.0)
    assert star == pytest.approx(2.0, rel=1e-12)
    assert branched == pytest.approx(2.081139, abs=1e-6)
    assert delta == pytest.approx(star - branched, rel=1e-9)
    assert delta < 0


# ---------------------------------------------------------------------------
# star_cost


def test_star_cost_hand_value():
    star = star_cost(narrow_problem(), 0.5)
    assert star == pytest.approx(2.0 * math.sqrt(0.5) * math.hypot(1.0, 0.2), rel=1e-12)
    assert star == pytest.approx(1.442221, abs=1e-6)


# ---------------------------------------------------------------------------
# build_one_to_many


def test_build_single_target_is_direct_edge():
    problem = OneToManyProblem([0.0, 0.0], [[1.0, 1.0]], [1.0])
    result = build_one_to_many(problem, BotParams(alpha=0.5))
    tree = result.tree
    assert tree.n_nodes == 2
    assert list(tree.kind) == ["source", "target"]
    assert len(result.trace) == 1
    assert validate_tree(tree).ok


def test_build_narrow_pair_inserts_one_branch():
    result = build_one_to_many(narrow_problem(), BotParams(alpha=0.5))
    tree = result.tree
    assert list(tree.kind) == ["source", "target", "target", "branch"]
    assert np.allclose(tree.coords[3], [0.5, 0.0], atol=1e-12)
    assert tree.area[3] == 1.0
    assert bot_cost(tree, 0.5) == pytest.approx(1.261577, abs=1e-6)
    assert result.trace[0] == pytest.approx(1.442221, abs=1e-6)
    assert result.trace[-1] == pytest.approx(bot_cost(tree, 0.5), rel=1e-12)


def test_build_alpha_one_returns_star_exactly():
    for formula in ("interp", "power"):
        problem = random_problem(11, 30)
        result = build_one_to_many(problem, BotParams(alpha=1.0, formula=formula))
        tree = result.tree
        assert int((tree.kind == "branch").sum()) == 0
        assert len(result.trace) == 1
        assert bot_cost(tree, 1.0) == star_cost(problem, 1.0)


def test_build_trace_strictly_decreasing():
    result = build_one_to_many(random_problem(12, 80), BotParams(alpha=0.5))
    assert np.all(np.diff(result.trace) < 0)
    assert result.trace[0] == star_cost(random_problem(12, 80), 0.5)


def test_build_cost_matches_tree_cost():
    problem = random_problem(13, 60)
    params = BotParams(alpha=0.25)
    result = build_one_to_many(problem, params)
    assert result.trace[-1] == pytest.approx(bot_cost(result.tree, 0.25), rel=1e-9, abs=1e-12)


def test_build_respects_iteration_and_insertion_bounds():
    n = 70
    problem = random_problem(14, n)
    result = build_one_to_many(problem, BotParams(alpha=0.4))
    n_branches = int((result.tree.kind == "branch").sum())
    assert n_branches <= n - 1
    assert len(result.events) <= 2 * n
    assert result.candidate_evals <= 2 * n * n


def test_build_tabu_no_node_reselected():
    result = build_one_to_many(random_problem(15, 50), BotParams(alpha=0.5))
    retired = set()
    for ev in result.events:
        assert ev.picked not in retired
        if ev.partner is None:
            retired.add(ev.picked)
        else:
            assert ev.partner not in retired
            retired.add(ev.picked)
            retired.add(ev.partner)
            assert ev.gain > 1e-12
            assert ev.branch not in retired


def test_build_conserves_mass():
    problem = random_problem(16, 40)
    result = build_one_to_many(problem, BotParams(alpha=0.5))
    tree = result.tree
    assert validate_tree(tree).ok
    targets = tree.kind == "target"
    assert float(tree.area[targets].sum()) == pytest.approx(float(tree.area[0]), abs=1e-12)
    assert np.array_equal(tree.area[targets], problem.areas)
    # demand check against the original assignment
    demands = {i + 1: float(a) for i, a in enumerate(problem.areas)}
    assert validate_tree(tree, demands=demands).ok


def test_build_branch_area_is_sum_of_children():
    result = build_one_to_many(random_problem(17, 50), BotParams(alpha=0.5))
    tree = result.tree
    kids = tree.children()
    for b in np.flatnonzero(tree.kind == "branch"):
        assert len(kids[b]) == 2
        assert tree.area[b] == pytest.approx(sum(tree.area[k] for k in kids[b]), abs=1e-15)


def test_build_rigid_motion_equivariance():
    problem = random_problem(18, 35)
    params = BotParams(alpha=0.6)
    base = build_one_to_many(problem, params)

    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shift = np.array([0.3, -1.1])
    moved = OneToManyProblem(
        problem.source @ rot.T + shift,
        problem.targets @ rot.T + shift,
        problem.areas,
    )
    out = build_one_to_many(moved, params)
    assert np.array_equal(out.tree.parent, base.tree.parent)
    assert np.allclose(out.tree.coords, base.tree.coords @ rot.T + shift, atol=1e-9)


def test_formula_rigid_motion_equivariance():
    rng = substream(19, "rigid")
    theta = -1.2
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shift = np.array([5.0, 2.5])
    for _ in range(50):
        v_k, v_i, v_j = rng.uniform(-1, 1, (3, 2))
        s_i, s_j = rng.uniform(0.1, 2.0, 2)
        alpha = rng.uniform(0, 1)
        for fn in (branch_point_power, branch_point_interp):
            z = fn(v_k, v_i, v_j, s_i, s_j, alpha)
            z_moved = fn(v_k @ rot.T + shift, v_i @ rot.T + shift, v_j @ rot.T + shift,
                         s_i, s_j, alpha)
            assert np.allclose(z_moved, z @ rot.T + shift, atol=1e-9)


def test_build_empty_targets_rejected():
    with pytest.raises(ParameterError):
        OneToManyProblem([0.0, 0.0], np.zeros((0, 2)), np.zeros(0))


def test_build_nearest_only_variant():
    problem = random_problem(20, 40)
    result = build_one_to_many(problem, BotParams(alpha=0.5), nearest_only=True)
    assert validate_tree(result.tree).ok
    assert result.trace[-1] <= result.trace[0]
    assert len(result.events) <= 2 * problem.n_targets
    assert np.all(np.diff(result.trace) < 0)
    # every merge partner is the picked node's nearest selectable neighbor
    # at merge time (lower id on ties), which the full scan does not promise
    coords = result.tree.coords
    selectable = set(range(1, problem.n_targets + 1))
    merges = 0
    for ev in result.events:
        selectable.remove(ev.picked)
        if ev.partner is not None:
            others = sorted(selectable)
            dist = np.linalg.norm(coords[others] - coords[ev.picked], axis=1)
            assert ev.partner == others[int(np.argmin(dist))]
            selectable.remove(ev.partner)
            selectable.add(ev.branch)
            merges += 1
    assert not selectable
    assert merges > 0


def test_build_post_point_hook_constrains_branches():
    problem = random_problem(21, 30)

    def flatten(points):
        out = points.copy()
        out[:, 1] = 0.0
        return out

    result = build_one_to_many(problem, BotParams(alpha=0.5), post_point=flatten)
    tree = result.tree
    branches = tree.kind == "branch"
    if branches.any():
        assert np.all(tree.coords[branches, 1] == 0.0)
    assert validate_tree(tree).ok
    assert np.all(np.diff(result.trace) < 0)


def test_build_shift_draws_frozen_eps():
    problem = random_problem(22, 25)
    params = BotParams(alpha=0.5, shift_norm=0.01, shift_delta=0.01, seed=77)
    a = build_one_to_many(problem, params)
    b = build_one_to_many(problem, params)
    assert a.eps is not None
    assert np.linalg.norm(a.eps) == pytest.approx(0.01, rel=1e-12)
    assert np.array_equal(a.eps, b.eps)
    assert np.array_equal(a.tree.coords, b.tree.coords)

    plain = build_one_to_many(problem, BotParams(alpha=0.5))
    assert plain.eps is None

    forced = build_one_to_many(problem, BotParams(alpha=0.5), eps=np.array([0.0, 0.0]))
    assert np.array_equal(forced.tree.coords, plain.tree.coords)


# ---------------------------------------------------------------------------
# pinned builder bytes: tree JSON, trace and events, captured from the
# full-scan builder; any change to the scan must keep every byte


def build_digest(results, alpha):
    """sha256 over each result's network JSON, trace bytes and event tuples."""
    h = hashlib.sha256()
    for result in results:
        h.update(network_to_json(result.tree, alpha).encode())
        h.update(np.asarray(result.trace).tobytes())
        h.update(repr([dataclasses.astuple(ev) for ev in result.events]).encode())
    return h.hexdigest()


def grid_problem():
    """Equal areas on a 21 x 21 integer grid around the source: ties everywhere."""
    xs, ys = np.meshgrid(np.arange(-10.0, 11.0), np.arange(-10.0, 11.0))
    targets = np.column_stack([xs.ravel(), ys.ravel()])
    targets = targets[np.any(targets != 0.0, axis=1)]
    return OneToManyProblem([0.0, 0.0], targets, np.full(len(targets), 1.0 / len(targets)))


def pinned_build(name):
    """One builder run per pinned case, returned as (results, alpha)."""
    if name == "interp-4000":
        return [build_one_to_many(synthetic_problem(0, 4000), BotParams(seed=0))], 0.5
    if name == "power-4000":
        params = BotParams(formula="power", seed=1)
        return [build_one_to_many(synthetic_problem(1, 4000), params)], 0.5
    if name == "shift-4000":
        params = BotParams(shift_norm=0.01, seed=2)
        return [build_one_to_many(synthetic_problem(2, 4000), params)], 0.5
    if name == "nearest-only-4000":
        params = BotParams(alpha=0.5, seed=3)
        return [build_one_to_many(synthetic_problem(3, 4000), params, nearest_only=True)], 0.5
    if name == "interp-3d-1000":
        params = BotParams(alpha=0.25, seed=4)
        return [build_one_to_many(synthetic_problem(4, 1000, d=3), params)], 0.25
    if name == "grid-interp":
        return [build_one_to_many(grid_problem(), BotParams(alpha=0.5))], 0.5
    if name == "grid-power":
        return [build_one_to_many(grid_problem(), BotParams(alpha=0.3, formula="power"))], 0.3
    assert name == "santa-sample"
    results = []

    def recording(*args, **kwargs):
        results.extend(build_forest(*args, **kwargs))
        return results

    cities = load_cities_csv(sample_cities_path()).cities
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_forest", recording)
        santa_pipeline(cities, params=BotParams(alpha=0.5, seed=0))
    return results, 0.5


@pytest.mark.parametrize("name, digest", [
    ("interp-4000", "f38363729929a16c21c9b1cf39f1c2dade107c9438f8f25020b34a446d98d77e"),
    ("power-4000", "a54a5fb929d771c94ee0dc22d692b519c0d1d2a577fb08d5748a483d97b44d0d"),
    ("shift-4000", "6cb9d7f7b2692fea29a12a62e627616c92e9008cd16fd26da5d6cc063470ecda"),
    ("nearest-only-4000", "3746805315b26ef1ea807a9b4ab0ef45c4c2707ab84b8e4c522b28734f5151b0"),
    ("interp-3d-1000", "6e84f49205b72d2472fb792fb6073d97e2bd4334c3225c1f7a8ac5f333d28959"),
    ("grid-interp", "915e9e9096f0a4f9fe1194c16d8de0a82f2ab1cc906ee40367efb8b6719f1d1a"),
    ("grid-power", "b4213b0737fc6b4afca06769b975231d5baca59f9daa7c89db7f17bf6e99a6bc"),
    ("santa-sample", "3b344a369165965a4c6db2eb6ebfbddf523c33de2a7fd1e4cf65fe6716b7d866"),
])
def test_builder_bytes_are_pinned(name, digest):
    """Tree, trace and event bytes on fixed problems, taken from the full scan."""
    assert build_digest(*pinned_build(name)) == digest


# ---------------------------------------------------------------------------
# the lazy nearest-first scan against the full-scan reference


@st.composite
def small_builds(draw):
    """Small problems full of ties: grid or collinear points, equal areas."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grid", "collinear", "uniform", "huddle"]))
    if layout == "grid":
        targets = rng.integers(-3, 4, (n, d)).astype(float)
    elif layout == "collinear":
        targets = np.zeros((n, d))
        targets[:, 0] = rng.integers(-8, 9, n)
    elif layout == "uniform":
        targets = rng.uniform(-1.0, 1.0, (n, d))
    else:  # half the targets at the source: near neighbors that do not pay
        targets = rng.uniform(-1.0, 1.0, (n, d))
        targets[: n // 2] = rng.normal(0.0, 0.03, (n // 2, d))
    source = np.zeros(d) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, d)
    if layout == "huddle":
        source = np.zeros(d)
    areas = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.uniform(0.01, 1.0, n) ** 3
    params = BotParams(
        alpha=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))),
        formula=draw(st.sampled_from(["interp", "power"])),
        shift_norm=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 99)),
    )
    options = {"nearest_only": draw(st.booleans())}
    if draw(st.booleans()):
        options["post_point"] = flatten_last_axis
    return OneToManyProblem(source, targets, areas), params, options


def flatten_last_axis(points):
    out = points.copy()
    out[:, -1] = 0.0
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_builds())
def test_build_matches_full_scan_reference(build):
    problem, params, options = build
    got = build_one_to_many(problem, params, **options)
    want = full_scan_build(problem, params, **options)
    assert got.events == want.events
    assert got.trace.tobytes() == want.trace.tobytes()
    assert np.array_equal(got.tree.coords, want.tree.coords)
    assert np.array_equal(got.tree.parent, want.tree.parent)
    assert got.candidate_evals <= want.candidate_evals
    assert validate_tree(got.tree).ok
    assert np.all(np.diff(got.trace) < 0)


def huddle_problem(seed):
    """Half the targets huddle at the source and areas spread over decades,
    so all of the picked node's nearest neighbors can fail while a farther
    one pays."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(18, 60))
    targets = np.vstack([rng.normal(0.0, 0.03, (n // 2, 2)), rng.uniform(-1.0, 1.0, (n - n // 2, 2))])
    areas = rng.uniform(0.01, 1.0, n) ** 3
    return OneToManyProblem([0.0, 0.0], targets, areas), float(rng.uniform(0.3, 1.0))


@pytest.mark.parametrize("seed, formula", [(144, "interp"), (489, "power")])
def test_build_far_band_merge_matches_full_scan(seed, formula):
    problem, alpha = huddle_problem(seed)
    params = BotParams(alpha=alpha, formula=formula)
    got = build_one_to_many(problem, params)
    want = full_scan_build(problem, params)
    assert got.events == want.events
    assert got.trace.tobytes() == want.trace.tobytes()
    assert np.array_equal(got.tree.coords, want.tree.coords)


def test_build_logs_scan_counts(caplog):
    with caplog.at_level(logging.DEBUG, logger="branchflow.branching"):
        build_one_to_many(narrow_problem(), BotParams(alpha=0.5))
        problem, alpha = huddle_problem(144)
        build_one_to_many(problem, BotParams(alpha=alpha))
    assert [r.getMessage() for r in caplog.records] == [
        "build_one_to_many N=2: 2 iterations, 1 merges, 1 retirements, "
        "1 candidate evals, 1 merges in the near band",
        "build_one_to_many N=31: 31 iterations, 27 merges, 4 retirements, "
        "369 candidate evals, 26 merges in the near band",
    ]


# ---------------------------------------------------------------------------
# the lockstep forest against one-tree builds and the full-scan reference


def tree_bytes(result, alpha):
    return (network_to_json(result.tree, alpha), result.trace.tobytes(),
            result.events, result.candidate_evals)


@st.composite
def forests(draw):
    """Mixed forests: most trees share the forest's settings, so they run
    in one lockstep block; the rest bring their own dimension, formula,
    alpha and shift.  Sizes run from 1 target up."""
    def settings_draw():
        return {
            "d": draw(st.sampled_from([2, 3])),
            "alpha": draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))),
            "formula": draw(st.sampled_from(["interp", "power"])),
            "shift_norm": draw(st.sampled_from([0.0, 0.05])),
        }

    base = settings_draw()
    problems, params, eps = [], [], []
    for _ in range(draw(st.integers(1, 7))):
        own = settings_draw() if draw(st.integers(0, 3)) == 0 else base
        d = own["d"]
        n = draw(st.one_of(st.just(1), st.integers(1, 40)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        layout = draw(st.sampled_from(["grid", "collinear", "uniform", "huddle"]))
        if layout == "grid":
            targets = rng.integers(-3, 4, (n, d)).astype(float)
        elif layout == "collinear":
            targets = np.zeros((n, d))
            targets[:, 0] = rng.integers(-8, 9, n)
        else:
            targets = rng.uniform(-1.0, 1.0, (n, d))
            if layout == "huddle":
                targets[: n // 2] = rng.normal(0.0, 0.03, (n // 2, d))
        source = np.zeros(d) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, d)
        areas = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.uniform(0.01, 1.0, n) ** 3
        problems.append(OneToManyProblem(source, targets, areas))
        params.append(BotParams(alpha=own["alpha"], formula=own["formula"],
                                shift_norm=own["shift_norm"], seed=draw(st.integers(0, 99))))
        eps.append(rng.normal(0.0, 0.05, d) if draw(st.integers(0, 4)) == 0 else None)
    options = {"nearest_only": draw(st.booleans())}
    if draw(st.booleans()):
        options["post_point"] = flatten_last_axis
    block_cells = draw(st.sampled_from([branching._BLOCK_CELLS, 64, 1]))
    return problems, params, eps, options, block_cells


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(forests())
def test_forest_matches_one_tree_builds_and_full_scan(forest):
    problems, params, eps, options, block_cells = forest
    saved = branching._BLOCK_CELLS
    branching._BLOCK_CELLS = block_cells   # small blocks split the forest
    try:
        got = build_forest(problems, params, eps=eps, **options)
    finally:
        branching._BLOCK_CELLS = saved
    assert len(got) == len(problems)
    for problem, p, e, result in zip(problems, params, eps, got):
        alone = build_forest([problem], [p], eps=[e], **options)[0]
        assert tree_bytes(result, p.alpha) == tree_bytes(alone, p.alpha)
        want = full_scan_build(problem, p, eps=e, **options)
        assert result.events == want.events
        assert result.trace.tobytes() == want.trace.tobytes()
        assert result.tree.coords.tobytes() == want.tree.coords.tobytes()


@st.composite
def padded_rows(draw):
    """Point sets of several trees, NaN-padded to one width, with ties,
    duplicates and very large and very small coordinates."""
    d = draw(st.sampled_from([2, 3]))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150, 1e-3]))
    rows = []
    for n in sizes:
        if draw(st.booleans()):
            pts = rng.integers(-3, 4, (n, d)).astype(float) * scale
        else:
            pts = rng.normal(0.0, 1.0, (n, d)) * scale
        rows.append(pts)
    return d, rows, rng.normal(0.0, 1.0, (len(sizes), d)) * scale


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(padded_rows())
def test_batched_reductions_match_the_one_tree_forms_bitwise(batch):
    d, rows, origins = batch
    width = max(len(r) for r in rows)
    live = np.full((d, len(rows), width), np.nan)
    for b, r in enumerate(rows):
        live[:, b, :len(r)] = r.T
    dist = branching._coord_norms(live - origins.T[:, :, None])
    for b, r in enumerate(rows):
        n = len(r)
        # distance pass: one norm(axis=1) per tree
        assert dist[b, :n].tobytes() == np.linalg.norm(r - origins[b], axis=1).tobytes()
        assert np.isnan(dist[b, n:]).all()
        # flat candidate rows, legs stacked: norm(axis=1) per leg
        legs = np.stack([r - origins[b], r, origins[b] - r])
        flat = branching._row_norms(legs)
        for leg, got in zip(legs, flat):
            assert got.tobytes() == np.linalg.norm(leg, axis=1).tobytes()
        # the near-band cut and the nearest distance, NaN padding dropped
        if width > branching._NEAR_BAND and n > branching._NEAR_BAND:
            kth = np.partition(dist, branching._NEAR_BAND - 1, axis=1)[b, branching._NEAR_BAND - 1]
            assert kth == np.partition(dist[b, :n], branching._NEAR_BAND - 1)[branching._NEAR_BAND - 1]
        assert np.fmin.reduce(dist, axis=1)[b] == dist[b, :n].min()
    # the picked node's edge to its source: one 1-D norm per tree
    picked = np.array([r[-1] for r in rows])
    dv = origins - picked
    one_d = [np.linalg.norm(v) for v in dv]
    assert np.sqrt(np.vecdot(dv, dv)).tobytes() == np.array(one_d).tobytes()
    # area powers of a flat candidate list, per element as in one tree
    areas = np.abs(np.concatenate(rows).ravel()) + 0.5
    for alpha in (0.5, 0.3, 1.0, 0.0):
        whole = areas ** alpha
        assert whole.tobytes() == np.concatenate([areas[k:k + 7] ** alpha
                                                  for k in range(0, areas.size, 7)]).tobytes()


def test_forest_logs_one_summary_after_the_tree_lines(caplog):
    problem, alpha = huddle_problem(144)
    with caplog.at_level(logging.DEBUG, logger="branchflow.branching"):
        build_forest(
            [narrow_problem(), problem, narrow_problem()],
            [BotParams(alpha=0.5), BotParams(alpha=alpha), BotParams(alpha=0.5, seed=3)],
        )
    assert [r.getMessage() for r in caplog.records] == [
        "build_one_to_many N=2: 2 iterations, 1 merges, 1 retirements, "
        "1 candidate evals, 1 merges in the near band",
        "build_one_to_many N=31: 31 iterations, 27 merges, 4 retirements, "
        "369 candidate evals, 26 merges in the near band",
        "build_one_to_many N=2: 2 iterations, 1 merges, 1 retirements, "
        "1 candidate evals, 1 merges in the near band",
        "build_forest: 3 trees in 2 blocks, 33 lockstep steps, 35 padded cells, "
        "2 far-band scans",
    ]


def test_forest_checks_its_arguments():
    problem = narrow_problem()
    assert build_forest([], []) == []
    with pytest.raises(ParameterError, match="one entry per problem"):
        build_forest([problem, problem], [BotParams()])
    with pytest.raises(ParameterError, match="one entry per problem"):
        build_forest([problem], [BotParams()], eps=[None, None])
    with pytest.raises(ParameterError, match="same dimension"):
        build_forest([problem], [BotParams()], eps=[np.zeros(3)])
