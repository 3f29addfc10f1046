"""Closed-form branch points and the greedy/tabu tree builder."""

import dataclasses
import hashlib
import logging
import math
import warnings

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
    # NaN and inf areas fail the check too, rather than giving NaN or a warning
    points = ([0, 0], [1, 0], [0, 1])
    for bad in (math.nan, math.inf):
        for s_i, s_j in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ParameterError):
                branch_point_power(*points, s_i, s_j, 0.5)
            with pytest.raises(ParameterError):
                branch_point_interp(*points, s_i, s_j, 0.5)
            with pytest.raises(ParameterError):
                local_improvement(*points, [0.5, 0.5], s_i, s_j, 0.5)


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
    # a str delta met the range test first and raised its TypeError
    for delta in (0.0, -1.0, math.nan, math.inf, "a", None):
        with pytest.raises(ParameterError, match="delta must be finite and positive"):
            branch_point_shifted([0, 0], [1, 0], [0, 1], 1.0, 1.0, 0.5, np.zeros(2), delta)
    with pytest.raises(ParameterError):
        branch_point_shifted([0, 0], [1, 0], [0, 1], 1.0, 1.0, 0.5, np.zeros(3), 0.01)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="eps must be finite"):
            branch_point_shifted([0, 0], [1, 0], [0, 1], 1.0, 1.0, 0.5, [bad, 0.0], 0.01)


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


@st.composite
def scalar_merges(draw):
    """Random problems of two targets (or a few, or 40, whose picks include
    branch nodes made since the lone tree last filled its lengths), in 2-D
    and 3-D, scaled by 1, 1e+-150 or 1e-3, with alpha in [0, 1], either
    formula and, for interp, sometimes a shift."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([2, 2, 6, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150, 1e-3]))
    formula = draw(st.sampled_from(["interp", "power"]))
    shifted = formula == "interp" and draw(st.booleans())
    params = BotParams(
        alpha=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))),
        formula=formula,
        shift_norm=0.05 * scale if shifted else 0.0,
        seed=draw(st.integers(0, 99)),
    )
    source = rng.uniform(-1.0, 1.0, d) * scale
    targets = (np.ones(d) + rng.normal(0.0, 0.3, (n, d))) * scale
    return OneToManyProblem(source, targets, rng.uniform(0.01, 1.0, n)), params


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scalar_merges())
def test_scalar_functions_give_the_builders_bits(case):
    """Every merge of a lone build and of a lockstep forest inserts the
    bytes of the public branch point and gains local_improvement's bits."""
    problem, params = case
    alpha = params.alpha
    alone = build_one_to_many(problem, params)
    for result in [alone] + build_forest([problem] * 2, [params] * 2):
        tree, v_k = result.tree, result.tree.coords[0]
        for event in result.events:
            if event.partner is None:
                continue
            v_i, v_j, z = tree.coords[[event.picked, event.partner, event.branch]]
            s_i, s_j = tree.area[event.picked], tree.area[event.partner]
            if params.formula == "power":
                want = branch_point_power(v_k, v_i, v_j, s_i, s_j, alpha)
            elif result.eps is not None:
                want = branch_point_shifted(v_k, v_i, v_j, s_i, s_j, alpha,
                                            result.eps, params.shift_delta)
            else:
                want = branch_point_interp(v_k, v_i, v_j, s_i, s_j, alpha)
            assert want.tobytes() == z.tobytes()
            gain = local_improvement(v_k, v_i, v_j, z, s_i, s_j, alpha)
            assert gain.hex() == event.gain.hex()


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


@st.composite
def reflected_builds(draw):
    """A problem, its mirror image under negating a drawn subset of the
    coordinate axes, and unshifted params."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(-3, 4, (n + 1, d)).astype(float)
    else:
        points = rng.uniform(-1.0, 1.0, (n + 1, d))
    areas = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.uniform(0.01, 1.0, n) ** 3
    flip = np.where(draw(st.lists(st.booleans(), min_size=d, max_size=d)), -1.0, 1.0)
    params = BotParams(alpha=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                       formula=draw(st.sampled_from(["interp", "power"])),
                       seed=draw(st.integers(0, 99)))
    problem = OneToManyProblem(points[0], points[1:], areas)
    return problem, OneToManyProblem(points[0] * flip, points[1:] * flip, areas), flip, params


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reflected_builds())
def test_build_commutes_with_reflections(case):
    # negation is exact and every branch-point formula is odd in the
    # coordinates, so a mirrored build is the mirror of the build bit for bit;
    # coords compare by value, because a 0.0 may come back as -0.0
    problem, mirrored, flip, params = case
    base = build_one_to_many(problem, params)
    out = build_one_to_many(mirrored, params)
    for field in ("parent", "kind", "area"):
        assert getattr(out.tree, field).tobytes() == getattr(base.tree, field).tobytes()
    assert out.trace.tobytes() == base.trace.tobytes()
    assert np.array_equal(out.tree.coords, base.tree.coords * flip)


@st.composite
def quarter_turned_builds(draw):
    """A 2-D problem with its source at the origin, the same problem turned a
    quarter turn about it, (x, y) -> (-y, x), and unshifted params."""
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.uniform(-1.0, 1.0, (n, 2))
    areas = rng.uniform(0.01, 1.0, n)
    params = BotParams(alpha=draw(st.sampled_from([0.25, 0.5, 0.9])),
                       formula=draw(st.sampled_from(["interp", "power"])))
    return (OneToManyProblem([0.0, 0.0], targets, areas),
            OneToManyProblem([0.0, 0.0], targets[:, ::-1] * [-1.0, 1.0], areas), params)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(quarter_turned_builds())
def test_build_commutes_with_quarter_turns(case):
    # a quarter turn is exact and every branch-point formula acts coordinate by
    # coordinate, so each coordinate is the turned one; a length may round its two
    # squares' sum another way, so the costs agree only to rounding
    problem, turned, params = case
    base = build_one_to_many(problem, params)
    out = build_one_to_many(turned, params)
    for field in ("parent", "kind", "area"):
        assert getattr(out.tree, field).tobytes() == getattr(base.tree, field).tobytes()
    assert np.array_equal(out.tree.coords, base.tree.coords[:, ::-1] * [-1.0, 1.0])
    np.testing.assert_allclose(out.trace, base.trace, rtol=1e-12, atol=0.0)


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


@st.composite
def rigid_motions(draw):
    """Three points, areas and a shift vector in 2-D or 3-D at one of three
    scales, an alpha in [0, 1], and a random rotation (the Q of a normal
    matrix's QR, turned proper) with a translation at the same scale."""
    d = draw(st.sampled_from([2, 3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    alpha = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    points = scale * rng.uniform(-3.0, 3.0, (3, d))
    eps = scale * rng.uniform(-1.0, 1.0, d)
    s_i, s_j = rng.uniform(0.1, 2.0, 2)
    return points, eps, s_i, s_j, alpha, rot, scale * rng.uniform(-4.0, 4.0, d), scale


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(rigid_motions())
def test_branch_points_commute_with_rigid_motions(case):
    # every rule commutes with the motion, the shifted one with eps turned
    # too, and the improvement of rerouting through z does not change
    points, eps, s_i, s_j, alpha, rot, shift, scale = case
    moved = points @ rot.T + shift
    tol = 1e-9 * scale
    for fn in (branch_point_power, branch_point_interp):
        z = fn(*points, s_i, s_j, alpha)
        assert np.max(np.abs(fn(*moved, s_i, s_j, alpha) - (rot @ z + shift))) <= tol
    z = branch_point_shifted(*points, s_i, s_j, alpha, eps=eps, delta=0.01)
    z_moved = branch_point_shifted(*moved, s_i, s_j, alpha, eps=rot @ eps, delta=0.01)
    assert np.max(np.abs(z_moved - (rot @ z + shift))) <= tol
    gain = local_improvement(*points, z, s_i, s_j, alpha)
    assert abs(local_improvement(*moved, z_moved, s_i, s_j, alpha) - gain) <= tol


def test_build_empty_targets_rejected():
    with pytest.raises(ParameterError):
        OneToManyProblem([0.0, 0.0], np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_problem_rejects_coordinates_whose_squares_overflow(scale):
    # the builder used to overflow squaring these, warn, and return an
    # inf trace; pytest turns such a warning into an error
    targets = random_problem(0, 30).targets * scale
    with pytest.raises(ParameterError, match="squared distances overflow"):
        OneToManyProblem([0.0, 0.0], targets, np.full(30, 1 / 30))


def test_problem_rejects_targets_whose_mutual_distance_overflows():
    # each target's squared distance to the source, 1.44e308, is finite
    with pytest.raises(ParameterError, match="squared distances overflow"):
        OneToManyProblem([0.0, 0.0], [[1.2e154, 0.0], [-1.2e154, 0.0]], [0.5, 0.5])


def test_build_near_1e150_is_the_unit_build_scaled():
    unit = random_problem(0, 30)
    params = BotParams(alpha=0.5)
    want = build_one_to_many(unit, params)
    # a power of two scales every coordinate, length, gain and cost exactly
    s = 2.0**498   # about 8.2e149
    got = build_one_to_many(OneToManyProblem(unit.source, unit.targets * s, unit.areas), params)
    assert np.array_equal(got.tree.parent, want.tree.parent)
    assert np.array_equal(got.tree.coords, want.tree.coords * s)
    assert np.array_equal(got.trace, want.trace * s)
    big = build_one_to_many(OneToManyProblem(unit.source, unit.targets * 1e150, unit.areas), params)
    assert np.all(np.isfinite(big.trace)) and np.all(np.diff(big.trace) < 0)


@pytest.mark.parametrize("shift", [{"eps": [1e308, 1e308]}, {"shift_norm": 1e300}])
def test_build_huge_shift_matches_full_scan_without_warning(shift):
    """Shifted branch points overflow to inf, on a lone tree's Python floats
    as in a block's arrays: the forest's wide tree runs its tail alone."""
    params = BotParams(alpha=0.5, shift_norm=shift.get("shift_norm", 0.0))
    eps = shift.get("eps")
    wide, narrow = random_problem(5, 30), random_problem(6, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = build_one_to_many(wide, params, eps=eps)
        forest = build_forest([wide, narrow], [params] * 2, eps=[eps, eps])
    for problem, result in [(wide, alone), (wide, forest[0]), (narrow, forest[1])]:
        assert np.all(np.diff(result.trace) < 0)
        with np.errstate(over="ignore"):
            want = full_scan_build(problem, params, eps=eps)
        assert result.events == want.events
        assert result.trace.tobytes() == want.trace.tobytes()
        assert result.tree.coords.tobytes() == want.tree.coords.tobytes()


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


@pytest.mark.parametrize("post_point", [lambda z: z[:, :1], lambda z: z[:1], np.ndarray.tolist])
def test_build_rejects_a_post_point_that_changes_the_shape(post_point):
    # a dropped coordinate was stored as [x, 0.0] or met numpy's broadcast error
    with pytest.raises(ParameterError, match="post_point must return an array of shape"):
        build_one_to_many(synthetic_problem(0, 5), BotParams(), post_point=post_point)
    with pytest.raises(ParameterError, match="post_point must return an array of shape"):
        build_one_to_many(synthetic_problem(0, 6), BotParams(), post_point=post_point)
    with pytest.raises(ParameterError, match="post_point must return an array of shape"):
        build_forest([synthetic_problem(0, 6)] * 2, [BotParams()] * 2, post_point=post_point)


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
    if name == "interp-4000-alpha-0.95":
        return [build_one_to_many(synthetic_problem(5, 4000), BotParams(alpha=0.95, seed=5))], 0.95
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
    ("interp-4000-alpha-0.95", "f7e020268972e83a356e665c3c3748aa606a28a2d903c1aa5d769918773e90ff"),
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


def ring_targets(rng, n, d):
    """n integer points drawn with repetition from those at one distance
    from the origin: the 12 with x^2 + y^2 = 25 in 2-D, the 30 with
    x^2 + y^2 + z^2 = 9 in 3-D.  Every first pick is a tie that only the
    id order resolves, and duplicates tie at distance 0 in the scan."""
    r2 = 25 if d == 2 else 9
    k = math.isqrt(r2)
    grid = np.stack(np.meshgrid(*[np.arange(-k, k + 1)] * d), axis=-1).reshape(-1, d)
    ring = grid[np.sum(grid * grid, axis=1) == r2]
    assert len(ring) == (12 if d == 2 else 30)
    return ring[rng.integers(0, len(ring), n)].astype(float)


@st.composite
def small_builds(draw):
    """Small problems full of ties: grid or collinear points, equal areas."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grid", "collinear", "uniform", "huddle", "ring"]))
    if layout == "grid":
        targets = rng.integers(-3, 4, (n, d)).astype(float)
    elif layout == "collinear":
        targets = np.zeros((n, d))
        targets[:, 0] = rng.integers(-8, 9, n)
    elif layout == "uniform":
        targets = rng.uniform(-1.0, 1.0, (n, d))
    elif layout == "ring":
        targets = ring_targets(rng, n, d)
    else:  # half the targets at the source: near neighbors that do not pay
        targets = rng.uniform(-1.0, 1.0, (n, d))
        targets[: n // 2] = rng.normal(0.0, 0.03, (n // 2, d))
    source = np.zeros(d) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, d)
    if layout in ("huddle", "ring"):
        source = np.zeros(d)
    areas = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.uniform(0.01, 1.0, n) ** 3
    params = BotParams(
        alpha=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))),
        formula=draw(st.sampled_from(["interp", "power"])),
        shift_norm=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 99)),
    )
    options = {}
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


def assert_matches_full_scan(result, problem, params):
    want = full_scan_build(problem, params)
    assert result.events == want.events
    assert result.trace.tobytes() == want.trace.tobytes()
    assert result.tree.coords.tobytes() == want.tree.coords.tobytes()


def test_build_nearest_tie_goes_on_to_the_higher_id():
    """The first pick, target 2 at (-3, -3), has targets 3 and 4 both at
    distance sqrt(17).  The nearest scan takes target 3, the lower id,
    which does not pay; the wider scan must still reach target 4."""
    problem = OneToManyProblem([0.0, 0.0], [[-1.0, 1.0], [-3.0, -3.0], [-2.0, 1.0], [1.0, -4.0]],
                               np.array([12.0, 8.0, 4.0, 1.0]) / 20)
    params = BotParams(alpha=0.25)
    v_i = problem.targets[1]
    dist = np.linalg.norm(problem.targets[2:] - v_i, axis=1)
    assert dist[0] == dist[1] < np.linalg.norm(problem.targets[0] - v_i)
    for j in (3, 4):
        gain = local_improvement(problem.source, v_i, problem.targets[j - 1],
                                 branch_point_interp(problem.source, v_i, problem.targets[j - 1],
                                                     0.4, problem.areas[j - 1], 0.25),
                                 0.4, problem.areas[j - 1], 0.25)
        assert (gain > branching.GAIN_TOL) == (j == 4)
    result = build_one_to_many(problem, params)
    assert (result.events[0].picked, result.events[0].partner) == (2, 4)
    assert_matches_full_scan(result, problem, params)


def test_build_logs_scan_counts(caplog):
    with caplog.at_level(logging.DEBUG, logger="branchflow.branching"):
        build_one_to_many(narrow_problem(), BotParams(alpha=0.5))
        problem, alpha = huddle_problem(144)
        build_one_to_many(problem, BotParams(alpha=alpha))
    assert [r.getMessage() for r in caplog.records] == [
        "build_one_to_many N=2: 2 iterations, 1 merges, 1 retirements, "
        "1 candidate evals",
        "build_one_to_many N=31: 31 iterations, 27 merges, 4 retirements, "
        "116 candidate evals",
    ]


def test_lone_build_fills_lengths_in_few_passes(monkeypatch):
    """The lone tree computes its direct edges in passes over rows, not one
    numpy call per step: 13 calls for these 4000 targets, widened scans
    included."""
    rows = []
    direct_edge = branching._direct_edge

    def counted(w, v_k, v_i):
        rows.append(len(v_i))
        return direct_edge(w, v_k, v_i)

    monkeypatch.setattr(branching, "_direct_edge", counted)
    result = build_one_to_many(synthetic_problem(0, 4000), BotParams(alpha=0.5))
    assert len(result.events) == 4000
    assert rows[0] == 4000 and len(rows) <= 20


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
        layout = draw(st.sampled_from(["grid", "collinear", "uniform", "huddle", "ring"]))
        if layout == "grid":
            targets = rng.integers(-3, 4, (n, d)).astype(float)
        elif layout == "collinear":
            targets = np.zeros((n, d))
            targets[:, 0] = rng.integers(-8, 9, n)
        elif layout == "ring":
            targets = ring_targets(rng, n, d)
        else:
            targets = rng.uniform(-1.0, 1.0, (n, d))
            if layout == "huddle":
                targets[: n // 2] = rng.normal(0.0, 0.03, (n // 2, d))
        source = np.zeros(d) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, d)
        if layout == "ring":
            source = np.zeros(d)
        areas = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.uniform(0.01, 1.0, n) ** 3
        problems.append(OneToManyProblem(source, targets, areas))
        params.append(BotParams(alpha=own["alpha"], formula=own["formula"],
                                shift_norm=own["shift_norm"], seed=draw(st.integers(0, 99))))
        eps.append(rng.normal(0.0, 0.05, d) if draw(st.integers(0, 4)) == 0 else None)
    options = {}
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


@pytest.mark.parametrize("formula", ["interp", "power"])
@pytest.mark.parametrize("alpha", [np.float32(0.3), np.float64(0.3)], ids=["float32", "float64"])
def test_engines_agree_for_a_numpy_alpha(formula, alpha):
    """BotParams keeps alpha as a Python float, so the lone tree's float
    arithmetic and the lockstep rows run in one precision."""
    problem, params = synthetic_problem(0, 50), BotParams(alpha=alpha, formula=formula)
    assert type(params.alpha) is float and params.alpha == float(alpha)
    alone = build_one_to_many(problem, params)
    lockstep = build_forest([problem, problem], [params, params])[0]
    assert tree_bytes(alone, params.alpha) == tree_bytes(lockstep, params.alpha)


def to_unit_sphere(points):
    norm = np.linalg.norm(points, axis=1, keepdims=True)
    return np.divide(points, norm, out=points.copy(), where=norm > 0)


@st.composite
def wide_builds(draw):
    """Lone trees wide enough that the cell lists are rebuilt, search past
    the first rings and fall back on every node: ties on an integer grid,
    duplicate targets, a tight cluster with one far target, in 2-D and
    3-D, with a shift or a unit-sphere post_point, scaled by 2**+-498."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(100, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grid", "duplicates", "cluster", "uniform"]))
    if layout == "grid":
        targets = rng.integers(-5, 6, (n, d)).astype(float)
    elif layout == "duplicates":
        targets = rng.uniform(-1.0, 1.0, (n // 5 + 1, d))[rng.integers(0, n // 5 + 1, n)]
    elif layout == "cluster":
        targets = rng.normal(0.7, 1e-4, (n, d))
        targets[rng.integers(n)] = -9.0
    else:
        targets = rng.uniform(-1.0, 1.0, (n, d))
    source = np.zeros(d) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, d)
    areas = np.full(n, 1.0 / n) if draw(st.booleans()) else rng.uniform(0.01, 1.0, n) ** 3
    params = BotParams(
        alpha=draw(st.sampled_from([0.0, 0.5, 0.95, 1.0])),
        formula=draw(st.sampled_from(["interp", "power"])),
        shift_norm=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 99)),
    )
    options = {"post_point": to_unit_sphere} if draw(st.integers(0, 3)) == 0 else {}
    scale = draw(st.sampled_from([2.0**-498, 1.0, 2.0**498]))
    return OneToManyProblem(source * scale, targets * scale, areas), params, options


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(wide_builds())
def test_wide_lone_build_matches_full_scan(build):
    problem, params, options = build
    got = build_one_to_many(problem, params, **options)
    want = full_scan_build(problem, params, **options)
    assert got.events == want.events
    assert got.trace.tobytes() == want.trace.tobytes()
    assert got.tree.coords.tobytes() == want.tree.coords.tobytes()
    assert np.array_equal(got.tree.parent, want.tree.parent)
    assert got.candidate_evals <= want.candidate_evals


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
        # the nearest distance, NaN padding dropped
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
        "1 candidate evals",
        "build_one_to_many N=31: 31 iterations, 27 merges, 4 retirements, "
        "116 candidate evals",
        "build_one_to_many N=2: 2 iterations, 1 merges, 1 retirements, "
        "1 candidate evals",
        "build_forest: 3 trees in 2 blocks, 33 lockstep steps (31 with one tree), "
        "35 padded cells, 26 of 32 tree scans settled by the nearest, 5 widened scans",
    ]


def test_forest_widens_the_scan_for_one_tree_of_a_block(caplog):
    """At the first step the nearest node pays for the first and third
    trees but not for the second, whose wider scan then merges: the
    lockstep block runs the wider scan for one tree of three."""
    layouts = [
        ([[0, 1], [2, -3], [-7, 6], [9, -5], [-4, 7]], [4, 3, 8, 3, 4]),
        ([[0, -2], [-3, 1], [5, 6], [1, 6], [-3, -1]], [8, 2, 3, 2, 5]),
        ([[-2, -1], [-1, 2], [-2, 0], [-5, -9], [5, -8], [-4, 0]], [5, 2, 9, 7, 9, 1]),
    ]
    problems = [OneToManyProblem([0.0, 0.0], np.array(t) / 10, np.array(a) / 10)
                for t, a in layouts]
    params = BotParams(alpha=0.5)
    with caplog.at_level(logging.DEBUG, logger="branchflow.branching"):
        got = build_forest(problems, [params] * 3)
    assert caplog.records[-1].getMessage() == (
        "build_forest: 3 trees in 1 blocks, 6 lockstep steps (1 with one tree), "
        "18 padded cells, 6 of 13 tree scans settled by the nearest, 4 widened scans"
    )
    for problem, result in zip(problems, got):
        alone = build_one_to_many(problem, params)
        assert tree_bytes(result, 0.5) == tree_bytes(alone, 0.5)
        assert_matches_full_scan(result, problem, params)


def test_forest_checks_its_arguments():
    problem = narrow_problem()
    assert build_forest([], []) == []
    # these raised TypeError or AttributeError
    with pytest.raises(ParameterError, match="problems, params and eps must be sequences"):
        build_forest([problem], BotParams())
    with pytest.raises(ParameterError, match="problems, params and eps must be sequences"):
        build_forest([problem], [BotParams()], eps=5)
    with pytest.raises(ParameterError, match="expected OneToManyProblem instances, got list"):
        build_forest([[0, 0]], [BotParams()])
    with pytest.raises(ParameterError, match="expected BotParams instances, got float"):
        build_one_to_many(problem, 0.5)
    with pytest.raises(ParameterError, match="^formula must be 'interp' or 'power', got 'x'$"):
        BotParams(formula="x")
    with pytest.raises(ParameterError, match="one entry per problem"):
        build_forest([problem, problem], [BotParams()])
    with pytest.raises(ParameterError, match="one entry per problem"):
        build_forest([problem], [BotParams()], eps=[None, None])
    with pytest.raises(ParameterError, match="same dimension"):
        build_forest([problem], [BotParams()], eps=[np.zeros(3)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="eps must be finite"):
            build_one_to_many(problem, BotParams(), eps=np.array([bad, 0.0]))
        with pytest.raises(ParameterError, match="eps must be finite"):
            build_forest([problem, problem], [BotParams()] * 2, eps=[None, [0.0, bad]])
    # an explicit eps uses the shift even at shift_norm 0, so shift_delta is checked
    for delta in (-0.5, 0.0, np.nan, np.inf):
        params = BotParams(shift_delta=delta)
        with pytest.raises(ParameterError, match="shift_delta must be finite and positive"):
            build_one_to_many(synthetic_problem(0, 30), params, eps=np.array([0.1, 0.1]))
        with pytest.raises(ParameterError, match="shift_delta must be finite and positive"):
            build_forest([problem], [params], eps=[np.zeros(2)])
