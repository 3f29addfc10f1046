"""Domain types, cost functional, and structural validation."""

import ast
import copy
import math
import os
import pydoc
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import branchflow
from branchflow import (
    BotParams,
    FlowTree,
    OneToManyProblem,
    ParameterError,
    StructuralError,
    TransportInstance,
    TransportPlan,
    WeightedPointSet,
    bot_cost,
    build_one_to_many,
    cost_matrix,
    load_cities_csv,
    network_from_json,
    network_to_json,
    sample_cities_path,
    santa_pipeline,
    solve_exact,
    subadditivity_gain,
    validate_tree,
    weighted_kmeans,
)
from branchflow.core import _sourced_forest
from oracles import per_node_children, per_node_validate_tree


def single_edge_tree(length=2.0, area=1.0):
    return FlowTree(
        coords=[[0.0, 0.0], [length, 0.0]],
        kind=["source", "target"],
        parent=[-1, 0],
        area=[area, area],
    )


def y_tree():
    """Source at origin, branch at (0.5, 0), two symmetric leaves."""
    return FlowTree(
        coords=[[0.0, 0.0], [0.5, 0.0], [1.0, 0.2], [1.0, -0.2]],
        kind=["source", "branch", "target", "target"],
        parent=[-1, 0, 1, 1],
        area=[1.0, 1.0, 0.5, 0.5],
    )


# ---------------------------------------------------------------------------
# bot_cost


def test_bot_cost_single_edge():
    assert bot_cost(single_edge_tree(), 0.5) == 2.0


def test_bot_cost_y_tree_hand_value():
    # 1.0**0.5 * 0.5 + 2 * 0.5**0.5 * hypot(0.5, 0.2)
    expected = 0.5 + 2.0 * math.sqrt(0.5) * math.hypot(0.5, 0.2)
    got = bot_cost(y_tree(), 0.5)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.261577, abs=1e-6)


def test_bot_cost_alpha_zero_is_total_length():
    tree = y_tree()
    total_len = 0.5 + 2.0 * math.hypot(0.5, 0.2)
    assert bot_cost(tree, 0.0) == pytest.approx(total_len, rel=1e-12)


def test_bot_cost_scales_linearly_with_coordinates():
    tree = y_tree()
    base = bot_cost(tree, 0.3)
    doubled = FlowTree(tree.coords * 2.0, tree.kind, tree.parent, tree.area)
    assert bot_cost(doubled, 0.3) == 2.0 * base
    scaled = FlowTree(tree.coords * 3.7, tree.kind, tree.parent, tree.area)
    assert bot_cost(scaled, 0.3) == pytest.approx(3.7 * base, rel=1e-12)


def test_bot_cost_alpha_one_matches_mass_times_distance():
    tree = y_tree()
    lengths = tree.edge_lengths()
    expected = float(np.sum(tree.area[1:] * lengths[1:]))
    assert bot_cost(tree, 1.0) == pytest.approx(expected, rel=1e-15)


def test_bot_cost_rejects_bad_alpha_and_bad_tree():
    with pytest.raises(ParameterError):
        bot_cost(single_edge_tree(), 1.5)
    # a broken tree never reaches bot_cost: constructing it raises
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0]],
            kind=["source", "target"],
            parent=[-1, 0],
            area=[1.0, 0.4],
        )
    (bad,) = excinfo.value.report.violations
    assert (bad.kind, bad.nodes) == ("conservation", (0,))
    assert bad.residual == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# validate_tree


def test_validate_single_edge_passes():
    report = validate_tree(single_edge_tree())
    assert report.ok
    assert bool(report)
    assert report.summary() == "valid"


def test_validate_conservation_residual():
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [2.0, -0.5]],
            kind=["source", "branch", "target", "target"],
            parent=[-1, 0, 1, 1],
            area=[1.0, 1.0, 0.5, 0.4],
        )
    report = excinfo.value.report
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert "conservation" in kinds
    bad = [v for v in report.violations if v.kind == "conservation"]
    assert any(abs(v.residual - 0.1) < 1e-12 for v in bad)
    assert any(1 in v.nodes for v in bad)


def test_validate_mutual_parents_is_cycle():
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            kind=["source", "branch", "branch"],
            parent=[-1, 2, 1],
            area=[1.0, 1.0, 1.0],
        )
    report = excinfo.value.report
    assert any(v.kind == "cycle" for v in report.violations)


def test_validate_orphan_and_source_count():
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(  # no source
            coords=[[0.0, 0.0], [1.0, 0.0]],
            kind=["target", "target"],
            parent=[-1, 0],
            area=[1.0, 1.0],
        )
    kinds = [v.kind for v in excinfo.value.report.violations]
    assert "source-count" in kinds

    with pytest.raises(StructuralError) as excinfo:
        FlowTree(  # dangling parent
            coords=[[0.0, 0.0], [1.0, 0.0]],
            kind=["source", "target"],
            parent=[-1, 7],
            area=[1.0, 1.0],
        )
    kinds = [v.kind for v in excinfo.value.report.violations]
    assert "orphan" in kinds


def test_long_bad_kinds_are_not_truncated():
    # "sourcery"/"targeted" must not be cut to six characters ("source",
    # "target"), which would make the tree look valid
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0]],
            kind=["sourcery", "targeted"],
            parent=[-1, 0],
            area=[1.0, 1.0],
        )
    bad = [v for v in excinfo.value.report.violations if v.kind == "bad-kind"]
    assert [v.nodes for v in bad] == [(0,), (1,)]
    assert "'sourcery'" in bad[0].message
    assert single_edge_tree().kind.dtype == np.dtype("U6")


def test_validate_target_must_be_leaf():
    with pytest.raises(StructuralError) as excinfo:
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            kind=["source", "target", "target"],
            parent=[-1, 0, 1],
            area=[1.0, 1.0, 1.0],
        )
    kinds = [v.kind for v in excinfo.value.report.violations]
    assert "target-not-leaf" in kinds


def test_validate_demands_checked_when_given():
    tree = single_edge_tree()
    assert validate_tree(tree, demands={1: 1.0}).ok
    report = validate_tree(tree, demands={1: 0.7})
    assert any(v.kind == "demand-mismatch" for v in report.violations)
    report = validate_tree(tree, demands={0: 1.0})
    assert any(v.kind == "demand-mismatch" for v in report.violations)


def test_valid_tree_source_equals_sum_of_targets():
    tree = y_tree()
    assert validate_tree(tree).ok
    targets = tree.kind == "target"
    assert tree.area[0] == pytest.approx(float(tree.area[targets].sum()), rel=1e-12)


def test_non_finite_source_area_rejected():
    # a NaN residual compared False against the tolerance, so this built
    # and even survived the JSON round trip
    with pytest.raises(ParameterError, match="area"):
        FlowTree([[0, 0], [1, 0]], ["source", "target"], [-1, 0], [math.nan, 1.0])


def test_infinite_areas_rejected():
    # an infinite residual compared against an infinite tolerance, and the
    # tree was written as "area":Infinity, which the parser rejects
    with pytest.raises(ParameterError, match="area"):
        FlowTree([[0, 0], [1, 0]], ["source", "target"], [-1, 0], [math.inf, math.inf])


@pytest.mark.parametrize("parent", [[-1, 0.7], [-1.5, 0], [-1, "0"]])
def test_non_integer_parents_rejected(parent):
    # a cast to int64 would truncate the floats and parse the string into
    # the valid parents [-1, 0]
    with pytest.raises(ParameterError, match="parent"):
        FlowTree([[0, 0], [1, 0]], ["source", "target"], parent, [1.0, 1.0])


def test_integer_parent_dtypes_accepted():
    for dtype in (np.int8, np.int32, np.int64):
        tree = FlowTree([[0, 0], [1, 0]], ["source", "target"], np.array([-1, 0], dtype=dtype),
                        [1.0, 1.0])
        assert tree.parent.dtype == np.int64
        assert tree.parent.tolist() == [-1, 0]
    # uint64 ids cannot all be held by int64
    with pytest.raises(ParameterError, match="parent"):
        FlowTree([[0, 0], [1, 0]], ["source", "target"], np.array([0, 0], dtype=np.uint64),
                 [1.0, 1.0])


@pytest.mark.parametrize("build", [
    lambda: OneToManyProblem(["a", 0], [[1, 0]], [1]),
    lambda: OneToManyProblem([0, 0], [[1, 0]], ["a"]),
    lambda: OneToManyProblem([0, 0], [[1, 0], [1]], [1, 1]),   # ragged
    lambda: OneToManyProblem([1j, 0], [[1, 0]], [1]),
    lambda: TransportInstance([[0, 0]], [["a", 1]], [1], [1]),
    lambda: TransportInstance([[0, 0]], [[0, 1]], [1], ["a"]),
    lambda: TransportPlan([["a"]], [1], [1]),
    lambda: FlowTree([[0, 0], ["a", 0]], ["source", "target"], [-1, 0], [1.0, 1.0]),
    lambda: FlowTree([[0, 0], [1, 0]], ["source", "target"], [-1, 0], ["a", 1.0]),
    lambda: WeightedPointSet([[0, "a"]], [1]),
], ids=["point", "area", "ragged-targets", "complex", "targets", "mass", "gamma",
        "coords", "tree-area", "weighted-points"])
def test_non_numeric_points_and_masses_raise_parameter_error(build):
    # numpy's float conversion raised its own ValueError or TypeError
    with pytest.raises(ParameterError, match="must hold real numbers"):
        build()


# ---------------------------------------------------------------------------
# validate_tree against the per-node reference

BAD_KINDS = ["sourcery", "targeted", "", "x", "branc", "Target", "branch!"]


def report_bits(report):
    """A report with every residual as its exact bits."""
    return [(v.kind, v.nodes, None if v.residual is None else float(v.residual).hex(), v.message)
            for v in report.violations]


@st.composite
def raw_trees(draw):
    """Node arrays of a random valid tree, then a few drawn defects.

    Node ids are shuffled, so children are not numbered after their
    parents.  A hub takes a share of the nodes, for fan-outs of 8 or more
    and of 128 or more, where the order of a sum shows in its low bits.
    About half the trees get no structural defect, only nudged
    areas.  Returns (coords, kind, parent, area, demands); demands is
    None or a dict of target, non-target and out-of-range ids.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 12, 30, 140, 300, 300]))
    hub_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    up = [-1] + [0 if rng.random() < hub_share else int(rng.integers(0, i)) for i in range(1, n)]
    perm = rng.permutation(n)
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        parent[perm[i]] = perm[up[i]]
    kids = per_node_children(SimpleNamespace(n_nodes=n, parent=parent))
    kind = np.array(["target" if not k else "branch" for k in kids], dtype=object)
    kind[perm[0]] = "source"
    scale = draw(st.sampled_from([1.0, 1e3, 1e-3]))
    area = np.zeros(n)
    for i in reversed(range(n)):  # children before parents
        node = perm[i]
        area[node] = area[kids[node]].sum() if kids[node] else rng.uniform(0.01, 1.0) ** 3 * scale

    internal = [i for i in range(n) if kids[i]]
    hub = perm[0] if not internal else max(internal, key=lambda i: len(kids[i]))

    def node():
        return int(rng.integers(0, n))

    if draw(st.booleans()):  # structural defects
        for _ in range(draw(st.integers(0, 2))):
            kind[node()] = draw(st.sampled_from(BAD_KINDS))
        if draw(st.integers(0, 5)) == 0:
            kind[node()] = "source"
        if draw(st.integers(0, 5)) == 0:
            kind[perm[0]] = draw(st.sampled_from(["branch", "target"]))
        if draw(st.integers(0, 5)) == 0:
            parent[perm[0]] = draw(st.sampled_from([node(), -2, n + 3]))
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            parent[node()] = draw(st.sampled_from([-1, -2, -9, n, n + 4]))
        if draw(st.integers(0, 5)) == 0:
            i = node()
            parent[i] = i
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
            # a cycle of 2 or more nodes; the nodes hanging off it become tails
            ring = rng.permutation(n)[:draw(st.integers(2, 12))]
            parent[ring] = np.roll(ring, -1)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            i = node()
            area[i] = draw(st.sampled_from([0.0, -0.0, -area[i], -1e-300]))
        if internal and draw(st.integers(0, 5)) == 0:
            kind[internal[int(rng.integers(0, len(internal)))]] = "target"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        # conservation off by one ulp, or by about the 1e-9 tolerance
        i = hub if draw(st.booleans()) else node()
        if draw(st.booleans()):
            area[i] = np.nextafter(area[i], draw(st.sampled_from([-np.inf, np.inf])))
        else:
            area[i] *= 1.0 + draw(st.floats(-3e-9, 3e-9))

    demands = None
    if draw(st.booleans()):
        demands = {int(i): float(area[i]) for i in rng.permutation(n)[:5]}
        for key in draw(st.lists(st.sampled_from([-1, n, n + 2, 0]), max_size=2)):
            demands[key] = 1.0
        for key in list(demands)[:draw(st.integers(0, 2))]:
            if key in range(n):
                demands[key] *= 1.0 + draw(st.floats(-3e-9, 3e-9))
    coords = rng.uniform(-1.0, 1.0, (n, draw(st.sampled_from([2, 3]))))
    return coords, kind.astype(str).tolist(), parent, area, demands


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(raw_trees())
def test_validate_tree_matches_per_node_reference(raw):
    coords, kind, parent, area, demands = raw
    want = per_node_validate_tree(SimpleNamespace(
        n_nodes=len(kind), kind=np.array(kind, dtype=str), parent=parent, area=area))
    try:
        tree = FlowTree(coords, kind, parent, area)
    except StructuralError as exc:
        assert not want.ok
        assert report_bits(exc.report) == report_bits(want)
        return
    assert want.ok and validate_tree(tree).ok
    assert tree.children() == per_node_children(tree)
    if demands is not None:
        got = validate_tree(tree, demands)
        assert report_bits(got) == report_bits(per_node_validate_tree(tree, demands))


DEMAND_TREE = FlowTree([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["source", "target", "target"],
                       [-1, 0, 0], [3.0, 1.0, 2.0])


@pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf, np.float64(math.nan)],
                         ids=["nan", "inf", "minus-inf", "numpy-nan"])
def test_validate_tree_reports_a_non_finite_demand_as_a_mismatch(demand):
    # the tolerance test was written so that NaN passed it, and inf met an inf tolerance
    demands = {1: 1.0, 2: demand}
    got = validate_tree(DEMAND_TREE, demands)
    assert [(v.kind, v.nodes) for v in got.violations] == [("demand-mismatch", (2,))]
    assert report_bits(got) == report_bits(per_node_validate_tree(DEMAND_TREE, demands))


def test_validate_tree_reports_a_demand_past_the_float_range_as_a_mismatch():
    # the int 10**400 raised a raw OverflowError in the finiteness test
    got = validate_tree(DEMAND_TREE, {1: 1.0, 2: 10**400})
    assert [(v.kind, v.nodes, v.residual) for v in got.violations] == \
        [("demand-mismatch", (2,), -math.inf)]
    assert got.violations[0].message == "target 2 carries 2.0 but was assigned inf"


@pytest.mark.parametrize("demands, message", [
    ({True: 1.0}, "a demand's node id must be an integer, got True"),
    ({1.5: 1.0}, "a demand's node id must be an integer, got 1.5"),
    ({"1": 1.0}, "a demand's node id must be an integer, got '1'"),
    ({1: "x"}, "demand for node 1 must be a real number, got 'x'"),
    ({1: None}, "demand for node 1 must be a real number, got None"),
], ids=["bool-key", "float-key", "str-key", "str-value", "none-value"])
def test_validate_tree_rejects_malformed_demands(demands, message):
    # numpy took True as a mask and 1.5 as a bad index, and subtracted "x" with its own error
    with pytest.raises(ParameterError, match=re.escape(message)):
        validate_tree(DEMAND_TREE, demands)


def test_validate_tree_matches_per_node_reference_on_santa_trees():
    cities = load_cities_csv(sample_cities_path()).cities
    network = santa_pipeline(cities, params=BotParams(alpha=0.5, seed=0))
    for _, _, tree in network.all_trees():
        assert report_bits(validate_tree(tree)) == report_bits(per_node_validate_tree(tree)) == []
        targets = {int(i): float(tree.area[i]) for i in np.flatnonzero(tree.kind == "target")}
        assert validate_tree(tree, targets) == per_node_validate_tree(tree, targets)
        assert tree.children() == per_node_children(tree)
        # the parser sums the source's outflow as the builder does
        doc = network_from_json(network_to_json(tree, 0.5))
        assert doc.tree.area.tobytes() == tree.area.tobytes()


# ---------------------------------------------------------------------------
# whole-forest finalisation against one tree at a time


def sourced_alone(coords, kind, parent, area):
    """One tree finalised alone: each source row, in id order, set to its
    outflow (the sum of its children's areas, in id order), then FlowTree.
    Returns the tree, or the error FlowTree raised."""
    area = np.array(area, dtype=float)
    kids = per_node_children(SimpleNamespace(n_nodes=len(kind), parent=parent))
    for s in np.flatnonzero(np.array(kind) == "source"):
        with np.errstate(over="ignore"):   # FlowTree rejects an inf outflow
            area[s] = area[kids[s]].sum()
    try:
        return FlowTree(coords, kind, parent, area)
    except (ParameterError, StructuralError) as exc:
        return exc


@st.composite
def raw_forests(draw):
    """A few of the raw_trees draws, valid and invalid, of both dimensions;
    now and then a tree whose source outflow overflows to inf."""
    forest = [raw[:4] for raw in draw(st.lists(raw_trees(), min_size=1, max_size=4))]
    if draw(st.integers(0, 4)) == 0:
        overflow = ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["source", "target", "target"],
                    np.array([-1, 0, 0]), np.array([0.0, 1e308, 1e308]))
        forest.insert(draw(st.integers(0, len(forest))), overflow)
    return forest


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(raw_forests())
def test_sourced_forest_matches_one_tree_at_a_time(forest):
    want = [sourced_alone(*tree) for tree in forest]
    coords = [np.array(c, dtype=float) for c, _, _, _ in forest]
    kind, parent, area = (np.concatenate([np.array(tree[i]) for tree in forest]) for i in (1, 2, 3))
    errors = [w for w in want if isinstance(w, Exception)]
    if errors:
        with pytest.raises(type(errors[0])) as info:
            _sourced_forest(coords, kind, parent, area.astype(float))
        assert str(info.value) == str(errors[0])
        if isinstance(errors[0], StructuralError):
            assert report_bits(info.value.report) == report_bits(errors[0].report)
        return
    got = _sourced_forest(coords, kind, parent, area.astype(float))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is FlowTree
        for name in ("coords", "kind", "parent", "area"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable


def test_sourced_forest_of_no_trees_is_empty():
    assert _sourced_forest([], np.array([], dtype=str), np.array([], dtype=np.int64),
                           np.array([])) == []


# ---------------------------------------------------------------------------
# subadditivity_gain


def test_subadditivity_hand_values():
    assert subadditivity_gain(1.0, 1.0, 0.5) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)
    assert subadditivity_gain(1.0, 1.0, 0.5) == pytest.approx(0.585786, abs=1e-6)
    assert subadditivity_gain(3.0, 7.0, 1.0) == 0.0
    assert subadditivity_gain(1.0, 1.0, 0.0) == 1.0


def test_subadditivity_strictly_positive_below_one():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        m1, m2 = rng.uniform(1e-3, 10.0, 2)
        alpha = rng.uniform(0.0, 0.999)
        assert subadditivity_gain(m1, m2, alpha) > 0.0


def test_subadditivity_rejects_nonpositive_masses():
    with pytest.raises(ParameterError):
        subadditivity_gain(0.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        subadditivity_gain(1.0, -2.0, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            subadditivity_gain(bad, 1.0, 0.5)
        with pytest.raises(ParameterError):
            subadditivity_gain(1.0, bad, 0.5)


# ---------------------------------------------------------------------------
# construction-time validation


def test_transport_instance_validation():
    xs = [[0.0, 0.0]]
    ys = [[1.0, 0.0], [0.0, 1.0]]
    TransportInstance(xs, ys, [1.0], [0.5, 0.5])
    with pytest.raises(ParameterError):
        TransportInstance(xs, ys, [1.0], [0.6, 0.6])
    with pytest.raises(ParameterError):
        TransportInstance(xs, ys, [1.0], [1.1, -0.1])
    with pytest.raises(ParameterError):
        TransportInstance(xs, [[0.0, 0.0], [0.0, 1.0]], [1.0], [0.5, 0.5])
    with pytest.raises(ParameterError):
        TransportInstance(xs, [[1.0, 0.0, 0.0]], [1.0], [1.0])


def test_transport_plan_marginal_error():
    plan = TransportPlan(
        gamma=[[0.5, 0.0], [0.0, 0.5]],
        row_marginal=[0.5, 0.5],
        col_marginal=[0.4, 0.6],
    )
    row_err, col_err = plan.marginal_error()
    assert row_err == 0.0
    assert col_err == pytest.approx(0.2, rel=1e-12)


def test_bot_params_validation():
    BotParams(alpha=0.0)
    BotParams(alpha=1.0, formula="power")
    with pytest.raises(ParameterError):
        BotParams(alpha=-0.1)
    with pytest.raises(ParameterError):
        BotParams(alpha=0.5, formula="cubic")
    with pytest.raises(ParameterError):
        BotParams(shift_norm=-1.0)
    with pytest.raises(ParameterError):
        BotParams(shift_norm=0.01, shift_delta=0.0)
    # delta is free to be anything when the shift is disabled
    BotParams(shift_norm=0.0, shift_delta=0.0)


@pytest.mark.parametrize("kwargs", [
    {"shift_norm": 0.01, "shift_delta": math.nan},
    {"shift_norm": 0.01, "shift_delta": math.inf},
    {"shift_norm": math.inf},
    {"shift_norm": math.nan},
    {"alpha": math.nan},
], ids=["nan-delta", "inf-delta", "inf-norm", "nan-norm", "nan-alpha"])
def test_bot_params_reject_non_finite(kwargs):
    with pytest.raises(ParameterError):
        BotParams(**kwargs)


@pytest.mark.parametrize("seed", [1.5, math.nan, "3", 2.0], ids=["float", "nan", "str", "whole-float"])
def test_bot_params_reject_non_integer_seed(seed):
    # int() would build seed 1's tree from 1.5 and fail late on NaN
    with pytest.raises(ParameterError, match="seed must be an integer"):
        BotParams(seed=seed)


def test_bot_params_accept_numpy_integer_seed():
    assert BotParams(seed=np.int64(7)).seed == 7


def test_flow_tree_helpers():
    tree = y_tree()
    assert tree.n_nodes == 4
    assert tree.dim == 2
    assert tree.children() == [[1], [2, 3], [], []]
    lengths = tree.edge_lengths()
    assert lengths[0] == 0.0
    assert lengths[1] == 0.5
    assert lengths[2] == pytest.approx(math.hypot(0.5, 0.2), rel=1e-15)


def test_flow_tree_shape_mismatch_rejected():
    with pytest.raises(ParameterError):
        FlowTree(
            coords=[[0.0, 0.0], [1.0, 0.0]],
            kind=["source"],
            parent=[-1, 0],
            area=[1.0, 1.0],
        )


def test_invalid_tree_rejected_under_optimize():
    # construction must check with real code, not with an assert that -O strips
    script = (
        "import sys, branchflow as bf\n"
        "try:\n"
        "    bf.FlowTree([[0, 0], [1, 0]], ['source', 'target'], [-1, 0], [1.0, 0.5])\n"
        "except bf.StructuralError as exc:\n"
        "    print(sys.flags.optimize, exc.report.violations[0].kind)\n"
    )
    src = str(Path(branchflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["1", "conservation"]


def test_package_has_no_assert_statements():
    # python -O strips asserts, so the package enforces its rules with real checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(branchflow.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_lists_the_public_names_and_pydoc_documents_each():
    # pydoc documents re-exported classes and functions only through __all__;
    # without it the package's page lists its submodules and nothing else
    public = sorted(name for name, value in vars(branchflow).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert branchflow.__all__ == public
    page = pydoc.render_doc(branchflow, renderer=pydoc.plaintext)
    assert [name for name in public if not re.search(rf"\b{name}\b", page)] == []


def test_array_holding_dataclasses_compare_and_hash_by_identity():
    # a field-wise == would compare arrays as a tuple and raise; these go by identity,
    # and np.array_equal compares their fields by value
    inst = TransportInstance([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
                             [0.5, 0.5], [0.2, 0.3, 0.5])
    problem = OneToManyProblem([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0])
    points = WeightedPointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]], [1, 2, 1, 1])
    build = build_one_to_many(problem, BotParams(alpha=0.5))
    objects = [inst, solve_exact(inst, cost_matrix(inst)), problem, points,
               weighted_kmeans(points, 2), build, build.tree, single_edge_tree()]
    assert {type(x).__name__ for x in objects} == {
        "TransportInstance", "TransportPlan", "OneToManyProblem", "WeightedPointSet",
        "KMeansResult", "BuildResult", "FlowTree"}
    for x in objects:
        twin = copy.deepcopy(x)
        assert x == x
        assert x != twin
        assert hash(x) == hash(x) and hash(twin) != hash(x)
        assert len({x, twin, x}) == 2
    tree = build.tree
    twin = copy.deepcopy(tree)
    assert all(np.array_equal(getattr(tree, f), getattr(twin, f))
               for f in ("coords", "kind", "parent", "area"))
