"""Stage-one transport solvers: exact simplex, entropic scaling, extraction."""

import hashlib
import logging
import math
import os
import re
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchflow import (
    ConvergenceError,
    ParameterError,
    SinkhornConfig,
    TransportInstance,
    cost_matrix,
    plan_cost,
    plan_to_assignments,
    solve_exact,
    solve_sinkhorn,
)
from branchflow import ot
from branchflow.ot import _initial_basis, transport_simplex
from branchflow.pipeline import synthetic_instance
from branchflow.seeding import substream

from oracles import (
    argmin_start,
    exact_ot_oracle,
    full_walk_simplex,
    plain_reference_sinkhorn,
    reference_sinkhorn,
)


def random_instance(seed, m, n):
    rng = substream(seed, "ot-test", "instance")
    xs = rng.uniform(-1.0, 1.0, (m, 2))
    ys = rng.uniform(-1.0, 1.0, (n, 2))
    p = rng.uniform(0.1, 1.0, m)
    q = rng.uniform(0.1, 1.0, n)
    return TransportInstance(xs, ys, p / p.sum(), q / q.sum())


# ---------------------------------------------------------------------------
# cost_matrix / plan_cost


def test_cost_matrix_345_triangle():
    inst = TransportInstance([[0.0, 0.0]], [[3.0, 4.0]], [1.0], [1.0])
    assert cost_matrix(inst)[0, 0] == 5.0


def test_cost_matrix_transposes_under_swap():
    inst = random_instance(1, 3, 5)
    c = cost_matrix(inst)
    swapped = TransportInstance(inst.targets, inst.sources, inst.q, inst.p)
    assert np.array_equal(cost_matrix(swapped), c.T)


def test_cost_matrix_collinear_spacing():
    inst = TransportInstance(
        [[0.0, 0.0], [1.0, 0.0]],
        [[2.0, 0.0], [3.0, 0.0]],
        [0.5, 0.5],
        [0.5, 0.5],
    )
    assert np.array_equal(cost_matrix(inst), [[2.0, 3.0], [1.0, 2.0]])


def test_plan_cost_values():
    from branchflow.core import TransportPlan

    zeros = TransportPlan([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert plan_cost(zeros, [[0.0, 0.0], [0.0, 0.0]]) == 0.0

    diag = TransportPlan([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
    assert plan_cost(diag, [[0.0, 1.0], [1.0, 0.0]]) == 0.0

    plan = TransportPlan([[0.3, 0.0], [0.3, 0.4]], [0.3, 0.7], [0.6, 0.4])
    assert plan_cost(plan, [[1.0, 2.0], [3.0, 1.0]]) == pytest.approx(1.6, rel=1e-12)

    with pytest.raises(ParameterError):
        plan_cost(diag, [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# solve_exact


def test_exact_zero_cost_matching():
    inst = TransportInstance(
        [[0.0, 0.0], [2.0, 0.0]],
        [[0.0, 1.0], [2.0, 1.0]],
        [0.5, 0.5],
        [0.5, 0.5],
    )
    plan = solve_exact(inst, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(plan.gamma, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    assert plan_cost(plan, [[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)


def test_exact_2x2_unique_optimum():
    inst = TransportInstance(
        [[0.0, 0.0], [2.0, 0.0]],
        [[0.0, 1.0], [2.0, 1.0]],
        [0.3, 0.7],
        [0.6, 0.4],
    )
    c = [[1.0, 2.0], [3.0, 1.0]]
    plan = solve_exact(inst, c)
    assert np.allclose(plan.gamma, [[0.3, 0.0], [0.3, 0.4]], atol=1e-9)
    assert plan_cost(plan, c) == pytest.approx(1.6, rel=1e-9)


def test_exact_single_source_forced_plan():
    inst = random_instance(3, 1, 6)
    plan = solve_exact(inst, cost_matrix(inst))
    assert np.allclose(plan.gamma[0], inst.q, atol=1e-15)


def test_exact_small_instances_match_enumeration():
    for seed in range(25):
        rng = substream(seed, "ot-test", "small")
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        inst = random_instance(seed, m, n)
        c = cost_matrix(inst)
        got = plan_cost(solve_exact(inst, c), c)
        want = exact_ot_oracle(inst.p, inst.q, c)
        assert got == pytest.approx(want, abs=1e-9)


def test_exact_plan_is_basic_and_feasible():
    inst = random_instance(4, 7, 11)
    plan = solve_exact(inst, cost_matrix(inst))
    row_err, col_err = plan.marginal_error()
    assert row_err < 1e-9 and col_err < 1e-9
    assert int((plan.gamma > 0).sum()) <= 7 + 11 - 1
    assert not np.signbit(plan.gamma).any()  # no -0.0 leaks into plans


def test_exact_rejects_unbalanced_raw_marginals():
    c = np.ones((2, 2))
    with pytest.raises(ParameterError):
        transport_simplex([0.6, 0.6], [0.5, 0.5], c)
    with pytest.raises(ParameterError, match="at least one"):
        transport_simplex([], [], np.ones((0, 0)))


# 9x9 assignment with costs in {0, 1, 2}: the most-negative rule over all
# cells stalled here for more than m + n degenerate pivots and ended under
# Bland's rule; block search, which starts from the last entering block,
# does not stall here
BLAND_COST = [
    [1, 1, 1, 0, 1, 0, 2, 1, 1],
    [1, 2, 1, 0, 1, 1, 1, 0, 0],
    [1, 2, 1, 2, 2, 1, 1, 0, 0],
    [1, 1, 1, 1, 0, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1, 1, 0, 0],
    [0, 0, 0, 1, 2, 1, 2, 1, 1],
    [0, 0, 1, 2, 0, 0, 0, 2, 2],
    [1, 2, 1, 2, 2, 2, 1, 0, 2],
    [0, 2, 1, 2, 2, 1, 2, 2, 0],
]

# 18x18 assignment with costs in {0, 1, 2}, one row a string: block search
# from the warm start stalls here for more than m + n degenerate pivots, so
# the solve ends under Bland's rule
BLAND_ROWS = [
    "110110001001011101",
    "211200002012120002",
    "110020222010212200",
    "122100021120010020",
    "110201202110200120",
    "110101221211022002",
    "200120201111202011",
    "120201102020021200",
    "010000102210010021",
    "012021211221220012",
    "000210002202002212",
    "121102210110111201",
    "111122111122200011",
    "001210001102021222",
    "211222012021121111",
    "220122121212002222",
    "120111120012100211",
    "222120111221010010",
]


def _golden_planar(name):
    m, n = {"planar-20x200": (20, 200), "planar-50x1000": (50, 1000)}[name]
    return random_instance(m, m, n)


def _golden_problem(name):
    if name.startswith("planar-"):
        inst = _golden_planar(name)
        return inst.p, inst.q, cost_matrix(inst)
    if name == "int-grid-16x64":
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 4, (16, 2)).astype(float)
        ys = rng.integers(0, 4, (64, 2)).astype(float)
        c = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
        return np.full(16, 1 / 16), np.full(64, 1 / 64), c
    if name == "bland-18x18":
        return np.ones(18), np.ones(18), np.array([list(r) for r in BLAND_ROWS], dtype=float)
    assert name == "bland-9x9"
    return np.ones(9), np.ones(9), np.array(BLAND_COST, dtype=float)


@pytest.mark.parametrize("name, digest", [
    ("planar-20x200", "4b6145c24788f08cae84ee387efc112c13c388857cb88ba35d616fb012f1b3bd"),
    ("planar-50x1000", "89734b2b8029c8a8a79e8cfb68f61882135e5d045332d675a44342d9924287a5"),
    # tied optimum: the start and the pivot rule pick which optimal vertex (checked below)
    ("int-grid-16x64", "9ccb82c8d2b035474264dd3099206a751adf5b848a213ddfc34b070138062141"),
    ("bland-9x9", "f9ebf1e1fe1f5bfba634a7d05cfae25d14ea731f92b84e82fa7d1a35c2203d49"),
])
def test_exact_plan_bytes_are_pinned(name, digest):
    """Plan bytes on fixed instances; any change to pivoting must keep them."""
    gamma = transport_simplex(*_golden_problem(name))
    assert hashlib.sha256(gamma.tobytes()).hexdigest() == digest


def highs_cost(p, q, c):
    """Optimal transport cost from scipy's HiGHS LP solver (test-only oracle)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sparse = pytest.importorskip("scipy.sparse")
    m, n = c.shape
    cells = np.arange(m * n)
    rows = np.concatenate([cells // n, m + cells % n])
    a_eq = sparse.csr_matrix((np.ones(2 * m * n), (rows, np.concatenate([cells, cells]))),
                             shape=(m + n, m * n))
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def check_against_highs(p, q, c, gamma, cost_tol):
    """HiGHS-optimal cost, marginals exact up to the float imbalance of p
    and q plus rounding, a basic support, and no negative entry."""
    m, n = c.shape
    assert float(np.sum(gamma * c)) == pytest.approx(highs_cost(p, q, c), abs=cost_tol)
    marginal_tol = abs(math.fsum(p) - math.fsum(q)) + 1e-15 * p.sum()
    assert np.abs(gamma.sum(axis=1) - p).max() <= marginal_tol
    assert np.abs(gamma.sum(axis=0) - q).max() <= marginal_tol
    assert int(np.count_nonzero(gamma > 0)) <= m + n - 1
    assert gamma.min() >= 0.0


def jittered_grid(rng, nx, ny):
    """One uniform point per cell of an nx-by-ny grid over [-1, 1]^2."""
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cells = np.column_stack([ix.ravel(), iy.ravel()]).astype(float)
    pts = (cells + rng.random(cells.shape)) / np.array([nx, ny]) * 2.0 - 1.0
    return pts[rng.permutation(len(pts))]


def test_exact_matches_highs_at_50x1000():
    rng = substream(0, "ot-test", "jittered-grid")
    xs, ys = jittered_grid(rng, 10, 5), jittered_grid(rng, 40, 25)
    p, q = 1.0 - rng.random(50), 1.0 - rng.random(1000)
    inst = TransportInstance(xs, ys, p / p.sum(), q / q.sum())
    c = cost_matrix(inst)
    check_against_highs(inst.p, inst.q, c, transport_simplex(inst.p, inst.q, c), 1e-9)


def test_exact_tied_int_grid_plan_is_optimal():
    # its optimum is not unique, so its pinned bytes name one optimal
    # vertex of several; HiGHS confirms that vertex is optimal
    p, q, c = _golden_problem("int-grid-16x64")
    check_against_highs(p, q, c, transport_simplex(p, q, c), 1e-12)


def test_exact_plan_bytes_are_pinned_at_100x2000():
    # a unique optimum: these are the bytes the Dantzig rule gave too
    rng = substream(1, "ot-test", "jittered-grid")
    xs, ys = jittered_grid(rng, 10, 10), jittered_grid(rng, 50, 40)
    p, q = 1.0 - rng.random(100), 1.0 - rng.random(2000)
    inst = TransportInstance(xs, ys, p / p.sum(), q / q.sum())
    gamma = transport_simplex(inst.p, inst.q, cost_matrix(inst))
    assert hashlib.sha256(gamma.tobytes()).hexdigest() == \
        "4be49aa6ba8d2ee91990465b836c3560cec6772bd098c7865d87ea90978cd959"


# 5x15 uniform-mass instances whose least-cost start used to close the last
# open row early (float residuals leave a[i] == 0 while some b[j] > 0):
# the solver then hung or raised KeyError on these seeds.
@pytest.mark.parametrize("seed", [1, 5, 7, 9, 11, 16, 33, 37, 39, 49])
def test_exact_uniform_masses_start_from_a_spanning_basis(seed):
    rng = np.random.default_rng(seed)
    xs, ys = rng.random((5, 2)), rng.random((15, 2))
    c = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
    p, q = np.full(5, 1 / 5), np.full(15, 1 / 15)
    assert len(_initial_basis(p, q, c)) == 5 + 15 - 1
    check_against_highs(p, q, c, transport_simplex(p, q, c), 1e-12)


@pytest.mark.parametrize("basis", [
    {(0, 0): 0.4, (1, 0): 0.2},                            # too few cells
    {(0, 0): 0.2, (0, 1): 0.2, (1, 0): 0.0, (1, 1): 0.4},  # a cycle, column 2 cut off
])
def test_exact_rejects_a_start_that_is_not_a_spanning_tree(monkeypatch, basis):
    # the least-cost start is always a spanning tree; any other start must
    # be caught by a real check before pivoting, not hang or run on
    monkeypatch.setattr(ot, "_initial_basis", lambda p, q, c: dict(basis))
    with pytest.raises(ConvergenceError, match="spanning tree"):
        transport_simplex([0.4, 0.6], [0.2, 0.2, 0.6], np.ones((2, 3)))


@st.composite
def tied_instances(draw):
    """Small degenerate instances: equal or integer masses, ties in the costs."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grid", "collinear", "rounded"]))
    if layout == "grid":
        xs = rng.integers(0, 3, (m, 2)).astype(float)
        ys = rng.integers(0, 3, (n, 2)).astype(float)
    elif layout == "collinear":
        xs = np.column_stack([rng.integers(0, 5, m), np.zeros(m)]).astype(float)
        ys = np.column_stack([rng.integers(0, 5, n), np.zeros(n)]).astype(float)
    else:
        xs, ys = rng.random((m, 2)), rng.random((n, 2))
    c = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
    if layout == "rounded":
        c = np.round(c, 1)
    if draw(st.booleans()):
        p, q = np.full(m, 1 / m), np.full(n, 1 / n)
    else:  # integer masses with equal totals
        p = rng.integers(1, 4, m).astype(float) * n
        q = rng.integers(1, 4, n).astype(float) * m
        q[-1] += p.sum() - q.sum()
        if q[-1] <= 0:
            p, q = np.full(m, float(n)), np.full(n, float(m))
    return p, q, c


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tied_instances())
def test_exact_is_optimal_and_basic_on_tied_instances(instance):
    p, q, c = instance
    check_against_highs(p, q, c, transport_simplex(p, q, c), 1e-9 * max(1.0, p.sum()))


def test_exact_logs_pivot_counts(caplog):
    with caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        for name in ("bland-9x9", "planar-20x200", "planar-50x1000", "int-grid-16x64"):
            transport_simplex(*_golden_problem(name))
    lines = [r.getMessage() for r in caplog.records]
    assert [line for line in lines if line.startswith("transport_simplex")] == [
        "transport_simplex 9x9: 6 pivots, 6 degenerate, bland switch no",
        "transport_simplex 20x200: 83 pivots, 0 degenerate, bland switch no",
        "transport_simplex 50x1000: 536 pivots, 0 degenerate, bland switch no",
        "transport_simplex 16x64: 0 pivots, 0 degenerate, bland switch no",
    ]


def test_exact_logs_its_start(caplog):
    with caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        transport_simplex(*_golden_problem("planar-50x1000"))
        transport_simplex(*_hard_problem("all-zero"))
    lines = [r.getMessage() for r in caplog.records]
    assert [line for line in lines if line.startswith("least-cost")] == [
        "least-cost start 50x1000: warm potentials yes, start cost 0.2208",
        "least-cost start 4x7: warm potentials no, start cost 0",
    ]


def _planar_shape(draw, shape):
    return {
        "wide": (draw(st.integers(2, 12)), draw(st.integers(13, 40))),
        "tall": (draw(st.integers(13, 40)), draw(st.integers(2, 12))),
        "1x1": (1, 1),
        "1xn": (1, draw(st.integers(2, 30))),
        "mx1": (draw(st.integers(2, 30)), 1),
    }[shape]


def _planar_instance(draw, shape):
    """A random planar instance of one shape class; its optimum is unique."""
    m, n = _planar_shape(draw, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = rng.random((m, 2)), rng.random((n, 2))
    c = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2) * draw(st.sampled_from([1.0, 3.0]))
    p, q = 1.0 - rng.random(m), 1.0 - rng.random(n)
    return p / p.sum(), q / q.sum(), c


PLANAR_SHAPES = ["wide", "tall", "1x1", "1xn", "mx1"]


@st.composite
def simplex_instances(draw):
    """Planar instances of every shape class, and tied ones either way up."""
    shape = draw(st.sampled_from(PLANAR_SHAPES + ["tied"]))
    if shape == "tied":
        p, q, c = draw(tied_instances())
        return (q, p, c.T) if draw(st.booleans()) else (p, q, c)
    return _planar_instance(draw, shape)


@st.composite
def planar_instances(draw):
    return _planar_instance(draw, draw(st.sampled_from(PLANAR_SHAPES)))


def _solve_and_log(solve, p, q, c):
    """The solver's plan bytes or error, and the pivot line it logged or returned."""
    lines = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("branchflow.ot")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        out = solve(p, q, c)
    except Exception as exc:  # compared with the reference's error below
        return (type(exc), str(exc)), lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    if isinstance(out, tuple):
        out, line = out
        lines.append(line)
    return out.tobytes(), lines


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(simplex_instances())
def test_exact_matches_the_full_walk_reference_bitwise(instance):
    # the leaf gather and non-leaf walk must reproduce every dual, so the
    # same pivots, the same plan bytes and the same errors
    assert _solve_and_log(transport_simplex, *instance) == \
        _solve_and_log(full_walk_simplex, *instance)


def test_exact_switches_to_blands_rule_after_a_stall():
    p, q, c = _golden_problem("bland-18x18")
    plan, lines = _solve_and_log(transport_simplex, p, q, c)
    assert lines == ["least-cost start 18x18: warm potentials yes, start cost 4",
                     "transport_simplex 18x18: 60 pivots, 57 degenerate, bland switch yes"]
    assert (plan, lines) == _solve_and_log(full_walk_simplex, p, q, c)
    check_against_highs(p, q, c, np.frombuffer(plan).reshape(18, 18), 1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(planar_instances())
def test_exact_plan_bytes_do_not_depend_on_the_pivot_rule(instance):
    # a unique optimum is one basis, and the plan bytes depend on the
    # final basis alone: block search must write what Dantzig's rule wrote
    want, _ = full_walk_simplex(*instance, pricing="dantzig")
    assert transport_simplex(*instance).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(planar_instances())
def test_exact_plan_bytes_do_not_depend_on_the_start(instance):
    # the warm start only moves where the pivots begin: a unique optimum
    # gives the bytes of the least-cost start on the raw costs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ot, "_initial_basis", argmin_start)
        want = transport_simplex(*instance)
    assert transport_simplex(*instance).tobytes() == want.tobytes()


@st.composite
def start_problems(draw):
    """Masses and a matrix for the least-cost start.

    Every planar shape class; integer grids with ties, duplicate rows
    and columns, -0.0 next to 0.0, and signed reals such as warm costs;
    uniform and tenths masses with their float residue, integer masses,
    which exhaust a row and a column at once, and either side short, so
    that the other side's last open lines keep mass.
    """
    m, n = _planar_shape(draw, draw(st.sampled_from(PLANAR_SHAPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "signed-zeros", "reals"]))
    if kind == "grid":
        w = rng.integers(0, 3, (m, n)).astype(float)
    elif kind == "duplicates":
        base = rng.integers(0, 4, (max(1, m // 2), max(1, n // 2))).astype(float)
        w = base[rng.integers(0, base.shape[0], m)][:, rng.integers(0, base.shape[1], n)]
    elif kind == "signed-zeros":
        w = rng.choice([-0.0, 0.0, 1.0], (m, n))
    else:
        w = rng.normal(size=(m, n))
    masses = draw(st.sampled_from(["uniform", "tenths", "integer"]))
    if masses == "uniform":
        p, q = np.full(m, 1 / m), np.full(n, 1 / n)
    elif masses == "tenths":
        p, q = rng.integers(1, 10, m) / 10, rng.integers(1, 10, n) / 10
        p, q = p / p.sum(), q / q.sum()
    else:
        p = rng.integers(1, 4, m).astype(float) * n
        q = np.full(n, p.sum() / n)
    # one side short: the other side's last open lines keep mass, which
    # the rules for the last open row and the last open column fill
    short = draw(st.sampled_from([None, p, q]))
    if short is not None:
        short[int(rng.integers(short.size))] *= draw(st.sampled_from([1.0 - 1e-12, 0.5]))
    return p, q, w


def _alloc_bits(alloc):
    return list(alloc), np.array(list(alloc.values()), dtype=float).view(np.uint64).tolist()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(start_problems())
def test_heap_start_matches_the_argmin_start(problem):
    # the same cells in the same order with the same value bits: the heap
    # breaks ties as numpy's flat argmin does
    p, q, w = problem
    want = _alloc_bits(argmin_start(p, q, w))
    assert _alloc_bits(ot._least_cost_start(p, q, w.copy())) == want


def _under_one_two_and_four_blas_threads(script):
    """The outputs of a Python script run under one, two and four OpenBLAS threads."""
    src = str(Path(ot.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    return outputs


def test_warm_costs_do_not_depend_on_the_blas_thread_count():
    # a 300x3000 matrix-vector product through BLAS, taken whole, gives
    # other bits under one and two OpenBLAS threads; the warm start's
    # scaling sums over row panels
    script = (
        "import hashlib\n"
        "from test_ot import cost_matrix, ot, random_instance\n"
        "inst = random_instance(5, 300, 3000)\n"
        "w = ot._warm_costs(inst.p, inst.q, cost_matrix(inst))\n"
        "print(hashlib.sha256(w.tobytes()).hexdigest())\n"
    )
    digests = _under_one_two_and_four_blas_threads(script)
    assert digests[0] == digests[1]
    assert digests[0] == digests[2]


def _hard_problem(name):
    """Inputs on which the warm start's scaling fails, so the start runs on c."""
    if name == "all-zero":
        return np.full(4, 1 / 4), np.full(7, 1 / 7), np.zeros((4, 7))
    if name == "near-1e308":
        # eps * log(u) overflows at the tiny supply
        c = 1e308 * (0.9 + 0.1 * np.random.default_rng(0).random((3, 4)))
        return np.array([1e-300, 0.5, 0.5]), np.full(4, 0.25), c
    assert name == "masses-1e-300-to-1"
    # the scaling underflows; q is p reordered, so the two balance exactly
    p = np.array([1.0, 1e-300, 1e-200, 1e-100])
    return p, p[[2, 0, 3, 1]], 1.0 - np.eye(4)


@pytest.mark.parametrize("name", ["all-zero", "near-1e308", "masses-1e-300-to-1"])
def test_exact_solves_hard_inputs_from_the_plain_start(name, caplog):
    p, q, c = _hard_problem(name)
    with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        warnings.simplefilter("error")
        gamma = transport_simplex(p, q, c)
    assert f"{len(p)}x{len(q)}: warm potentials no" in caplog.records[0].getMessage()
    # HiGHS treats costs above 1e20 as infinite; the plan is optimal for c / max(c) too
    check_against_highs(p, q, c / max(1.0, float(c.max())), gamma, 1e-12)


def test_exact_prices_costs_near_the_float_maximum_without_overflow():
    # a reduced cost c - u - v of such costs overflowed; pricing runs on c
    # scaled down by a power of two, which changes no pivot
    rng = np.random.default_rng(0)
    c = rng.uniform(0.0, 1.0, (6, 9)) * np.finfo(float).max
    p, q = np.full(6, 1 / 6), np.full(9, 1 / 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = transport_simplex(p, q, c)
    assert gamma.tobytes() == transport_simplex(p, q, np.ldexp(c, -8)).tobytes()
    check_against_highs(p, q, c / c.max(), gamma, 1e-12)


@pytest.mark.parametrize("solve", [transport_simplex, full_walk_simplex])
def test_exact_rejects_nan_demand(solve):
    # a NaN in q used to come back as a plan of NaNs
    with pytest.raises(ParameterError, match="must be finite"):
        solve([0.5, 0.5], [0.5, math.nan], np.ones((2, 2)))


@pytest.mark.parametrize("solve", [transport_simplex, full_walk_simplex])
def test_exact_rejects_nan_supply(solve):
    # a NaN in p used to give NaN entries (as here), a ConvergenceError or
    # a bare ValueError, depending on the costs
    with pytest.raises(ParameterError, match="must be finite"):
        solve([math.nan, 0.5], [0.5, 0.5], np.ones((2, 2)))


@pytest.mark.parametrize("solve", [transport_simplex, full_walk_simplex])
def test_exact_rejects_infinite_masses(solve):
    # inf masses used to raise a bare ValueError from fsum, after warnings
    with pytest.raises(ParameterError, match="must be finite"):
        solve([math.inf, 0.5], [math.inf, 0.5], np.ones((2, 2)))


@pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
def test_exact_plan_does_not_depend_on_the_cost_scale(scale):
    # the benchmark's net-exact seed 0, instance 0: at these scales an
    # absolute price threshold lets a basic cell's rounding residue pass
    # for a negative reduced cost, and the cycle walk fails with KeyError
    rng = np.random.default_rng([0, 0, zlib.crc32(b"transport")])
    xs, ys = jittered_grid(rng, 10, 5), jittered_grid(rng, 40, 25)
    p, q = 1.0 - rng.random(50), 1.0 - rng.random(1000)
    inst = TransportInstance(xs, ys, p / p.sum(), q / q.sum())
    c = cost_matrix(inst)
    unit = transport_simplex(inst.p, inst.q, c)
    assert transport_simplex(inst.p, inst.q, c * scale).tobytes() == unit.tobytes()


def test_exact_plan_does_not_depend_on_the_cost_layout():
    # c.T of another problem is Fortran-ordered; a pricing buffer shaped
    # like it has no flat view, and pricing a stale copy is suboptimal
    p, q, c = _golden_problem("planar-20x200")
    want = transport_simplex(p, q, c)
    assert np.array_equal(transport_simplex(p, q, np.asfortranarray(c)), want)


def test_exact_label_equivariance_is_bitwise():
    inst = random_instance(8, 5, 9)
    c = cost_matrix(inst)
    plan = solve_exact(inst, c)
    perm = np.array([3, 0, 4, 1, 2])
    inst_p = TransportInstance(inst.sources[perm], inst.targets, inst.p[perm], inst.q)
    plan_p = solve_exact(inst_p, cost_matrix(inst_p))
    assert np.array_equal(plan_p.gamma, plan.gamma[perm])


# ---------------------------------------------------------------------------
# solve_sinkhorn


def separated_2x2():
    return TransportInstance(
        [[0.0, 0.0], [2.0, 0.0]],
        [[0.0, 1.0], [2.0, 1.0]],
        [0.5, 0.5],
        [0.5, 0.5],
    )


def test_sinkhorn_sharp_limit_recovers_matching():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = solve_sinkhorn(separated_2x2(), c, SinkhornConfig(reg=0.01))
    assert res.converged
    assert np.allclose(res.plan.gamma, [[0.5, 0.0], [0.0, 0.5]], atol=1e-3)


def test_sinkhorn_smooth_limit_is_outer_product():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = solve_sinkhorn(separated_2x2(), c, SinkhornConfig(reg=1000.0))
    assert np.allclose(res.plan.gamma, 0.25, atol=1e-3)


def test_sinkhorn_row_marginals_within_tol():
    inst = random_instance(5, 6, 8)
    cfg = SinkhornConfig(reg=0.05, tol=1e-10)
    res = solve_sinkhorn(inst, cost_matrix(inst), cfg)
    assert res.converged
    row_err, col_err = res.plan.marginal_error()
    assert row_err < 1e-10
    assert max(row_err, col_err) == pytest.approx(res.marginal_error, abs=1e-15)


def test_sinkhorn_gap_shrinks_with_reg():
    gaps = []
    for reg in (1.0, 0.1, 0.01):
        worst = 0.0
        for seed in range(3):
            inst = random_instance(100 + seed, 10, 10)
            c = cost_matrix(inst)
            c = c / c.max()
            exact_cost = plan_cost(solve_exact(inst, c), c)
            res = solve_sinkhorn(inst, c, SinkhornConfig(reg=reg))
            gap = (plan_cost(res.plan, c) - exact_cost) / exact_cost
            worst = max(worst, gap)
        gaps.append(worst)
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.01


def test_sinkhorn_underflow_raises_convergence_error():
    inst = separated_2x2()
    c = np.array([[0.0, 1e-9], [1.0, 1.0]])
    with pytest.raises(ConvergenceError, match="reg"):
        solve_sinkhorn(inst, c, SinkhornConfig(reg=1e-4))


@pytest.mark.parametrize("seed", [10, 15])
def test_sinkhorn_overflow_raises_without_warnings(seed):
    # plain scaling's factors overflow on these inputs, and it raises
    # without a numpy warning on the way.  The solver absorbs its factors
    # into the kernel before they can, and converges, also without one.
    rng = np.random.default_rng(seed)
    xs, ys = rng.random((6, 2)), rng.random((60, 2))
    p, q = 1.0 - rng.random(6), 1.0 - rng.random(60)
    inst = TransportInstance(xs, ys, p / p.sum(), q / q.sum())
    cfg = SinkhornConfig(reg=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = _sinkhorn_outcome(plain_reference_sinkhorn, inst, cfg)
        got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
    assert plain == "scaling factors overflowed; increase reg"
    assert got[3] and float(got[2]) < cfg.tol
    assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)


def test_sinkhorn_plain_batch_overflow_raises_without_warnings():
    # row 0 of the kernel sums to exp(-740), a subnormal: its factor
    # overflows on the first plain iteration, before any batch ends
    inst = separated_2x2()
    c = np.array([[0.74, 1.0], [0.0, 0.0]])
    cfg = SinkhornConfig(reg=1e-3)
    want = "scaling factors overflowed; increase reg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as info:
            solve_sinkhorn(inst, c, cfg)
    assert str(info.value) == want
    with pytest.raises(ConvergenceError, match=want):
        reference_sinkhorn(inst, c, cfg)


def _sinkhorn_outcome(solve, instance, cfg):
    """Plan bytes, iterations, error bits and flag, or the error message."""
    try:
        res = solve(instance, cost_matrix(instance), cfg)
    except ConvergenceError as exc:
        return str(exc)
    return res.plan.gamma.tobytes(), res.n_iter, repr(res.marginal_error), res.converged


@pytest.mark.parametrize("name, cfg, digest, n_iter, error", [
    ("planar-20x200", SinkhornConfig(reg=0.01),
     "e47a07ef8b0c7cb2cdf17ec7068e0aa9c084789124e28d665d1978f7b767f671", 160,
     "3.4720181374056636e-11"),
    ("planar-50x1000", SinkhornConfig(reg=1.5e-3),
     "4c0cafdcf070830f73829ad0fccb83a0c56063a4e4a21db6cc1c221c00e16180", 816,
     "9.793985136514593e-10"),
    # stopped by the cap: the error is that of the last iterate
    ("planar-20x200", SinkhornConfig(reg=0.01, max_iter=2),
     "0a75d9e761f13de35a51d30f6c393da90c97d3e427872f25e7f0c529980e91bd", 2,
     "0.6712387115979769"),
], ids=["20x200", "50x1000", "20x200-cap"])
def test_sinkhorn_plan_bytes_are_pinned(name, cfg, digest, n_iter, error):
    """Plan bytes, iteration count and error bits on fixed instances."""
    gamma, iters, err, converged = _sinkhorn_outcome(solve_sinkhorn, _golden_planar(name), cfg)
    assert hashlib.sha256(gamma).hexdigest() == digest
    assert (iters, err, converged) == (n_iter, error, cfg.max_iter > 2)


@st.composite
def sinkhorn_cases(draw):
    """A small random planar instance and settings from tiny tol to tight caps."""
    m, n = _planar_shape(draw, draw(st.sampled_from(PLANAR_SHAPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = 1.0 - rng.random(m), 1.0 - rng.random(n)
    inst = TransportInstance(rng.random((m, 2)), rng.random((n, 2)), p / p.sum(), q / q.sum())
    cfg = SinkhornConfig(
        reg=draw(st.sampled_from([1e-3, 3e-3, 1e-2, 0.1])),
        # below the row error's rounding floor, the column error alone
        # can pass the tolerance
        tol=draw(st.sampled_from([1e-9, 1e-15, 1e-17, 1e-300])),
        max_iter=draw(st.sampled_from([1, 3, 50, 2000])),
    )
    return inst, cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sinkhorn_cases())
def test_sinkhorn_matches_the_every_iteration_reference_bitwise(case):
    # the in-place buffers, row panels, lazy row error and kernel rebuilt
    # in place must not change a plan byte, an iteration count, an error
    # bit or a raised message against the whole-array reference
    assert _sinkhorn_outcome(solve_sinkhorn, *case) == _sinkhorn_outcome(reference_sinkhorn, *case)


@pytest.mark.parametrize("m, n, max_iter", [
    # caps on either side of a batch's end
    *((6, 8, cap) for cap in (ot._BATCH - 1, ot._BATCH, ot._BATCH + 1, 2 * ot._BATCH + 1)),
    # rows that are not whole cache lines, and rows above numpy's
    # 8192-element buffer, which the 1-D sum reduces in pieces
    (1, 70000, 40), (2, 20000, 40), (3, 9000, 40), (7, 16385, 40), (40, 5, 40), (16, 17, 40),
])
@pytest.mark.parametrize("tol", [1e-9, 1e-300])   # at 1e-300 only the cap stops
def test_sinkhorn_matches_the_reference_at_batch_seams_and_on_long_rows(m, n, max_iter, tol):
    inst, cfg = random_instance(m + n, m, n), SinkhornConfig(reg=0.02, tol=tol, max_iter=max_iter)
    assert _sinkhorn_outcome(solve_sinkhorn, inst, cfg) == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)


@pytest.mark.parametrize("seed, m, n, reg, n_conv", [
    (0, 6, 8, 0.2, 2 * ot._BATCH),               # converges in the plain probe
    (5, 6, 8, 0.05, ot._PROBE + ot._BATCH),      # in the first relaxed batch
    (0, 6, 8, 0.005, 14 * ot._BATCH),            # after an absorption
])
def test_sinkhorn_matches_the_reference_with_a_cap_next_to_convergence(seed, m, n, reg, n_conv):
    inst = random_instance(seed, m, n)
    assert reference_sinkhorn(inst, cost_matrix(inst), SinkhornConfig(reg=reg)).n_iter == n_conv
    # only a batch's end and the cap are checked: the iterate before the
    # converged batch end already meets tol on these, and the batch end
    # before it does not
    for max_iter, want in ((n_conv - ot._BATCH, False), (n_conv - 1, True), (n_conv, True), (n_conv + 1, True)):
        cfg = SinkhornConfig(reg=reg, max_iter=max_iter)
        got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
        assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)
        assert (got[1], got[3]) == (min(max_iter, n_conv), want)


def test_sinkhorn_logs_one_line_per_solve(caplog):
    inst = _golden_planar("planar-20x200")
    with caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        for cfg in (SinkhornConfig(reg=0.01), SinkhornConfig(reg=0.01, max_iter=2)):
            solve_sinkhorn(inst, cost_matrix(inst), cfg)
        inst = synthetic_instance(16, 6, 60)
        solve_sinkhorn(inst, cost_matrix(inst), SinkhornConfig(reg=1e-3))
    assert [r.getMessage() for r in caplog.records] == [
        "solve_sinkhorn 20x200: 160 iterations in 10 batches, marginal error 3.47e-11, "
        "converged yes, omega 1.683 from iteration 64, 0 absorptions, 0 rewinds",
        "solve_sinkhorn 20x200: 2 iterations in 1 batches, marginal error 0.671, "
        "converged no, omega 1 from iteration 0, 0 absorptions, 0 rewinds",
        "solve_sinkhorn 6x60: 2688 iterations in 168 batches, marginal error 9.13e-10, "
        "converged yes, omega 1.475 from iteration 80, 4 absorptions, 1 rewinds",
    ]


def test_sinkhorn_plan_bytes_do_not_depend_on_the_blas_thread_count():
    # the pinned 50x1000 plan is one row panel; wide and tall kernels of
    # several panels, whose mat-vecs taken whole OpenBLAS would sum in
    # another order under two threads, and two whose panels of a fixed
    # row count would leave a single row, which numpy sums as a vector
    # dot that OpenBLAS splits across threads.  The 300x3000 solve at reg
    # 1e-3 absorbs its factors into the kernel, across its panels.
    script = (
        "import hashlib\n"
        "from test_ot import SinkhornConfig, _golden_planar, _sinkhorn_outcome, solve_sinkhorn\n"
        "gamma, n_iter, err, converged = _sinkhorn_outcome(\n"
        "    solve_sinkhorn, _golden_planar('planar-50x1000'), SinkhornConfig(reg=1.5e-3))\n"
        "print(hashlib.sha256(gamma).hexdigest(), n_iter, err, converged)\n"
    )
    for stdout in _under_one_two_and_four_blas_threads(script):
        assert stdout.split() == [
            "4c0cafdcf070830f73829ad0fccb83a0c56063a4e4a21db6cc1c221c00e16180",
            "816", "9.793985136514593e-10", "True",
        ]
    script = (
        "import hashlib, logging, sys\n"
        "logging.basicConfig(level=logging.DEBUG, format='%(message)s', stream=sys.stdout)\n"
        "from test_ot import SinkhornConfig, _sinkhorn_outcome, random_instance, solve_sinkhorn\n"
        "for m, n, reg in ((300, 3000, 0.01), (300, 3000, 1e-3), (4000, 500, 0.01),\n"
        "                  (14, 20000, 0.01), (21, 100000, 0.01)):\n"
        "    gamma, n_iter, err, converged = _sinkhorn_outcome(\n"
        "        solve_sinkhorn, random_instance(m, m, n), SinkhornConfig(reg=reg, max_iter=200))\n"
        "    print(hashlib.sha256(gamma).hexdigest(), n_iter, err, converged)\n"
    )
    outputs = _under_one_two_and_four_blas_threads(script)
    lines = outputs[0].splitlines()
    assert len(lines) == 10
    assert re.fullmatch(r"solve_sinkhorn 300x3000: .*, [1-9]\d* absorptions, \d+ rewinds", lines[2])
    assert outputs[0] == outputs[1] == outputs[2]


def test_sinkhorn_plan_does_not_depend_on_the_cost_layout():
    # a Fortran-ordered kernel once summed the mat-vecs in another order
    inst, cfg = _golden_planar("planar-20x200"), SinkhornConfig(reg=0.01)
    c = cost_matrix(inst)
    wide = np.zeros((c.shape[0], 2 * c.shape[1]))
    wide[:, ::2] = c
    shifted = ot._aligned_empty((c.size + 2,))[2:].reshape(c.shape)   # 16 bytes past a cache line
    shifted[...] = c
    want = solve_sinkhorn(inst, c, cfg)
    for view in (np.asfortranarray(c), wide[:, ::2], shifted):
        got = solve_sinkhorn(inst, view, cfg)
        assert got.plan.gamma.tobytes() == want.plan.gamma.tobytes()
        assert (got.n_iter, repr(got.marginal_error)) == (want.n_iter, repr(want.marginal_error))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 1001), (16, 1024), (50, 1000), (300, 700)])
def test_aligned_empty_is_c_ordered_on_a_cache_line(shape):
    # 16 x 1024 doubles is glibc malloc's default mmap threshold, 128 KiB:
    # the smaller shapes come from the heap, the rest (with the 64 spare
    # bytes) from mmap
    a = ot._aligned_empty(shape)
    assert a.shape == shape and a.dtype == np.float64
    assert a.flags.c_contiguous and a.flags.writeable
    assert a.ctypes.data % 64 == 0


def test_sinkhorn_iteration_cap_flags_nonconvergence():
    inst = random_instance(6, 5, 5)
    cfg = SinkhornConfig(reg=0.01, max_iter=2)
    res = solve_sinkhorn(inst, cost_matrix(inst), cfg)
    assert not res.converged
    assert res.n_iter == 2
    assert res.marginal_error > 0
    # the last iterate's error, not the best one's
    ref = reference_sinkhorn(inst, cost_matrix(inst), cfg)
    assert repr(res.marginal_error) == repr(ref.marginal_error)


def _last_solve(caplog):
    """The numbers of the last logged Sinkhorn solve's DEBUG line."""
    line = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve_sinkhorn")][-1]
    pattern = (r"solve_sinkhorn \d+x\d+: (\d+) iterations in \d+ batches, marginal error \S+, "
               r"converged (yes|no), omega (\S+) from iteration (\d+), (\d+) absorptions, (\d+) rewinds")
    n_iter, converged, omega, omega_from, absorbed, rewinds = re.fullmatch(pattern, line).groups()
    return int(n_iter), converged == "yes", float(omega), int(omega_from), int(absorbed), int(rewinds)


def test_sinkhorn_converges_relaxed_at_small_reg(caplog):
    # plain scaling takes 12,194 iterations on seed 0 at reg 1e-3, and its
    # factors overflow on seeds 5, 9 and 19 at reg 5e-4; absorbing them
    # into the kernel keeps every factor finite, and omega is set after
    # the probe on every solve
    cfg = SinkhornConfig(reg=1e-3)
    with caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        for seed in range(20):
            inst = synthetic_instance(seed, 6, 60)
            got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
            assert got[3] and float(got[2]) < cfg.tol, seed
            assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)
            assert _last_solve(caplog)[2] > 1.0
            if seed == 0:
                assert got[1] <= 2000
    cfg = SinkhornConfig(reg=5e-4)
    underflow = "scaling kernel underflowed to zero rows/columns; increase reg"
    for seed in range(20):
        inst = synthetic_instance(seed, 6, 60)
        got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
        assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)
        if seed in (5, 9, 13, 19):
            assert got[3], seed
        else:   # the first kernel has a zero row or column
            assert got == underflow, seed
    for seed in (5, 9, 19):
        inst = synthetic_instance(seed, 6, 60)
        with pytest.raises(ConvergenceError, match="scaling factors overflowed"):
            plain_reference_sinkhorn(inst, cost_matrix(inst), cfg)


def test_sinkhorn_falls_back_mid_solve(caplog):
    # at omega 1.95 the batch from iteration 80 overflows: the solve falls
    # back to the factors saved at 80 and runs the batch again at omega
    # 1.475
    inst, cfg = synthetic_instance(16, 6, 60), SinkhornConfig(reg=1e-3)
    with caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
    assert _last_solve(caplog) == (2688, True, 1.475, 80, 4, 1)
    assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)
    # caps inside the batch thrown away, at its end and past it: a capped
    # solve returns a finite plan whether or not its last batch rewound
    for max_iter in (81, 88, 96, 97):
        cfg = SinkhornConfig(reg=1e-3, max_iter=max_iter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
        assert (got[1], got[3]) == (max_iter, False)
        assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)


@pytest.mark.parametrize("seed, reg, n_iter, omega_from", [
    (5018, 1e-3, 1088, 800), (5060, 3e-3, 832, 656), (5098, 3e-3, 864, 624),
])
def test_sinkhorn_rewinds_when_the_column_error_stalls(caplog, monkeypatch, seed, reg, n_iter, omega_from):
    # at the omega of the probe (1.88-1.95) the column error of these
    # stops falling, with every factor finite: after _PATIENCE batches
    # without a new lowest error, omega - 1 is halved and the solve
    # converges.  Without that rule none converges in 100,000 iterations.
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 15), rng.integers(1, 60)
    p, q = 1.0 - rng.random(m), 1.0 - rng.random(n)
    inst = TransportInstance(rng.random((m, 2)), rng.random((n, 2)), p / p.sum(), q / q.sum())
    cfg = SinkhornConfig(reg=reg)
    with caplog.at_level(logging.DEBUG, logger="branchflow.ot"):
        got = _sinkhorn_outcome(solve_sinkhorn, inst, cfg)
    iters, converged, _, start, _, rewinds = _last_solve(caplog)
    assert (iters, converged, start, rewinds) == (n_iter, True, omega_from, 1)
    assert got == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)
    monkeypatch.setattr(ot, "_PATIENCE", 10 ** 9)
    assert not solve_sinkhorn(inst, cost_matrix(inst), SinkhornConfig(reg=reg, max_iter=5000)).converged


@pytest.mark.parametrize("seed", [10, 11])
def test_sinkhorn_capped_relaxed_solve_returns_a_finite_plan(seed):
    # capped three iterations into the first relaxed batch: the plan is
    # (u, v_old) of the last iterate, finite, without a numpy warning
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 12), rng.integers(1, 40)
    p, q = 1.0 - rng.random(m), 1.0 - rng.random(n)
    p, q = p / p.sum(), q / q.sum()
    inst = TransportInstance(rng.random((m, 2)), rng.random((n, 2)), p, q)
    cfg = SinkhornConfig(reg=1e-3, max_iter=ot._PROBE + 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_sinkhorn(inst, cost_matrix(inst), cfg)
    assert np.all(np.isfinite(res.plan.gamma))
    assert (res.n_iter, res.converged) == (ot._PROBE + 3, False)
    assert _sinkhorn_outcome(solve_sinkhorn, inst, cfg) == _sinkhorn_outcome(reference_sinkhorn, inst, cfg)


def test_sinkhorn_absorbed_kernels_are_truncated(monkeypatch):
    # every absorbed kernel entry is 0 or at least _TRUNC, so its product
    # with a factor in [1 / _ABSORB, _ABSORB] is never subnormal; the
    # factors returned are in that range, against the last kernel
    kernels, factors = [], []
    gibbs, scale = ot._gibbs, ot._scale

    def record_gibbs(c, cmax, reg, out, f=None, g=None):
        gibbs(c, cmax, reg, out, f, g)
        if f is not None:
            kernels.append(out.copy())

    def record_scale(*args):
        res = scale(*args)
        factors.extend(res[:2])
        return res

    monkeypatch.setattr(ot, "_gibbs", record_gibbs)
    monkeypatch.setattr(ot, "_scale", record_scale)
    inst, cfg = _golden_planar("planar-50x1000"), SinkhornConfig(reg=1.5e-3)
    res = solve_sinkhorn(inst, cost_matrix(inst), cfg)
    assert res.converged and len(kernels) == 2
    for K in kernels:
        assert np.all((K == 0.0) | (K >= np.finfo(float).tiny * ot._ABSORB))
    # the first kernel has no zero entry (exp(-1 / 1.5e-3) is normal):
    # the second absorption truncated 63 of them
    assert np.count_nonzero(kernels[-1] == 0.0) == 63
    for x in factors:
        assert np.all((1 / ot._ABSORB <= x) & (x <= ot._ABSORB))
    # the plan is formed on the last absorbed kernel
    u, v = factors
    assert np.array_equal(res.plan.gamma, u[:, None] * kernels[-1] * v[None, :])


def test_sinkhorn_relaxation_takes_at_most_a_fifth_of_the_plain_iterations():
    inst, cfg = _golden_planar("planar-50x1000"), SinkhornConfig(reg=1.5e-3)
    relaxed = solve_sinkhorn(inst, cost_matrix(inst), cfg)
    plain = plain_reference_sinkhorn(inst, cost_matrix(inst), cfg)
    assert relaxed.converged and plain.converged
    assert 5 * relaxed.n_iter <= plain.n_iter


def test_sinkhorn_config_validation():
    with pytest.raises(ParameterError):
        SinkhornConfig(reg=0.0)
    with pytest.raises(ParameterError):
        SinkhornConfig(tol=0.0)
    with pytest.raises(ParameterError):
        SinkhornConfig(max_iter=0)
    with pytest.raises(ParameterError, match="max_iter must be an integer"):
        SinkhornConfig(max_iter=2.5)


@pytest.mark.parametrize("field", ["reg", "tol"])
def test_sinkhorn_config_rejects_nan(field):
    with pytest.raises(ParameterError, match=f"{field} must be positive"):
        SinkhornConfig(**{field: math.nan})


def test_sinkhorn_config_rejects_infinite_tol():
    # tol bounds the marginal errors at exit; an infinite one used to stop
    # after one iteration and flag that iterate as converged
    with pytest.raises(ParameterError, match="tol must be positive and finite, got inf"):
        SinkhornConfig(tol=math.inf)


def test_assignments_reject_nan_threshold():
    from branchflow.core import TransportPlan

    plan = TransportPlan([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ParameterError, match="threshold"):
        plan_to_assignments(plan, math.nan)


# ---------------------------------------------------------------------------
# plan_to_assignments


def test_assignments_diagonal():
    from branchflow.core import TransportPlan

    plan = TransportPlan([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
    assert plan_to_assignments(plan, 0.0) == [[(0, 0.5)], [(1, 0.5)]]


def test_assignments_from_2x2_solution():
    from branchflow.core import TransportPlan

    plan = TransportPlan([[0.3, 0.0], [0.3, 0.4]], [0.3, 0.7], [0.6, 0.4])
    assert plan_to_assignments(plan, 0.0) == [[(0, 0.3)], [(0, 0.3), (1, 0.4)]]
    # threshold comparison is strict
    assert plan_to_assignments(plan, 0.3) == [[], [(1, 0.4)]]


def test_assignments_exact_plan_sparsity():
    inst = random_instance(9, 6, 9)
    plan = solve_exact(inst, cost_matrix(inst))
    total = sum(len(a) for a in plan_to_assignments(plan, 0.0))
    assert total <= 6 + 9 - 1


def test_assignments_negative_threshold_rejected():
    from branchflow.core import TransportPlan

    plan = TransportPlan([[1.0]], [1.0], [1.0])
    with pytest.raises(ParameterError):
        plan_to_assignments(plan, -0.1)


def test_instance_and_simplex_share_one_mass_balance_rule():
    # each sum lies within MASS_TOL of one, but they differ by 1.8e-9, which the
    # simplex rejects and Sinkhorn cannot close: the instance rejects them first
    p = np.array([0.3, 0.7]) * (1 + 9e-10)
    q = np.array([0.5, 0.5]) * (1 - 9e-10)
    with pytest.raises(ParameterError,
                       match=re.escape("got sum(p)=1.0000000009 and sum(q)=0.9999999991")):
        TransportInstance([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]], p, q)
    with pytest.raises(ParameterError,
                       match=re.escape("sum(p)=1.0000000009 != sum(q)=0.9999999991")):
        transport_simplex(p, q, np.ones((2, 2)))
