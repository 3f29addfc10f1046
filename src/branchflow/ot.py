"""Stage-one solvers for the discrete transport assignment.

Two routes to a coupling between weighted sources and targets: an exact
transportation-simplex solver and entropically regularized matrix
scaling.  Both are deterministic: the same inputs give the same bytes.

The exact solver's plan bytes depend only on its final basis, which
``_rebuild_from_basis`` turns into allocations by order-independent
sums.  So when the optimum is unique, any start, any pivot rule, and
any relabeling of sources or targets, gives the same bytes.  A tied or
degenerate optimum is not unique: the optimal basis reached, and so the
plan, can change with the start, the pivot rule or the order of the
inputs.

The exact solver keeps its basis as a spanning tree of the m + n row and
column nodes, rooted at row 0 (network simplex; Ahuja, Magnanti and
Orlin, Network Flows, ch. 11).  Pricing searches blocks of whole rows in
turn and enters the best cell of the first block that holds an improving
one (block search; Grigoriadis 1986).  A pivot finds its cycle from the
entering row's path to row 0, re-hangs the subtree it cuts off by
walking only that subtree's non-leaf nodes, and one numpy gather then
sets every leaf's dual from its parent's.  The start is the
least-cost rule, which always yields such a spanning tree, run on the
costs less row potentials from a short entropic scaling (Cuturi 2013):
a per-row constant leaves the optimal plans as they are, and the start
lands near them, so about a third of the pivots remain.  A heap of
column minima gives each least-cost cell without rescanning the matrix.

Both solvers scale through one loop, ``_scale``: the entropic solver to
convergence, the exact start for ``_WARM_ITERS`` iterations at most.
The exact start scales plainly.  The entropic solver runs ``_PROBE``
plain iterations, then over-relaxes both factors at the omega that
their observed contraction makes optimal (``x <- x_hat (x_hat /
x)^(omega - 1)``; Lehmann et al. 2020).  That reaches the plain
iteration's fixed point in far fewer iterations: 816 in place of 7,415
on a 50 x 1000 planar instance at reg 1.5e-3.  Factors that leave
``[1 / _ABSORB, _ABSORB]`` are absorbed into a rebuilt, truncated kernel
(Schmitzer 2016), so small regularizations no longer overflow them, and
a relaxed batch that goes non-finite, or that ends a long run of
batches with no new lowest error, runs again from saved factors at a
smaller omega.  Convergence and finiteness are checked once per batch.
The loop's mat-vecs are summed over fixed panels of whole kernel rows,
each of at most ``_PANEL`` cells and at least two rows, so their bits,
and both solvers' outputs, do not depend on the BLAS thread count (the
limits are in ``_scale``).
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import (
    MASS_TOL,
    ConvergenceError,
    ParameterError,
    TransportInstance,
    TransportPlan,
    _check_count,
    _floats,
)

_log = logging.getLogger(__name__)

_PRICE_TOL = 1e-11    # reduced-cost threshold for entering variables
_PRICE_BLOCKS = 16    # at most 16 pricing blocks, each of ceil(m / 16) whole rows
_ALIGN = 64           # bytes: the Sinkhorn kernel starts on a cache line
_BATCH = 16           # Sinkhorn iterations run between two convergence checks
_PROBE = 64           # plain Sinkhorn iterations whose contraction sets omega
_OMEGA_MAX = 1.95     # the largest over-relaxation omega
_RELAX_MIN = 1 / 32   # an omega - 1 below this runs plain scaling
_PATIENCE = 32        # relaxed batches without a new lowest column error before a rewind
_ABSORB = 1e30        # factors outside [1 / _ABSORB, _ABSORB] are absorbed into the kernel
_TRUNC = np.finfo(float).tiny * _ABSORB   # absorbed kernel entries below this are set to 0
_PANEL = 2 ** 18      # cells: the scaling mat-vecs sum over row panels of at most this many
_WARM_REG = 0.01      # the exact start's scaling runs at eps = _WARM_REG * max(c)
_WARM_ITERS = 200     # and takes at most this many iterations


def cost_matrix(instance: TransportInstance) -> np.ndarray:
    """Pairwise Euclidean distances from sources to targets."""
    diff = instance.sources[:, None, :] - instance.targets[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _check_cost(c, m: int, n: int) -> np.ndarray:
    c = _floats(c, "the cost matrix")
    if c.shape != (m, n):
        raise ParameterError(f"cost matrix must have shape {(m, n)}, got {c.shape}")
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ParameterError("cost entries must be finite and nonnegative")
    return c


def _check_masses(p: np.ndarray, q: np.ndarray) -> None:
    """Supplies and demands must be nonempty vectors, finite, strictly
    positive and balanced.  Each check is written so that NaN fails it.
    """
    if not (p.ndim == q.ndim == 1 and p.size and q.size):
        raise ParameterError(f"need at least one supply and one demand, each in a vector, "
                             f"got shapes {p.shape} and {q.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ParameterError("supplies and demands must be finite")
    if not (np.all(p > 0) and np.all(q > 0)):
        raise ParameterError("supplies and demands must be strictly positive")
    sp, sq = float(p.sum()), float(q.sum())
    if not abs(sp - sq) <= MASS_TOL:
        raise ParameterError(f"infeasible marginals: sum(p)={sp!r} != sum(q)={sq!r}")


def plan_cost(plan: TransportPlan, c) -> float:
    """Total cost of a plan: elementwise product with the cost matrix."""
    c = _check_cost(c, *plan.gamma.shape)
    return float(np.sum(plan.gamma * c))


# ---------------------------------------------------------------------------
# exact solver: transportation simplex on the bipartite graph


def _warm_costs(p: np.ndarray, q: np.ndarray, c: np.ndarray):
    """``c`` less row potentials from a short entropic scaling, or None.

    ``_scale`` runs at most ``_WARM_ITERS`` iterations on the kernel
    ``exp(-c / eps)``, ``eps = _WARM_REG * max(c)``: the loop, panels
    and bits of the entropic solver, so the result does not depend on
    the BLAS thread count.  Its row factors ``u`` give ``f = eps *
    log(u)``, which approximates the optimal row duals (Cuturi, NeurIPS
    2013).  Less a per-row constant, ``c`` has the same optimal plans,
    and its least-cost start lies near them.  ``c - f`` is written over
    the kernel: one m x n array sits beside ``c``, as a working copy of
    ``c`` would.  None when ``eps`` is 0, when the scaling overflows or
    ``u`` has a zero, or when ``f`` or ``c - f`` is not finite.
    """
    eps = _WARM_REG * float(c.max())
    if not eps > 0.0:
        return None
    w = _aligned_empty(c.shape)
    np.divide(c, -eps, out=w)
    np.exp(w, out=w)
    try:
        u = _scale(w, p, q, SinkhornConfig(max_iter=_WARM_ITERS))[0]
    except ConvergenceError:
        return None
    if not np.all(u > 0.0):  # NaN fails too; math.log takes no 0
        return None
    f = np.array([eps * math.log(x) for x in u.tolist()])
    with np.errstate(over="ignore"):
        np.subtract(c, f[:, None], out=w)
    # c is finite, so an infinite f, or an overflow, shows in w's extremes
    if not (math.isfinite(w.max()) and math.isfinite(w.min())):
        return None
    return w


def _least_cost_start(p: np.ndarray, q: np.ndarray, w: np.ndarray):
    """Least-cost starting basis on ``w``: allocate to the cheapest open cell.

    Every allocation closes exactly one row or column, which keeps the
    chosen cells acyclic and yields exactly m + n - 1 basic cells.  The
    exhausted line is the one closed, except that the last open row is
    never closed while columns stay open, nor the last open column while
    rows stay open: then the other line of the cell closes, and the lines
    left open get degenerate (zero) fills.  This matters when a float
    residual exhausts a row before the columns it must still reach.

    The cheapest open cell comes off a heap holding, per open column,
    ``(value, row, column)`` for its least open row, the first one on
    ties.  That is the order of numpy's flat argmin, so the cells are
    those of an ``argmin`` over the whole matrix with closed lines set to
    inf, tie for tie.  Entries of closed columns, or of rows no longer a
    column's least, are skipped as they come off.  A closing row is set
    to inf in ``w``, which this overwrites, and only the columns whose
    least row it was are ranked again, by one argmin.
    """
    m, n = w.shape
    a, b = p.tolist(), q.tolist()
    # each column's first least row, a row at a time: w.argmin(axis=0)
    # would copy all of w
    best = np.zeros(n, dtype=np.intp)
    low = w[0].copy()
    for r in range(1, m):
        less = w[r] < low
        best[less] = r
        np.minimum(low, w[r], out=low)
    heap = list(zip(low.tolist(), best.tolist(), range(n)))
    heapq.heapify(heap)
    col_open = np.ones(n, dtype=bool)
    rows_open, cols_open = m, n
    alloc: dict[tuple[int, int], float] = {}
    for _ in range(m + n - 1):
        while True:
            _, i, j = heapq.heappop(heap)
            if col_open.item(j) and best.item(j) == i:
                break
        x = min(a[i], b[j])
        alloc[(i, j)] = x
        a[i] -= x
        b[j] -= x
        # x is min(a[i], b[j]), so at least one of the two is now exactly 0
        if rows_open > 1 and (a[i] == 0.0 or cols_open == 1):
            w[i] = np.inf
            rows_open -= 1
            cols = np.flatnonzero((best == i) & col_open)
            if cols.size:
                at = w[:, cols].argmin(axis=0)
                best[cols] = at
                for entry in zip(w[at, cols].tolist(), at.tolist(), cols.tolist()):
                    heapq.heappush(heap, entry)
        else:
            col_open[j] = False
            cols_open -= 1
    return alloc


def _initial_basis(p: np.ndarray, q: np.ndarray, c: np.ndarray):
    """The least-cost start on warm costs, or on ``c`` when there are none.

    Logs one DEBUG line: the shape, whether warm potentials were used,
    and the start's cost under ``c``.
    """
    w = _warm_costs(p, q, c)
    alloc = _least_cost_start(p, q, c.copy() if w is None else w)
    cost = math.fsum(x * c.item(i, j) for (i, j), x in alloc.items())
    _log.debug("least-cost start %dx%d: warm potentials %s, start cost %.4g",
               *c.shape, "no" if w is None else "yes", cost)
    return alloc


def _preorder(adj):
    """The nodes reached from row 0 in preorder, and each node's parent.

    Row 0 is its own parent, and a node not reached has parent -1.  On a
    tree the order holds every node, and each subtree is one run of it.
    """
    parent = [-1] * len(adj)
    parent[0] = 0
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        for nb in adj[node]:
            if parent[nb] == -1:
                parent[nb] = node
                stack.append(nb)
    return order, parent


def _rebuild_from_basis(adj, p, q, m: int, n: int) -> np.ndarray:
    """Recompute basic allocations from scratch via subtree cuts.

    Each basic cell's value is the net demand of the component holding
    the cell's column node after cutting the tree edge.  That component
    is a label-invariant set and ``fsum`` is order-independent, so the
    result depends only on the final basis, not on pivot history or on
    node labeling.
    """
    order, parent = _preorder(adj)
    tin = [0] * (m + n)
    for t, node in enumerate(order):
        tin[node] = t
    # subtree extents in the preorder come from children extents
    tout = tin[:]
    for node in reversed(order[1:]):
        par = parent[node]
        tout[par] = max(tout[par], tout[node])
    vals = [-p[node] if node < m else q[node - m] for node in order]

    gamma = np.zeros((m, n))
    for node in order[1:]:
        par = parent[node]
        if node >= m:
            x = math.fsum(vals[tin[node]:tout[node] + 1])
        else:
            # row-side child: sum the complementary slices so the summed
            # set is still the column node's component
            x = math.fsum(vals[:tin[node]] + vals[tout[node] + 1:])
        if x < -1e-9:
            raise ConvergenceError(f"negative basic allocation {x}")
        r, col = (par, node - m) if node >= m else (node, par - m)
        gamma[r, col] = max(0.0, x)   # clamps rounding residue, and -0.0, to 0.0
    return gamma


def _hang(internal, c, m: int, top: int, parent, dual) -> None:
    """Set parent and dual of the non-leaf nodes below ``top``.

    Walks the non-leaf nodes of ``top``'s component away from
    ``parent[top]``, over ``internal[node]``, the node's non-leaf
    neighbours; each takes ``dual = c[cell] - dual[parent]`` for the cell
    joining it to its parent.  Leaves take theirs from one gather after.
    """
    item = c.item
    stack = [top]
    while stack:
        node = stack.pop()
        up = parent[node]
        du = dual.item(node)
        for nb in internal[node]:
            if nb != up:
                parent[nb] = node
                cost = item(node, nb - m) if node < m else item(nb, node - m)
                dual[nb] = cost - du
                stack.append(nb)


def transport_simplex(p, q, c) -> np.ndarray:
    """Minimum-cost coupling of supplies ``p`` onto demands ``q``.

    Returns a basic optimal solution: at most m + n - 1 strictly positive
    entries.  Supplies and demands must be finite, strictly positive and
    balanced to ``MASS_TOL``.  Pricing is block search over blocks of
    ceil(m / ``_PRICE_BLOCKS``) whole rows, at most ``_PRICE_BLOCKS`` of
    them: starting from the block of the last entering cell, the blocks are
    priced in turn, and the most negative cell of the first block that
    holds one enters, ties going to the lowest index.  The solve ends
    when a whole cycle of blocks finds no entering cell.  After a stall of
    m + n degenerate pivots the rule switches to Bland's (the lowest
    eligible index over every cell) to guarantee termination.  A cell
    enters only when its reduced cost is below
    ``-_PRICE_TOL * max(1, max(c))``, so the threshold scales with the
    costs' own rounding.  The plan bytes depend only on the final basis,
    so a unique optimum gives the same bytes as any other pivot rule.

    The start is the least-cost basis on ``c`` less the row potentials of
    at most ``_WARM_ITERS`` iterations of the entropic solver's scaling
    loop at ``eps = _WARM_REG * max(c)``, or on ``c`` itself when that
    scaling under- or overflows (``_warm_costs``); the pivots still price
    with ``c``.  A per-row constant does not change the optimal plans, so
    only a tied or degenerate optimum can end at another plan than a
    start on ``c`` would.  The start's cells come off a heap of column
    minima, with the ties of a flat argmin over the matrix, and one DEBUG
    line gives the shape, whether warm potentials were used, and the
    start's cost.

    The start always spans all m + n row and column nodes, and the basis
    is kept as a spanning tree rooted at row 0, with one dual per node (u
    for rows, v for columns, with u[0] = 0) in the array that pricing
    reads.  Every node keeps its parent in a list and the set of its
    non-leaf neighbours; a leaf, a degree-1 node other than row 0, is
    flagged in one byte array that numpy also reads.  A pivot finds its
    cycle by walking the entering row up to row 0, then the entering
    column up to the first node of that path; it cuts the leaving cell,
    re-hangs the cut-off subtree from the entering endpoint inside it and
    walks only that subtree's non-leaf nodes; then one gather sets every
    leaf's dual from its parent's.  Every dual is the same sum of costs
    along its root path as a full recomputation would give, so the pivot
    sequence and the plan bytes do not depend on this bookkeeping.  Pivot
    counts go to this module's logger at DEBUG.

    A dual sums up to m + n costs, so on costs near the float maximum
    the duals and reduced costs could overflow.  The pivots then run on
    ``c`` and the price threshold scaled by the power of two that keeps
    ``(2 (m + n) + 2) max(c)`` below ``2 ** 1023``: the scaling is exact,
    short of subnormal costs, so every comparison, pivot and plan byte
    is the same.  On any other input the scale is 1 and ``c`` is not
    copied.
    """
    p, q = _floats(p, "p"), _floats(q, "q")
    _check_masses(p, q)
    m, n = p.shape[0], q.shape[0]
    c = _check_cost(c, m, n)
    # reduced costs carry rounding residue relative to the costs' scale
    price_tol = _PRICE_TOL * max(1.0, float(c.max()))

    alloc = _initial_basis(p, q, c)
    size = m + n
    # duals and reduced costs stay finite on c scaled by a power of two
    k = max(0, math.frexp(c.max())[1] + (2 * size + 2).bit_length() - 1023)
    if k:
        c, price_tol = np.ldexp(c, -k), math.ldexp(price_tol, -k)
    adj: list[set[int]] = [set() for _ in range(size)]
    for (i, j) in alloc:
        adj[i].add(m + j)
        adj[m + j].add(i)
    order, parent = _preorder(adj)
    if len(alloc) != size - 1 or len(order) != size:
        raise ConvergenceError("initial basis is not a spanning tree of all rows and columns")

    dual = np.zeros(size)
    # per node, whether it is a leaf (a degree-1 node other than row 0),
    # through a numpy view; per leaf, its parent and the flat index of
    # the cell joining them
    flags = bytearray(size)
    leaf = np.frombuffer(flags, dtype=bool)
    leaf_up = np.zeros(size, dtype=np.intp)
    leaf_cell = np.zeros(size, dtype=np.intp)

    def settle(x: int) -> bool:
        """Record whether ``x`` is a leaf now and, if so, its parent and cell."""
        flags[x] = now = x != 0 and len(adj[x]) == 1
        if now:
            (up,) = adj[x]
            parent[x] = leaf_up[x] = up
            leaf_cell[x] = x * n + up - m if x < m else up * n + x - m
        return now

    def leaf_duals() -> None:
        """The same subtraction _hang makes, for every leaf at once."""
        leaves = np.flatnonzero(leaf)
        dual[leaves] = c.take(leaf_cell[leaves]) - dual[leaf_up[leaves]]

    for x in range(size):
        settle(x)
    internal = [{y for y in adj[x] if not flags[y]} for x in range(size)]
    _hang(internal, c, m, 0, parent, dual)
    leaf_duals()

    # Pricing reads the reduced costs c - u[:, None] - v[None, :] of one
    # block of whole rows at a time, into one reused block buffer; u and v
    # are views of dual, so every pricing reads the current duals.
    rows = -(-m // _PRICE_BLOCKS)
    buf = np.empty((rows, n))
    u, v = dual[:m, None], dual[None, m:]
    blocks = [(lo * n, c[lo:lo + rows], u[lo:lo + rows], buf[:m - lo])
              for lo in range(0, m, rows)]
    n_blocks = len(blocks)
    start = 0

    def entering() -> int:
        """Flat index of the entering cell, or -1 when no cell improves.

        Under Bland's rule the blocks are visited from row 0, and the
        first eligible cell of the first block holding one enters.
        """
        nonlocal start
        first = 0 if bland else start
        for k in range(first, first + n_blocks):
            k %= n_blocks
            at0, cb, ub, rb = blocks[k]
            np.subtract(cb, ub, out=rb)
            np.subtract(rb, v, out=rb)
            at = int(np.argmax(rb < -price_tol)) if bland else int(rb.argmin())
            if rb.item(at) < -price_tol:
                start = k
                return at0 + at
        return -1

    bland = False
    stalled = 0
    pivots = degenerate = 0
    max_pivots = 200 * size + 1000
    for _ in range(max_pivots):
        flat = entering()
        if flat < 0:
            break
        ei, ej = divmod(flat, n)

        # Cycle: the tree path from row ei to column ej, closed by the
        # entering cell: up from ei, and from ej to the first node of
        # ei's path to row 0.  Walking from ei, the path's cells alternate
        # -theta, +theta; the -theta ones are those below a row node on
        # ei's side and those below a column node on ej's side.  Each
        # -theta cell is recorded with the side it lies on.
        row_path = [ei]
        while row_path[-1]:
            row_path.append(parent[row_path[-1]])
        rank = {node: k for k, node in enumerate(row_path)}
        col_path = [m + ej]
        while col_path[-1] not in rank:
            col_path.append(parent[col_path[-1]])
        minus: list[tuple[tuple[int, int], bool]] = []
        plus: list[tuple[int, int]] = []
        meet = col_path.pop()
        for path, on_row_side in ((row_path[:rank[meet]], True), (col_path, False)):
            for node in path:
                up = parent[node]
                cell = (node, up - m) if node < m else (up, node - m)
                if (node < m) == on_row_side:
                    minus.append((cell, on_row_side))
                else:
                    plus.append(cell)
        theta = min(alloc[cell] for cell, _ in minus)
        leaving, on_row_side = min(entry for entry in minus if alloc[entry[0]] == theta)

        for cell, _ in minus:
            alloc[cell] -= theta
        for cell in plus:
            alloc[cell] += theta
        alloc[(ei, ej)] = theta
        del alloc[leaving]
        li, lj = leaving[0], m + leaving[1]
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)
        adj[li].discard(lj)
        adj[lj].discard(li)

        # Only the four endpoints change degree.  Keep every node's set of
        # non-leaf neighbours: drop the leaving cell, tell the neighbours
        # of an endpoint that turned leaf or non-leaf, add the entering
        # cell.  An endpoint met twice is settled by then, and unchanged.
        internal[li].discard(lj)
        internal[lj].discard(li)
        for x in (ei, m + ej, li, lj):
            was = flags[x]
            if settle(x) != was:
                for y in adj[x]:
                    if was:
                        internal[y].add(x)
                    else:
                        internal[y].discard(x)
        if not flags[m + ej]:
            internal[ei].add(m + ej)
        if not flags[ei]:
            internal[m + ej].add(ei)

        # The subtree cut off below the leaving cell holds the entering
        # endpoint on the leaving cell's side; hang it from the other
        # endpoint, which is never a leaf, and refresh that subtree.
        inner, outer = (ei, m + ej) if on_row_side else (m + ej, ei)
        parent[inner] = outer
        if not flags[inner]:
            dual[inner] = c.item(ei, ej) - dual.item(outer)
            _hang(internal, c, m, inner, parent, dual)
        leaf_duals()

        pivots += 1
        if theta > 0:
            stalled = 0
        else:
            degenerate += 1
            stalled += 1
            if stalled > size:
                bland = True
    else:
        raise ConvergenceError("transportation simplex exceeded its pivot budget")

    _log.debug(
        "transport_simplex %dx%d: %d pivots, %d degenerate, bland switch %s",
        m, n, pivots, degenerate, "yes" if bland else "no",
    )
    return _rebuild_from_basis(adj, p, q, m, n)


def solve_exact(instance: TransportInstance, c) -> TransportPlan:
    """Exact optimal transport plan for an instance and its cost matrix.

    The returned plan is a vertex of the transportation polytope, so it
    has at most n_sources + n_targets - 1 strictly positive entries and
    matches the marginals to well under 1e-9.
    """
    gamma = transport_simplex(instance.p, instance.q, c)
    return TransportPlan(gamma, instance.p, instance.q)


# ---------------------------------------------------------------------------
# entropic regularization: Sinkhorn matrix scaling


@dataclass(frozen=True)
class SinkhornConfig:
    """Settings for the scaling solver.

    ``reg`` is the regularization strength, interpreted against the cost
    matrix rescaled to unit maximum (which is what keeps the kernel clear
    of exp underflow); ``tol`` bounds both marginal L1 errors at exit.
    """

    reg: float = 0.01
    tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (isinstance(self.reg, Real) and self.reg > 0):
            raise ParameterError(f"reg must be positive, got {self.reg!r}")
        if not (isinstance(self.tol, Real) and 0 < self.tol < math.inf):
            raise ParameterError(f"tol must be positive and finite, got {self.tol!r}")
        _check_count(self.max_iter, "max_iter")


@dataclass(frozen=True)
class SinkhornResult:
    plan: TransportPlan
    n_iter: int
    marginal_error: float
    converged: bool


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float64 array starting on a 64-byte boundary.

    numpy only promises 16-byte alignment.  OpenBLAS's dgemv on the
    Sinkhorn kernel runs about a fifth slower when the matrix starts
    anywhere but on a cache line, so the kernel, and the scaling loop's
    iterate buffers, are written into these.
    """
    size = math.prod(shape)
    buf = np.empty(size + _ALIGN // 8)
    start = (-buf.ctypes.data % _ALIGN) // 8
    return buf[start:start + size].reshape(shape)


def _relaxed(omega: float) -> float:
    """``omega``, or 1 (plain scaling) when it relaxes by less than ``_RELAX_MIN``."""
    return omega if omega - 1.0 >= _RELAX_MIN else 1.0


def _gibbs(c: np.ndarray, cmax: float, reg: float, out: np.ndarray, f=None, g=None) -> None:
    """The kernel ``exp(-(c / cmax) / reg + f_i + g_j)``, written into ``out``.

    The two divisions are correctly rounded and ``exp`` runs on one
    contiguous buffer, so the bits do not depend on the layout of ``c``.
    A subnormal ``reg`` overflows the quotient to -inf, whose exp 0 the
    zero-row check reports: the warning is noise.  With ``f`` and ``g``
    (the logs of absorbed scaling factors), every entry below
    ``_TRUNC`` is set to 0, so its product with a factor in
    ``[1 / _ABSORB, _ABSORB]`` is 0 or normal, never subnormal.  Raises
    ConvergenceError when a row or a column of the kernel is all zero.
    """
    np.divide(c, cmax if cmax > 0 else 1.0, out=out)
    with np.errstate(over="ignore"):
        np.divide(out, -reg, out=out)
    if f is not None:
        out += f[:, None]
        out += g
    np.exp(out, out=out)
    if f is not None:
        out[out < _TRUNC] = 0.0
    if np.any(out.sum(axis=1) == 0.0) or np.any(out.sum(axis=0) == 0.0):
        raise ConvergenceError(
            "scaling kernel underflowed to zero rows/columns; increase reg"
        )


def _scale(K: np.ndarray, p: np.ndarray, q: np.ndarray, cfg: SinkhornConfig, rebuild=None):
    """Sinkhorn's iterations on the kernel ``K``: ``(u, v, n_iter, error, converged, stats)``.

    Each iteration moves ``u`` to ``u_hat (u_hat / u)^(omega - 1)`` for
    ``u_hat = p / K v``, then ``v`` the same way with ``q / K' u``, in
    place (plain scaling at omega = 1), from factors of 1.  Only the
    last iterate of each batch of ``_BATCH`` is checked, before its
    column update: the loop returns ``(u, v_old)``, whose row and column
    errors are the ones computed, once both are below ``tol`` (the row
    error is computed only then) or at ``max_iter``.  Otherwise the
    column update is made, and the batch is bad if the column error is
    not finite or ``u`` or ``v`` holds a zero or a non-finite entry.

    Given ``rebuild(f, g)``, which rewrites ``K`` with the exponent
    shifts ``f`` and ``g`` (``_gibbs``), the schedule is the entropic
    solver's:

    - ``_PROBE`` plain iterations, then omega = 2 / (1 + sqrt(1 -
      lambda)), at most ``_OMEGA_MAX``, where lambda is the column
      error's contraction per iteration from iteration ``_PROBE / 2`` to
      ``_PROBE`` (Lehmann, von Renesse, Sambale and Uschmajew,
      arXiv:2012.12562).
    - After a batch that passes, factors outside ``[1 / _ABSORB,
      _ABSORB]`` are absorbed (Schmitzer, arXiv:1610.06519): their logs
      are added to ``f`` and ``g``, ``K`` is rebuilt and truncated in
      place, and both factors restart at 1.  They are then saved.
    - A bad relaxed batch, or the ``_PATIENCE``-th in a row to pass
      without a new lowest column error (too large an omega can stall
      the error without an overflow), is thrown away: the saved factors
      come back, and omega - 1 is halved, to plain scaling below
      ``_RELAX_MIN``.  A bad plain batch raises ConvergenceError.

    Without ``rebuild``, as for the exact solver's warm start, the loop
    runs plain throughout and never absorbs.  ``stats`` is the last
    omega, the iteration it took effect at, and the numbers of
    absorptions and rewinds.

    Both mat-vecs run over the same panels of whole rows of ``K``: the
    fewest panels of at most ``_PANEL`` cells, of as even a row count as
    can be, and of at least two rows unless ``K`` has one.  ``K v`` is one
    ``ndarray.dot`` call (``@``'s ``cblas_dgemv``, with less dispatch)
    per panel, into that panel's slice, so no sum crosses a panel;
    ``K' u`` is the first panel's product, plus each later panel's, in
    row order.  OpenBLAS 0.3.31 summed such a dgemv in the same order
    under 1, 2 and 4 threads, so the bits do not depend on the thread
    count.  Two cases fall outside this: a one-row ``K`` is a vector
    dot, which OpenBLAS splits across threads past 10,000 cells, and
    rows longer than ``_PANEL / 3`` cells make some panels of two or
    three rows larger than ``_PANEL``.  A kernel of at most ``_PANEL``
    cells is one panel, and one call per mat-vec.  The panel views are
    built once, and a rebuilt ``K`` is written into the same buffer;
    every update writes a vector allocated once.
    """
    (m, n), tol, cap = K.shape, cfg.tol, cfg.max_iter
    u, kv, uh = (_aligned_empty((m,)) for _ in range(3))
    v, ktu, vh = (_aligned_empty((n,)) for _ in range(3))
    u[...], v[...] = 1.0, 1.0
    saved_u, saved_v, f, g = u.copy(), v.copy(), np.zeros(m), np.zeros(n)
    # k panels of m // k or m // k + 1 rows: at most _PANEL cells, but
    # never a lone row of a taller K, which numpy would send to a vector dot
    part, k = np.empty(n), max(1, min(-(-m // max(1, _PANEL // n)), m // 2))
    cuts = [slice(m * i // k, m * (i + 1) // k) for i in range(k)]
    fwd = [(K[r], kv[r]) for r in cuts]
    back = [(K[r].T, u[r]) for r in cuts[1:]]
    Kt0, u0 = K[cuts[0]].T, u[cuts[0]]

    def update(num, den, x, x_hat):
        if omega == 1.0:
            np.divide(num, den, out=x)
        else:
            np.divide(num, den, out=x_hat)
            np.divide(x_hat, x, out=x)
            np.power(x, omega - 1.0, out=x)
            np.multiply(x, x_hat, out=x)

    done, omega, omega_from, absorbed, rewinds, converged = 0, 1.0, 0, 0, 0, False
    best, stalls = math.inf, 0   # the lowest relaxed column error, and batches since
    # a bad batch is caught by the check below, so numpy's warnings on
    # the way there are noise
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            nb = min(_BATCH, cap - done)
            for b in range(nb):
                for Kp, kvp in fwd:
                    Kp.dot(v, out=kvp)
                update(p, kv, u, uh)
                Kt0.dot(u0, out=ktu)
                for Ktp, up in back:
                    Ktp.dot(up, out=part)
                    np.add(ktu, part, out=ktu)
                if b < nb - 1:
                    update(q, ktu, v, vh)
            np.multiply(v, ktu, out=vh)
            np.subtract(vh, q, out=vh)
            col_err = float(np.abs(vh, out=vh).sum())
            if col_err < tol and float(np.abs(u * kv - p).sum()) < tol:
                done, converged = done + nb, True
                break
            if done + nb < cap:
                update(q, ktu, v, vh)
            lo, hi = np.minimum(u.min(), v.min()), np.maximum(u.max(), v.max())
            finite = math.isfinite(col_err) and 0.0 < lo and hi < math.inf
            if finite and omega > 1.0:
                best, stalls = (col_err, 0) if col_err < best else (best, stalls + 1)
            if not finite or stalls == _PATIENCE:
                if omega == 1.0:
                    raise ConvergenceError("scaling factors overflowed; increase reg")
                u[...], v[...] = saved_u, saved_v
                omega, omega_from, rewinds, stalls = _relaxed((omega + 1.0) / 2), done, rewinds + 1, 0
                continue
            done += nb
            if done == cap:
                break
            if rebuild is None:   # the exact start: plain throughout, never absorbed
                continue
            if not (1.0 / _ABSORB <= lo and hi <= _ABSORB):
                f += np.log(u)
                g += np.log(v)
                rebuild(f, g)
                u[...], v[...], absorbed = 1.0, 1.0, absorbed + 1
            saved_u[...], saved_v[...] = u, v
            if done == _PROBE // 2:
                half = col_err
            elif done == _PROBE:
                rate = min(1.0, (col_err / half) ** (2 / _PROBE)) if half > 0 else 0.0
                omega, omega_from = _relaxed(min(_OMEGA_MAX, 2 / (1 + math.sqrt(1 - rate)))), done
    err = max(float(np.abs(u * kv - p).sum()), col_err)
    return u, v, done, err, converged, (omega, omega_from, absorbed, rewinds)


def solve_sinkhorn(instance: TransportInstance, c, cfg: SinkhornConfig | None = None) -> SinkhornResult:
    """Entropically regularized plan via alternating row/column scaling.

    Scales the Gibbs kernel K = exp(-c / (reg * max(c))) by u = p / (K v),
    then v = q / (K' u), over-relaxed after the first ``_PROBE``
    iterations at an omega set from their contraction, until both
    marginal L1 errors drop below ``cfg.tol``: row sums match ``p``
    within ``tol``, as column sums match ``q``.  Factors that leave
    ``[1 / _ABSORB, _ABSORB]`` are absorbed into K, which is then
    truncated; a relaxed batch of iterations that goes non-finite is
    run again at a smaller omega (``_scale``).  Exhausting ``max_iter``
    returns the last iterate and its error, flagged as non-converged; a
    kernel that degenerates to zero rows or columns, or plain scaling
    factors that overflow, raise ConvergenceError.

    ``K`` is computed elementwise into a C-ordered buffer on a 64-byte
    boundary, whatever the layout of ``c``: the mat-vecs' summation
    order follows the kernel's layout, and their speed its alignment.
    ``_scale`` sums each mat-vec over fixed row panels of ``K``, so the
    plan's bytes do not depend on the BLAS thread count, within the
    limits stated there.  One DEBUG line gives the shape, the iterations
    and batches, the error and convergence, the last omega and the
    iteration it took effect at, and the numbers of absorptions and
    rewinds.
    """
    cfg = cfg or SinkhornConfig()
    c = _check_cost(c, instance.n_sources, instance.n_targets)
    p, q = instance.p, instance.q
    m, n = c.shape

    cmax = float(c.max())
    K = _aligned_empty((m, n))
    _gibbs(c, cmax, cfg.reg, K)
    u, v, n_iter, err, converged, (omega, omega_from, absorbed, rewinds) = _scale(
        K, p, q, cfg, lambda f, g: _gibbs(c, cmax, cfg.reg, K, f, g))
    _log.debug("solve_sinkhorn %dx%d: %d iterations in %d batches, marginal error %.3g, converged %s, "
               "omega %.4g from iteration %d, %d absorptions, %d rewinds",
               m, n, n_iter, -(-n_iter // _BATCH), err, "yes" if converged else "no",
               omega, omega_from, absorbed, rewinds)
    gamma = u[:, None] * K * v[None, :]
    plan = TransportPlan(gamma, p, q)
    return SinkhornResult(plan, n_iter, err, converged)


def plan_to_assignments(plan: TransportPlan, threshold: float = 0.0) -> list[list[tuple[int, float]]]:
    """Per-source target assignments: every entry of the plan above ``threshold``.

    Entry ``(j, area)`` in row ``i`` of the result says source ``i`` feeds
    target ``j`` with sectional area ``gamma[i, j]``.  The mass dropped by
    thresholding is at most n_sources * n_targets * threshold.
    """
    if not (isinstance(threshold, Real) and threshold >= 0):   # NaN fails too
        raise ParameterError(f"threshold must be nonnegative, got {threshold!r}")
    out: list[list[tuple[int, float]]] = []
    for row in plan.gamma:
        keep = np.flatnonzero(row > threshold)
        out.append([(int(j), float(row[j])) for j in keep])
    return out
