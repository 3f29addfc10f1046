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
The entropic solver over-relaxes both factors at omega = 1.5
(``x <- x_hat * sqrt(x_hat / x)``, Thibault et al. 2017), which reaches
the plain iteration's fixed point in about a third of the iterations; a
batch of relaxed iterations that overflows or stalls runs again plainly,
and the rest of that solve stays plain.  The exact start scales plainly.
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
        u = _scale(w, p, q, SinkhornConfig(max_iter=_WARM_ITERS), relax=False)[0]
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


def _over_relax(hat: np.ndarray, old: np.ndarray, out: np.ndarray) -> None:
    """``out = hat * sqrt(hat / old)``: the scaling step at omega = 1.5, in place."""
    np.divide(hat, old, out=out)
    np.sqrt(out, out=out)
    np.multiply(out, hat, out=out)


def _scale(K: np.ndarray, p: np.ndarray, q: np.ndarray, cfg: SinkhornConfig, relax: bool = True):
    """Sinkhorn's iterations on the kernel ``K``: ``(u, v, n_iter, error, converged, plain_from)``.

    Over-relaxed scaling at omega = 1.5 (Thibault, Chizat, Dossal and
    Papadakis, arXiv:1711.01851): ``u <- u^(1 - omega) (p / K v)^omega``,
    and the same for ``v`` with ``q / K' u``.  At omega = 1.5 that is
    ``x_new = x_hat * sqrt(x_hat / x_old)``: one divide, one sqrt and one
    multiply past the plain update ``x_new = x_hat``.  It has the plain
    iteration's fixed points, and reaches them in about a third of the
    iterations.  Both factors start at 1.

    The iterations run in batches of up to ``_BATCH``.  Iteration ``b``
    of a batch reads ``U[b]`` and ``V[b]``, and writes its ``K v``,
    ``K' u`` into row ``b`` of ``KV`` and ``KTU`` and its new factors into
    row ``b + 1`` of ``U`` and ``V``: mat-vecs through ``ndarray.dot``
    (the ``cblas_dgemv`` call of ``@``, with less dispatch) and the
    elementwise updates, into ``uh`` and ``vh`` for ``x_hat``, and no
    other Python work.  Every buffer is one C-contiguous array, starting
    on a cache line, allocated once and freed on return, before the plan
    is formed.

    The relaxed iteration can overflow, or stall, where the plain one
    converges, so each relaxed batch is checked once it has run.  It is
    thrown away when a factor overflows (the finiteness test below), when
    none of its iterations converges and its last column error is not
    below the last column error of the batch before it (a NaN one never
    is), or when the ``v`` it passes on is not finite.  It then runs again from its start with
    plain scaling, and the rest of the solve stays plain; ``plain_from``
    is the iteration it fell back at, or None.  A plain batch is the
    plain iteration's, bit for bit, so a plain solve raises where it
    always did.  ``relax=False`` runs plain from the start, as the exact
    solver's warm start does.

    Both mat-vecs run over the same panels of whole rows of ``K``: the
    fewest panels of at most ``_PANEL`` cells, of as even a row count as
    can be, and of at least two rows unless ``K`` has one.  ``K v`` is one
    call per panel, into that panel's slice of ``KV[b]``, so no sum
    crosses a panel; ``K' u`` is the first panel's product, plus each
    later panel's, in row order.  OpenBLAS 0.3.31 summed such a dgemv in
    the same order under 1, 2 and 4 threads, so the bits do not depend
    on the thread count.  Two cases fall outside this: a one-row ``K``
    is a vector dot, which OpenBLAS splits across threads past 10,000
    cells, and rows longer than ``_PANEL / 3`` cells make some panels of
    two or three rows larger than ``_PANEL``.  A kernel of at most
    ``_PANEL`` cells is one panel, and one call per mat-vec.  The panel
    views are built once.

    After a batch, one elementwise pass and one row reduce give the
    column error of each of its iterations (a row reduce of a contiguous
    row has the bits of its 1-D sum), and these are walked in order under
    the checks of an every-iteration loop.  No decision depends on an
    iteration past the first one that stops the loop, so the factors,
    the iteration count and the error have the bits of checking on
    every iteration, with the batch checks above at every ``_BATCH``-th
    iteration and at the cap.

    A finite column error means every ``u`` and ``K' u`` entry is
    finite: ``K`` has no zero row, so an infinite ``u_i`` makes some
    ``K' u_j`` infinite or NaN, a NaN one makes every ``K' u_j`` NaN,
    and a non-finite ``K' u_j`` makes the column error non-finite.  So
    the elementwise finiteness test runs only when the column error is
    not finite, which covers every iteration on which it can fail.  The
    row error is computed only when the column error is below ``tol``
    (or NaN), since the exit test needs both below it.
    """
    (m, n), tol = K.shape, cfg.tol
    KV, KTU = _aligned_empty((_BATCH, m)), _aligned_empty((_BATCH, n))
    U, V = _aligned_empty((_BATCH + 1, m)), _aligned_empty((_BATCH + 1, n))
    uh, vh, resid = _aligned_empty((m,)), _aligned_empty((n,)), _aligned_empty((_BATCH, n))
    U[0], V[0] = 1.0, 1.0
    # k panels of m // k or m // k + 1 rows: at most _PANEL cells, but
    # never a lone row of a taller K, which numpy would send to a vector
    # dot.  Per iteration of a batch: the panels of K v, then K' u's
    # first panel and its later ones, which go through part
    part, k = np.empty(n), max(1, min(-(-m // max(1, _PANEL // n)), m // 2))
    cuts = [slice(m * i // k, m * (i + 1) // k) for i in range(k)]
    steps = [([(K[r], kv[r]) for r in cuts], kv, u, u_next, K[cuts[0]].T, u_next[cuts[0]],
              [(K[r].T, u_next[r]) for r in cuts[1:]], ktu, v, v_next)
             for kv, u, u_next, ktu, v, v_next in zip(KV, U[:-1], U[1:], KTU, V[:-1], V[1:])]
    done, converged, last_col, plain_from = 0, False, math.inf, None
    # an overflowing factor is caught by the finiteness check below, so
    # numpy's warnings on the way there (and past it, to the batch's
    # end) are noise
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while not converged and done < cfg.max_iter:
            nb = min(_BATCH, cfg.max_iter - done)
            for fwd, kv, u, u_next, Kt0, u0, back, ktu, v, v_next in steps[:nb]:
                for Kp, kvp in fwd:
                    Kp.dot(v, out=kvp)
                if relax:
                    np.divide(p, kv, out=uh)
                    _over_relax(uh, u, u_next)
                else:
                    np.divide(p, kv, out=u_next)
                Kt0.dot(u0, out=ktu)
                for Ktp, up in back:
                    Ktp.dot(up, out=part)
                    np.add(ktu, part, out=ktu)
                if relax:
                    np.divide(q, ktu, out=vh)
                    _over_relax(vh, v, v_next)
                else:
                    np.divide(q, ktu, out=v_next)
            res = resid[:nb]
            np.multiply(V[:nb], KTU[:nb], out=res)
            np.subtract(res, q, out=res)
            col_errs = np.add.reduce(np.abs(res, out=res), axis=1).tolist()
            for b, col_err in enumerate(col_errs):
                if not math.isfinite(col_err):
                    if not (np.all(np.isfinite(U[b + 1])) and np.all(np.isfinite(KTU[b]))):
                        if relax:
                            break
                        raise ConvergenceError(
                            "scaling factors overflowed; increase reg"
                        )
                # written so that NaN passes: max(row_err, nan) is row_err
                if not col_err >= tol:
                    row_err = float(np.abs(U[b + 1] * KV[b] - p).sum())
                    if max(row_err, col_err) < tol:
                        converged = True
                        break
            else:
                if not relax or (col_err < last_col and np.all(np.isfinite(V[nb]))):
                    done += nb
                    U[0], V[0] = U[nb], V[nb]
                    last_col = col_err
                    continue
            if not converged:   # a relaxed batch that failed its checks
                relax, plain_from = False, done
    if converged:
        n_iter, v = done + b + 1, V[b]
    else:  # the cap: the last iterate's error, and its updated v
        row_err = float(np.abs(U[b + 1] * KV[b] - p).sum())
        n_iter, v = done, V[0]
    return U[b + 1].copy(), v.copy(), n_iter, max(row_err, col_err), converged, plain_from


def solve_sinkhorn(instance: TransportInstance, c, cfg: SinkhornConfig | None = None) -> SinkhornResult:
    """Entropically regularized plan via alternating row/column scaling.

    Iterates the over-relaxed scaling u = u_hat sqrt(u_hat / u) with
    u_hat = p / (K v), then v = v_hat sqrt(v_hat / v) with
    v_hat = q / (K' u), on the Gibbs kernel K = exp(-c / (reg * max(c)))
    until both marginal L1 errors drop below ``cfg.tol``: row sums match
    ``p`` within ``tol``, as column sums match ``q``.  A batch of relaxed
    iterations that overflows, stalls or leaves a non-finite ``v`` runs
    again with the plain iteration u = p / (K v), v = q / (K' u), and the
    rest of the solve stays plain (``_scale``).  Exhausting ``max_iter``
    returns the last iterate and its error, flagged as non-converged; a
    kernel that degenerates to zero rows or columns, or plain scaling
    factors that overflow, raise ConvergenceError.

    ``K`` is computed elementwise into a C-ordered buffer on a 64-byte
    boundary, whatever the layout of ``c``: the mat-vecs' summation
    order follows the kernel's layout, and their speed its alignment.
    ``_scale`` runs the iterations in batches, checking them afterwards
    in order, with the bits of a loop that checks every iteration, and
    sums each mat-vec over fixed row panels of ``K``, so the plan's bytes
    do not depend on the BLAS thread count, within the limits stated
    there.  One DEBUG line gives the shape, the iterations and batches,
    the error and convergence, and "relaxed throughout" or the iteration
    at which the solve fell back to plain scaling.
    """
    cfg = cfg or SinkhornConfig()
    c = _check_cost(c, instance.n_sources, instance.n_targets)
    p, q = instance.p, instance.q
    m, n = c.shape

    cmax = float(c.max())
    K = _aligned_empty((m, n))
    # -(c / cmax) / reg with the bits of exp(-chat / reg) for any layout
    # of c: each division is correctly rounded, and exp runs on one
    # contiguous buffer.  A subnormal reg overflows the quotient to -inf,
    # whose exp 0 the zero-row check below reports: the warning is noise
    np.divide(c, cmax if cmax > 0 else 1.0, out=K)
    with np.errstate(over="ignore"):
        np.divide(K, -cfg.reg, out=K)
    np.exp(K, out=K)
    if np.any(K.sum(axis=1) == 0.0) or np.any(K.sum(axis=0) == 0.0):
        raise ConvergenceError(
            "scaling kernel underflowed to zero rows/columns; increase reg"
        )

    u, v, n_iter, err, converged, plain_from = _scale(K, p, q, cfg)
    _log.debug("solve_sinkhorn %dx%d: %d iterations in %d batches, marginal error %.3g, converged %s, %s",
               m, n, n_iter, -(-n_iter // _BATCH), err, "yes" if converged else "no",
               "relaxed throughout" if plain_from is None else f"plain scaling from iteration {plain_from}")
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
