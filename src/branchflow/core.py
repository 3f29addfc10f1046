"""Shared domain types for branched flow networks.

Geometry, discrete transport instances, transport plans, rooted flow
trees with per-edge sectional areas, and the sub-additive cost
functional that makes trunk edges cheaper than parallel ones.

All types are immutable value data after construction; the operations
here are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

KIND_SOURCE = "source"
KIND_TARGET = "target"
KIND_BRANCH = "branch"
KINDS = (KIND_SOURCE, KIND_TARGET, KIND_BRANCH)
FORMULAS = ("interp", "power")   # the closed-form branch-point rules

MASS_TOL = 1e-9           # closure and balance tolerance for masses
CONSERVATION_RTOL = 1e-9  # relative residual tolerated at internal nodes


class BranchFlowError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(BranchFlowError):
    """An argument violates a documented precondition."""


class StructuralError(BranchFlowError):
    """A flow network is structurally invalid.

    ``report`` holds the ValidationReport with every violation when the
    error comes from constructing a FlowTree, else None.
    """

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


class ConvergenceError(BranchFlowError):
    """An iterative solver could not reach a usable state."""


class InputError(BranchFlowError):
    """An input file is missing, unreadable, or malformed."""


def _check_alpha(alpha: float):
    if not (isinstance(alpha, Real) and 0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha!r}")


def _check_int(value, name: str):
    """Reject non-integers, which a later int() would truncate or parse, and bools."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def _check_count(value, name: str):
    """Reject anything but an integer from 1 to the largest count whose
    array of 64-byte rows numpy can still size."""
    _check_int(value, name)
    if value < 1:
        raise ParameterError(f"{name} must be at least 1, got {value}")
    if value > (limit := np.iinfo(np.intp).max // 64):
        raise ParameterError(f"{name} must be at most {limit}, got {value}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _floats(x, name: str, dtype=float) -> np.ndarray:
    """``x`` as a float (or ``dtype``) array; ParameterError unless it holds real numbers."""
    try:
        return np.array(x, dtype=dtype)
    except (TypeError, ValueError) as exc:   # a string, a complex, a ragged list
        raise ParameterError(f"{name} must hold real numbers: {exc}") from None


def as_point(coords: Iterable[float]) -> np.ndarray:
    """Return ``coords`` as a read-only float vector of dimension 2 or 3."""
    p = _floats(coords, "a point")
    if p.ndim != 1 or p.shape[0] not in (2, 3):
        raise ParameterError(f"a point needs 2 or 3 coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ParameterError("point coordinates must be finite")
    return _freeze(p)


def _as_point_array(arr, name: str) -> np.ndarray:
    a = np.atleast_2d(_floats(arr, name))
    if a.ndim != 2 or a.shape[1] not in (2, 3):
        raise ParameterError(f"{name} must be an (n, 2) or (n, 3) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} contains non-finite coordinates")
    return _freeze(a)


def _as_mass_vector(arr, name: str) -> np.ndarray:
    v = _floats(arr, name).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{name} contains non-finite entries")
    return _freeze(v)


def _child_groups(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Children grouped by parent, in id order: node p's children are
    ``kids[bounds[p]:bounds[p + 1]]``.  Out-of-range parents link nothing."""
    n = parent.shape[0]
    linked = np.flatnonzero((parent >= 0) & (parent < n))
    kids = linked[np.argsort(parent[linked], kind="stable")]
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(parent[linked], minlength=n), out=bounds[1:])
    return kids, bounds


def _outflow(area: np.ndarray, kids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each node's outflow, the sum of its children's areas: bit for bit
    ``area[children].sum()``, which starts from 0.0, so every group does."""
    starts = bounds[:-1] + np.arange(bounds.size - 1)
    vals = np.zeros(kids.size + starts.size)
    vals[np.delete(np.arange(vals.size), starts)] = area[kids]
    # an inf sum fails FlowTree's finite check or the conservation check: no warning
    with np.errstate(over="ignore"):
        return np.add.reduceat(vals, starts)


@dataclass(frozen=True, eq=False)
class TransportInstance:
    """Discrete transport instance: weighted source and target points.

    ``p`` and ``q`` are strictly positive masses over sources and targets,
    each summing to one.  A source and a target at identical coordinates
    would create a degenerate zero-cost edge and is rejected.
    """

    sources: np.ndarray
    targets: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sources", _as_point_array(self.sources, "sources"))
        object.__setattr__(self, "targets", _as_point_array(self.targets, "targets"))
        object.__setattr__(self, "p", _as_mass_vector(self.p, "p"))
        object.__setattr__(self, "q", _as_mass_vector(self.q, "q"))
        if self.sources.shape[1] != self.targets.shape[1]:
            raise ParameterError("sources and targets must share one dimension")
        if self.p.shape[0] != self.sources.shape[0]:
            raise ParameterError("p must have one mass per source")
        if self.q.shape[0] != self.targets.shape[0]:
            raise ParameterError("q must have one mass per target")
        if np.any(self.p <= 0) or np.any(self.q <= 0):
            raise ParameterError("all masses must be strictly positive")
        sp, sq = float(self.p.sum()), float(self.q.sum())
        if max(abs(sp - 1.0), abs(sq - 1.0), abs(sp - sq)) > MASS_TOL:
            raise ParameterError(f"p and q must each sum to one and agree to {MASS_TOL}, "
                                 f"got sum(p)={sp!r} and sum(q)={sq!r}")
        clash = (self.sources[:, None, :] == self.targets[None, :, :]).all(axis=2)
        if clash.any():
            i, j = np.argwhere(clash)[0]
            raise ParameterError(
                f"source {i} and target {j} share identical coordinates"
            )

    @property
    def n_sources(self) -> int:
        return self.sources.shape[0]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.sources.shape[1]


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling matrix with prescribed row and column masses."""

    gamma: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        g = _floats(self.gamma, "gamma")
        if g.ndim != 2:
            raise ParameterError("gamma must be a matrix")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ParameterError("gamma entries must be finite and nonnegative")
        object.__setattr__(self, "gamma", _freeze(g))
        object.__setattr__(self, "row_marginal", _as_mass_vector(self.row_marginal, "row_marginal"))
        object.__setattr__(self, "col_marginal", _as_mass_vector(self.col_marginal, "col_marginal"))
        if self.gamma.shape != (self.row_marginal.shape[0], self.col_marginal.shape[0]):
            raise ParameterError("gamma shape must match the marginal lengths")

    def marginal_error(self) -> tuple[float, float]:
        """L1 distances of the plan's row/column sums from the marginals."""
        row = float(np.abs(self.gamma.sum(axis=1) - self.row_marginal).sum())
        col = float(np.abs(self.gamma.sum(axis=0) - self.col_marginal).sum())
        return row, col


@dataclass(frozen=True, eq=False)
class FlowTree:
    """Rooted flow network: one source, target leaves, free branch nodes.

    ``parent[n]`` is the node feeding ``n`` (-1 for the source) and
    ``area[n]`` is the sectional area on the edge into ``n``.  The source
    row stores its total outflow, so every internal node obeys the same
    conservation rule: its area equals the sum of its children's areas.

    Every instance is valid: construction runs validate_tree and raises
    StructuralError, carrying the report, on any violation.  The builder
    and the forest loader check a whole forest at once instead
    (``_sourced_forest``), and make the trees that pass without a
    second check.
    """

    coords: np.ndarray
    kind: np.ndarray
    parent: np.ndarray
    area: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_point_array(self.coords, "coords"))
        # dtype=str keeps every kind whole, so a long bad kind cannot be
        # cut to a valid one; valid kinds all have six characters (U6)
        kind = np.array(self.kind, dtype=str)
        # integer ids only: a cast would truncate floats and parse strings
        parent = np.asarray(self.parent)
        if parent.dtype.kind not in "iu" or not np.can_cast(parent.dtype, np.int64):
            raise ParameterError(f"parent ids must be integers, got dtype {parent.dtype}")
        parent = np.array(parent, dtype=np.int64)
        area = _floats(self.area, "area")
        n = self.coords.shape[0]
        if kind.shape != (n,) or parent.shape != (n,) or area.shape != (n,):
            raise ParameterError("kind, parent and area must have one entry per node")
        if not np.all(np.isfinite(area)):
            raise ParameterError("area contains non-finite entries")
        object.__setattr__(self, "kind", _freeze(kind))
        object.__setattr__(self, "parent", _freeze(parent))
        object.__setattr__(self, "area", _freeze(area))
        report = validate_tree(self)
        if not report.ok:
            raise StructuralError(f"invalid flow tree: {report.summary()}", report)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def children(self) -> list[list[int]]:
        """Child lists per node, in node-id order.

        Parents outside the node range contribute no link; validate_tree
        reports them as orphans during construction.
        """
        kids, bounds = _child_groups(self.parent)
        kids = kids.tolist()
        return [kids[a:b] for a, b in itertools.pairwise(bounds.tolist())]

    def edge_lengths(self) -> np.ndarray:
        """Euclidean length of the edge into each node (0 for the source)."""
        lengths = np.zeros(self.n_nodes)
        child = np.flatnonzero(self.parent >= 0)
        seg = self.coords[child] - self.coords[self.parent[child]]
        with np.errstate(over="ignore"):   # a length beyond the float range is inf
            lengths[child] = np.linalg.norm(seg, axis=1)
        return lengths


@dataclass(frozen=True)
class BotParams:
    """Parameters of a branched-network build.

    ``alpha`` is the sub-additivity exponent in [0, 1]; ``formula`` picks
    the closed-form branch-point rule ("interp" or "power");
    ``shift_norm``/``shift_delta`` control the optional frozen random
    displacement used to separate paired networks; ``seed`` drives every
    random draw.
    """

    alpha: float = 0.5
    formula: str = "interp"
    shift_norm: float = 0.0
    shift_delta: float = 0.01
    seed: int = 0

    def __post_init__(self):
        _check_alpha(self.alpha)
        # a numpy scalar would make s ** alpha on a Python float round in its precision
        object.__setattr__(self, "alpha", float(self.alpha))
        _check_int(self.seed, "seed")
        if self.formula not in FORMULAS:
            raise ParameterError(f"formula must be {' or '.join(map(repr, FORMULAS))}, "
                                 f"got {self.formula!r}")
        # each check is written so that NaN fails it
        if not (isinstance(self.shift_norm, Real) and 0 <= self.shift_norm < np.inf):
            raise ParameterError("shift_norm must be finite and nonnegative")
        delta = self.shift_delta
        if self.shift_norm > 0 and not (isinstance(delta, Real) and 0 < delta < np.inf):
            raise ParameterError("shift_delta must be finite and positive when shift_norm > 0")


@dataclass(frozen=True)
class Violation:
    """One violated structural constraint, with the nodes involved."""

    kind: str
    nodes: tuple[int, ...]
    residual: float | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(v.message for v in self.violations)


def _forest_links(parent: np.ndarray, starts: np.ndarray) -> tuple:
    """Each node's parent as a forest-wide id, -1 where its local id lies
    outside its tree, and the children grouped by that (``_child_groups``)."""
    sizes = np.diff(starts)
    inside = (parent >= 0) & (parent < np.repeat(sizes, sizes))
    up = np.where(inside, parent + np.repeat(starts[:-1], sizes), -1)
    return (up, *_child_groups(up))


def _check_forest(kind, parent, area, starts, links=None) -> tuple:
    """The node rules of validate_tree, as whole-array passes over a forest.

    Tree t holds nodes ``starts[t]:starts[t + 1]`` of the flat arrays, its
    parent ids local to it; ``links`` is ``_forest_links`` if the caller
    has it.  Returns the per-node masks in validate_tree's order (bad
    kind, source with a parent, orphan or own parent, on or leading into a
    cycle, nonpositive area, target with children, unbalanced), then each
    node's outflow and each tree's source count.
    """
    n = kind.shape[0]
    up, kids, bounds = _forest_links(parent, starts) if links is None else links
    is_source, is_target, is_branch = (kind == k for k in KINDS)
    # Pointer doubling: after k rounds hop[i] is 2**k parents up from i, or
    # n once i's chain has ended, which a chain does within n steps if ever.
    hop = np.append(np.where(up >= 0, up, n), n)
    for _ in range(n.bit_length()):
        hop = hop[hop]
    outflow = _outflow(area, kids, bounds)
    with np.errstate(invalid="ignore"):   # inf - inf: FlowTree rejects an inf area
        unbalanced = (is_source | is_branch) & (
            np.abs(area - outflow) > CONSERVATION_RTOL * np.maximum(1.0, np.abs(area)))
    return (~(is_source | is_target | is_branch), is_source & (parent != -1),
            ~is_source & ((up < 0) | (up == np.arange(n))), hop[:n] < n,
            ~is_source & ~(area > 0), is_target & (bounds[1:] > bounds[:-1]), unbalanced,
            outflow, np.diff(np.searchsorted(np.flatnonzero(is_source), starts)))


def validate_tree(tree: FlowTree, demands: Mapping[int, float] | None = None) -> ValidationReport:
    """Check a flow tree against the node balance rules.

    Verifies single-source rootedness, acyclicity, leaf-only targets,
    positive areas, and conservation (area into each internal node equals
    the sum of its children's areas, relative tolerance 1e-9).  When
    ``demands`` maps target ids to their assigned areas, those are checked
    too.  Diagnostics are returned, never raised.

    FlowTree construction already runs this check, and the builder and
    the forest loader run it once over a whole forest; call it directly
    to check ``demands``.  The rules are ``_check_forest``'s whole-array
    passes over a forest of one; Python loops run only per violation,
    per node on or leading into a cycle, and per ``demands`` entry.
    """
    v: list[Violation] = []
    n = tree.n_nodes
    kind, parent, area = tree.kind, tree.parent, tree.area
    (bad_kind, source_parent, orphan, cyclic, nonpositive, fed, unbalanced, outflow,
     _) = _check_forest(kind, parent, area, np.array([0, n]))

    for i in np.flatnonzero(bad_kind):
        v.append(Violation("bad-kind", (int(i),), None, f"node {i} has unknown kind {kind[i]!r}"))
    src = np.flatnonzero(kind == KIND_SOURCE)
    if src.size != 1:
        v.append(Violation("source-count", tuple(src.tolist()), None,
                           f"expected exactly one source node, found {src.size}"))
    for s in np.flatnonzero(source_parent):
        v.append(Violation("source-parent", (int(s),), None,
                           f"source node {s} must not have a parent"))

    for i in np.flatnonzero(orphan):
        if parent[i] == i:
            v.append(Violation("cycle", (int(i),), None, f"node {i} is its own parent"))
        else:
            v.append(Violation("orphan", (int(i),), None, f"node {i} has no valid parent"))

    # Walk the endless chains in id order; a walk that runs back into
    # itself names a new cycle, from the node where it entered it.
    walk_of: dict[int, int] = {}
    for start in np.flatnonzero(cyclic).tolist():
        chain, node = [], start
        while node not in walk_of:
            walk_of[node] = start
            chain.append(node)
            node = int(parent[node])
        if walk_of[node] == start:
            cyc = chain[chain.index(node):]
            v.append(Violation("cycle", tuple(cyc), None, f"nodes {cyc} form a cycle"))

    for i in np.flatnonzero(nonpositive):
        v.append(Violation("nonpositive-area", (int(i),), float(area[i]),
                           f"node {i} carries nonpositive area {area[i]}"))

    for i in np.flatnonzero(fed | unbalanced):
        if fed[i]:
            ks = np.flatnonzero(parent == i).tolist()
            v.append(Violation("target-not-leaf", (int(i), *ks), None,
                               f"target node {i} has children {ks}"))
        else:
            r = float(area[i] - outflow[i])
            v.append(Violation("conservation", (int(i),), r, f"node {i} carries {area[i]} "
                               f"but sends {float(outflow[i])} (residual {r:.3g})"))

    for node, demand in (demands or {}).items():
        _check_int(node, "a demand's node id")
        if not isinstance(demand, Real):
            raise ParameterError(f"demand for node {node} must be a real number, got {demand!r}")
        if node < 0 or node >= n or kind[node] != KIND_TARGET:
            v.append(Violation("demand-mismatch", (int(node),), None,
                               f"demand given for non-target node {node}"))
            continue
        try:
            d = float(demand)
        except OverflowError:   # an int past the float range, reported as an infinite one
            demand = d = math.inf
        if not (math.isfinite(d) and abs(area[node] - d) <= CONSERVATION_RTOL * max(1.0, abs(d))):
            v.append(Violation("demand-mismatch", (int(node),), float(area[node] - d),
                               f"target {node} carries {area[node]} but was assigned {demand}"))

    return ValidationReport(tuple(v))


def _checked_tree(coords, kind, parent, area) -> FlowTree:
    """A FlowTree of frozen arrays that the forest check passed, made without a second check."""
    tree = object.__new__(FlowTree)
    vars(tree).update(coords=coords, kind=kind, parent=parent, area=area)
    return tree


def _sourced_forest(coords: list, kind: np.ndarray, parent: np.ndarray,
                    area: np.ndarray) -> list[FlowTree]:
    """The FlowTrees of a forest: tree t has the float coordinates
    ``coords[t]`` and, in order, its rows of the flat str ``kind``, int64
    ``parent`` (ids local to the tree) and float ``area``.

    One grouping sets each source row of ``area``, in place and in id
    order (a source may feed another), to its outflow, and then feeds one
    check of the frozen arrays.  A tree that passes every check of
    FlowTree is made from slices of them; the first that fails, in input
    order, is built by FlowTree itself, which raises its error.
    """
    if not coords:
        return []
    starts = np.cumsum([0] + [len(c) for c in coords])
    links = _forest_links(parent, starts)
    src = np.flatnonzero(kind == KIND_SOURCE)
    while src.size:   # each tree's first source not yet set, in all trees at once
        first = src[np.unique(np.searchsorted(starts, src, "right"), return_index=True)[1]]
        area[first] = _outflow(area, *links[1:])[first]
        src = np.setdiff1d(src, first, assume_unique=True)
    for a in (kind, parent, area, *coords):
        _freeze(a)

    *masks, _, n_sources = _check_forest(kind, parent, area, starts, links)
    ok = (n_sources == 1) & [c.ndim == 2 and c.shape[1] in (2, 3) for c in coords]
    bad = np.flatnonzero(np.logical_or.reduce(masks) | ~np.isfinite(area))
    ok[np.searchsorted(starts, bad, "right") - 1] = False
    bad = np.flatnonzero(~np.isfinite(np.concatenate([c.reshape(-1) for c in coords])))
    ok[np.searchsorted(np.cumsum([c.size for c in coords]), bad, "right")] = False
    bounds = starts.tolist()
    return [(_checked_tree if good else FlowTree)(c, kind[a:b], parent[a:b], area[a:b])
            for c, good, a, b in zip(coords, ok.tolist(), bounds, bounds[1:])]


def bot_cost(tree: FlowTree, alpha: float) -> float:
    """Total transport cost of a flow tree: sum of area**alpha * length.

    At ``alpha = 1`` this is the plain mass-times-distance objective; at
    ``alpha = 0`` it degenerates to total edge length.  Raises
    ParameterError for ``alpha`` outside [0, 1]; the tree needs no check,
    since a FlowTree is valid by construction.
    """
    _check_alpha(alpha)
    child = np.flatnonzero(tree.parent >= 0)
    return float(np.sum(tree.area[child] ** alpha * tree.edge_lengths()[child]))


def subadditivity_gain(m1: float, m2: float, alpha: float) -> float:
    """Saving from merging two flows: m1**a + m2**a - (m1 + m2)**a.

    Strictly positive for alpha in [0, 1); exactly zero at alpha = 1.
    """
    if not all(isinstance(m, Real) and 0 < m < np.inf for m in (m1, m2)):
        raise ParameterError("masses must be finite and strictly positive")
    _check_alpha(alpha)
    return m1 ** alpha + m2 ** alpha - (m1 + m2) ** alpha
