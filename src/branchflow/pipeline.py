"""End-to-end flows: plan-then-branch networks, paired artery/vein
trees, and the three-level geographic delivery hierarchy.

Geographic work happens in 3-D unit-sphere coordinates: chordal
(straight-line) geometry keeps the closed-form branch points valid, and
every computed point is radially pushed back onto the sphere, which
distorts lengths only at second order in the arc size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .branching import OneToManyProblem, _frozen_shift, build_forest
from .clustering import WeightedPointSet, choose_k, weighted_centroid, weighted_kmeans
from .core import (
    BotParams,
    FlowTree,
    ParameterError,
    TransportInstance,
    TransportPlan,
    _check_count,
    _child_groups,
    _floats,
    _outflow,
    bot_cost,
)
from .io import _BLOCK, CityTable, _lat_ok, normalize_lon
from .ot import (
    SinkhornConfig,
    cost_matrix,
    plan_cost,
    plan_to_assignments,
    solve_exact,
    solve_sinkhorn,
)
from .seeding import substream, substream_seed

OT_MODES = ("exact", "sinkhorn")
# dense regularized plans need trimming before decomposition; exact plans do not
DEFAULT_THRESHOLD = {"exact": 0.0, "sinkhorn": 1e-8}

DEFAULT_POLE = (90.0, 0.0)


# ---------------------------------------------------------------------------
# plan-then-branch networks


@dataclass(frozen=True)
class NetworkReport:
    """Cost summary of a two-stage build.

    ``ot_cost`` is the plan's mass-times-distance objective; ``star_cost``
    re-weights the same direct edges by area**alpha, which is the
    baseline the branched trees strictly improve; ``bot_cost`` is the
    forest total after branching.
    """

    ot_mode: str
    ot_cost: float
    star_cost: float
    bot_cost: float
    threshold: float
    per_source: tuple
    sinkhorn_iterations: int | None = None
    sinkhorn_converged: bool | None = None


@dataclass(frozen=True)
class NetworkResult:
    trees: tuple
    plan: TransportPlan
    report: NetworkReport


def _plan(instance: TransportInstance, ot_mode: str, cfg: SinkhornConfig | None) -> tuple:
    """Stage one: the plan, its cost, and the Sinkhorn result (None in exact mode)."""
    c = cost_matrix(instance)
    res = solve_sinkhorn(instance, c, cfg) if ot_mode == "sinkhorn" else None
    plan = solve_exact(instance, c) if res is None else res.plan
    return plan, plan_cost(plan, c), res


def solve_network(
    instance: TransportInstance,
    params: BotParams,
    ot_mode: str = "exact",
    cfg: SinkhornConfig | None = None,
    *,
    threshold: float | None = None,
) -> NetworkResult:
    """Plan mass between sources and targets, then branch each source's share.

    Stage one computes a transport plan (exact or entropic); stage two
    decomposes it into one one-to-many problem per source, with the
    plan's coupling entries as target areas, and builds a branched tree
    for each.  Sources whose every coupling falls below ``threshold``
    get no tree; a threshold that drops every coupling raises
    ``ParameterError``.
    """
    if ot_mode not in OT_MODES:
        raise ParameterError(f"ot_mode must be one of {OT_MODES}, got {ot_mode!r}")
    if threshold is None:
        threshold = DEFAULT_THRESHOLD[ot_mode]

    plan, ot_cost, res = _plan(instance, ot_mode, cfg)
    assignments = plan_to_assignments(plan, threshold)
    if not any(assignments):
        raise ParameterError(f"threshold {threshold} drops every plan entry; "
                             f"the largest is {float(plan.gamma.max())}")
    problems = []
    source_index = []
    for i, assignment in enumerate(assignments):
        if not assignment:
            continue
        idx = [j for j, _ in assignment]
        areas = [a for _, a in assignment]
        problems.append(OneToManyProblem(instance.sources[i], instance.targets[idx], areas))
        source_index.append(i)
    subs = [replace(params, seed=substream_seed(params.seed, "network", str(i)))
            for i in source_index]
    results = build_forest(problems, subs)
    per_source = []
    total_star = total_bot = 0.0
    for i, r in zip(source_index, results):
        star = float(r.trace[0])   # a trace starts at the star cost, bit for bit
        bot = bot_cost(r.tree, params.alpha)
        per_source.append((i, star, bot))
        total_star += star
        total_bot += bot

    report = NetworkReport(
        ot_mode=ot_mode,
        ot_cost=ot_cost,
        star_cost=total_star,
        bot_cost=total_bot,
        threshold=threshold,
        per_source=tuple(per_source),
        sinkhorn_iterations=None if res is None else res.n_iter,
        sinkhorn_converged=None if res is None else res.converged,
    )
    return NetworkResult(tuple(r.tree for r in results), plan, report)


def dual_network(problem: OneToManyProblem, params: BotParams) -> tuple:
    """Build two interleaved trees over the same targets, e.g. arteries and veins.

    Each build gets its own frozen displacement vector drawn from a
    distinct sub-seed, so the two trees share every target leaf but their
    branch nodes come apart, more so on thin edges than on thick ones.
    With ``shift_norm = 0`` both builds coincide exactly.
    """
    eps = [_frozen_shift(params, problem.dim, "dual", role) for role in ("artery", "vein")]
    return tuple(r.tree for r in build_forest([problem, problem], [params, params], eps=eps))


# ---------------------------------------------------------------------------
# seeded synthetic problems


def _positive_masses(rng, n: int) -> np.ndarray:
    w = rng.random(n)
    while np.any(w <= 0):
        w[w <= 0] = rng.random(int(np.sum(w <= 0)))
    return w / w.sum()


def synthetic_problem(seed: int, n_targets: int, d: int = 2) -> OneToManyProblem:
    """Seeded one-to-many problem: source at the origin, targets uniform
    in [-1, 1]^d, areas positive random normalized to total 1."""
    _check_count(n_targets, "n_targets")
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d}")
    targets = substream(seed, "single", "positions").uniform(-1.0, 1.0, (n_targets, d))
    areas = _positive_masses(substream(seed, "single", "areas"), n_targets)
    return OneToManyProblem(np.zeros(d), targets, areas)


def synthetic_instance(seed: int, n_sources: int, n_targets: int) -> TransportInstance:
    """Seeded planar transport instance with uniform positions and random masses."""
    _check_count(n_sources, "n_sources")
    _check_count(n_targets, "n_targets")
    sources = substream(seed, "multi", "source-positions").uniform(-1.0, 1.0, (n_sources, 2))
    targets = substream(seed, "multi", "target-positions").uniform(-1.0, 1.0, (n_targets, 2))
    p = _positive_masses(substream(seed, "multi", "p"), n_sources)
    q = _positive_masses(substream(seed, "multi", "q"), n_targets)
    return TransportInstance(sources, targets, p, q)


# ---------------------------------------------------------------------------
# spherical geometry

EARTH_RADIUS_KM = 6371.0


def geo_embed(lat, lon) -> np.ndarray:
    """Map latitude/longitude in degrees to 3-D unit-sphere coordinates.

    Scalars give one point of shape (3,); arrays of n values give (n, 3).
    (0, 0) maps to (1, 0, 0) and (90, anything) to (0, 0, 1).
    """
    lat, lon = _floats(lat, "lat"), _floats(lon, "lon")
    if lat.shape != lon.shape:
        raise ParameterError(f"lat and lon must have one shape, got {lat.shape} and {lon.shape}")
    ok = _lat_ok(lat)
    if not ok.all():
        raise ParameterError(f"latitude must lie in [-90, 90], got {lat[~ok].flat[0]}")
    if not np.isfinite(lon).all():
        raise ParameterError("longitude must be finite")
    phi = np.radians(lat)
    lam = np.radians(normalize_lon(lon))
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=-1)


def geo_project(point) -> tuple:
    """Renormalize a 3-D point to the unit sphere and return (lat, lon) degrees."""
    point = _floats(point, "a sphere point")
    if point.shape != (3,):
        raise ParameterError(f"a sphere point needs 3 coordinates, got shape {point.shape}")
    (lon, lat), = _lon_lat_rows(point[None, :]).tolist()
    return lat, lon


def _lon_lat_rows(points: np.ndarray) -> np.ndarray:
    """Renormalize each row of an (n, 3) array to the unit sphere: (n, 2) [lon, lat] degrees.

    The rows are projected ``_BLOCK`` at a time, the norms and the
    division of a block batched; ``np.vecdot`` runs the same BLAS dot per
    row as a 1-D ``np.linalg.norm``, so each row gets the bits of a
    one-point projection.  asin and atan2 are ``math``'s, mapped over the
    columns: numpy's vectorized arcsin and arctan2 differ from libm in
    the last bit on some inputs, which would change output bytes.  The
    clip, the degrees and the longitude wrap are numpy ops with the bits
    of their scalar forms.
    """
    points = np.ascontiguousarray(points, dtype=float)
    rows = np.empty((len(points), 2))
    for a in range(0, len(points), _BLOCK):
        p, norms = _dot_norms(points[a:a + _BLOCK])
        q = p / norms[:, None]
        lat = map(math.asin, np.clip(q[:, 2], -1.0, 1.0).tolist())
        lon = map(math.atan2, q[:, 1].tolist(), q[:, 0].tolist())
        rows[a:a + _BLOCK, 0] = normalize_lon(np.degrees(list(lon)))
        rows[a:a + _BLOCK, 1] = np.degrees(list(lat))
    return rows


def to_sphere(points: np.ndarray) -> np.ndarray:
    """Radially push an (n, 3) array of points onto the unit sphere."""
    pts = _floats(points, "points")
    with np.errstate(over="ignore"):   # an overflowed norm is rejected by _check_norms
        norms = np.linalg.norm(pts, axis=-1, keepdims=True)
    pts, norms = _check_norms(pts, norms)
    return pts / norms


def _dot_norms(points: np.ndarray) -> tuple:
    """Row norms as ``sqrt(vecdot)``, checked by _check_norms: the points and their norms."""
    with np.errstate(over="ignore"):   # an overflowed norm is rejected there
        norms = np.sqrt(np.vecdot(points, points))
    return _check_norms(points, norms)


def _check_norms(points: np.ndarray, norms: np.ndarray) -> tuple:
    """Reject points with no direction: a NaN coordinate, the center, or a
    norm that overflowed.

    A row whose squared norm underflowed to 0, although it has a nonzero
    coordinate, is divided by its largest absolute coordinate and gets
    the norm of that.  Returns the points and their norms, which keep
    their bits in every row whose norm was not 0.
    """
    if np.isnan(norms).any():
        raise ParameterError("non-finite coordinates cannot be projected onto the sphere")
    if not np.all(np.isfinite(norms)):
        raise ParameterError("coordinates too large to project onto the sphere")
    if np.all(norms > 0):
        return points, norms
    tiny = (norms == 0).reshape(points.shape[:-1])
    scale = np.abs(points[tiny]).max(axis=-1, keepdims=True)
    if not np.all(scale > 0):
        raise ParameterError("cannot project the sphere center")
    points = points.copy()
    norms = norms.copy()
    points[tiny] = points[tiny] / scale
    norms[tiny] = np.linalg.norm(points[tiny], axis=-1).reshape(norms[tiny].shape)
    return points, norms


# ---------------------------------------------------------------------------
# the geographic hierarchy


@dataclass(frozen=True)
class HierarchicalNetwork:
    """Three tree levels: pole to countries, country to regions, region to cities.

    ``regional_members[c][r]`` lists indices of rows of the city table,
    so membership of every city in exactly one regional tree is checkable.
    Leaf areas are population shares normalized within each tree.
    """

    countries: tuple
    shares: tuple             # per-country fraction of total population
    global_tree: FlowTree
    country_trees: tuple
    regional_trees: tuple     # per country: tuple of per-region trees
    regional_members: tuple   # per country: tuple of city-index tuples
    params: BotParams
    pole: tuple

    def all_trees(self):
        """Yield (level, label, tree) for every tree, in deterministic order."""
        yield "global", "global", self.global_tree
        for name, tree in zip(self.countries, self.country_trees):
            yield "country", name, tree
        for name, region_trees in zip(self.countries, self.regional_trees):
            for r, tree in enumerate(region_trees):
                yield "regional", f"{name}/{r}", tree

    @property
    def n_trees(self) -> int:
        return 1 + len(self.country_trees) + sum(len(t) for t in self.regional_trees)


def _shares(pops, total, name):
    """``pops / total``; a share that underflows to 0 raises ParameterError,
    with ``name(i)`` naming the first such entry i."""
    shares = pops / total
    if not shares.all():
        raise ParameterError(f"the population share of {name(int(np.argmin(shares)))} "
                             "underflows to 0")
    return shares


def _country_stage(xyz, pops, city_idx, seed_base, country, names):
    """National center, regional centers, and the tree problems of one
    country: its country tree first, then one per region, each labelled.
    ``names`` holds every city's name."""
    pts = xyz[city_idx]
    w = pops[city_idx]
    center = to_sphere(weighted_centroid(pts, w)[None, :])[0]

    k = choose_k(len(city_idx))
    km = weighted_kmeans(WeightedPointSet(pts, w), k,
                         seed=substream_seed(seed_base, "regions", country))
    centers = to_sphere(km.centroids)

    kids, bounds = _child_groups(km.labels)   # region r's cities: kids[bounds[r]:bounds[r + 1]]
    region_pops = _outflow(w, kids, bounds)[:k]
    country_pop = float(w.sum())

    def city(i):   # the city of row i of pts, for a message
        return f"city {names[city_idx[i]]!r} in {country!r}"

    # country tree: national center feeding the regional centers
    region_shares = _shares(region_pops, country_pop,
                            lambda r: f"the region of {city(kids[bounds[r]])}")
    problems = [(f"country/{country}", OneToManyProblem(center, centers, region_shares))]
    members = []
    for r in range(k):
        idx = kids[bounds[r]:bounds[r + 1]]
        members.append(tuple(city_idx[idx].tolist()))
        areas = _shares(w[idx], region_pops[r], lambda j: city(idx[j]))
        problems.append((f"region/{country}/{r}", OneToManyProblem(centers[r], pts[idx], areas)))
    return center, country_pop, problems, tuple(members)


def santa_pipeline(
    cities: CityTable,
    pole: tuple = DEFAULT_POLE,
    params: BotParams | None = None,
) -> HierarchicalNetwork:
    """Build the full three-level delivery hierarchy over a city table.

    Per country: the national center is the population-weighted centroid
    pushed onto the sphere, and regional centers come from weighted
    K-means with K = floor(sqrt(N)) + 1 capped at N.  Then every tree of
    every level is built in one ``build_forest`` call, with branch points
    re-projected onto the sphere.  Leaf areas are population shares
    normalized per tree; the global tree splits unit mass between
    countries in proportion to population.  Inputs are checked before K-means.
    """
    if not len(cities):
        raise ParameterError("at least one city is required")
    if {len(column) for column in vars(cities).values()} != {len(cities)}:
        raise ParameterError("every column of the city table needs one entry per city")
    if params is None:
        params = BotParams()
    if np.shape(pole) != (2,):
        raise ParameterError(f"pole must be one (lat, lon) pair, got {pole!r}")
    pole_xyz = geo_embed(*pole)
    # a loaded table's longitudes are normalized already; normalize_lon keeps their bits
    xyz = geo_embed(cities.lat, cities.lon)
    pops = _floats(cities.population, "population")
    bad = ~(np.isfinite(pops) & (pops > 0))
    if bad.any():
        raise ParameterError(f"population must be positive, got {pops[bad][0]}")
    with np.errstate(over="ignore"):   # a total past the float range is rejected here
        if not np.isfinite(pops.sum()):
            raise ParameterError("the total population must be finite")

    countries = tuple(sorted(set(cities.country)))
    code = {name: c for c, name in enumerate(countries)}
    # country c's cities, in row order: kids[bounds[c]:bounds[c + 1]]
    kids, bounds = _child_groups(np.array([code[name] for name in cities.country]))

    seed_base = params.seed
    centers, country_pops, problems, members = zip(*[
        _country_stage(xyz, pops, kids[bounds[c]:bounds[c + 1]], seed_base, name, cities.name)
        for c, name in enumerate(countries)])
    country_pops = np.array(country_pops)
    shares = _shares(country_pops, country_pops.sum(), lambda c: f"country {countries[c]!r}")

    labelled = [lp for ps in problems for lp in ps]
    labelled.append(("global", OneToManyProblem(pole_xyz, np.array(centers), shares)))
    subs = [replace(params, seed=substream_seed(seed_base, "tree", label)) for label, _ in labelled]
    results = build_forest([p for _, p in labelled], subs, post_point=to_sphere)
    trees = iter(r.tree for r in results)
    country_trees, regional_trees = [], []
    for m in members:
        country_trees.append(next(trees))
        regional_trees.append(tuple(next(trees) for _ in m))

    return HierarchicalNetwork(
        countries=countries,
        shares=tuple(float(s) for s in shares),
        global_tree=results[-1].tree,
        country_trees=tuple(country_trees),
        regional_trees=tuple(regional_trees),
        regional_members=members,
        params=params,
        pole=(float(pole[0]), float(pole[1])),
    )
