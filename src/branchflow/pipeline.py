"""End-to-end flows: plan-then-branch networks, paired artery/vein
trees, and the three-level geographic delivery hierarchy.

Geographic work happens in 3-D unit-sphere coordinates: chordal
(straight-line) geometry keeps the closed-form branch points valid, and
every computed point is radially pushed back onto the sphere, which
distorts lengths only at second order in the arc size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .branching import OneToManyProblem, build_forest, star_cost
from .clustering import WeightedPointSet, choose_k, weighted_centroid, weighted_kmeans
from .core import (
    BotParams,
    FlowTree,
    ParameterError,
    TransportInstance,
    TransportPlan,
    bot_cost,
)
from .io import GeoCity, normalize_lon
from .ot import (
    SinkhornConfig,
    cost_matrix,
    plan_cost,
    plan_to_assignments,
    solve_exact,
    solve_sinkhorn,
)
from .seeding import random_direction, substream, substream_seed

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
    source_index: tuple
    plan: TransportPlan
    report: NetworkReport


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
    get no tree.
    """
    if ot_mode not in OT_MODES:
        raise ParameterError(f"ot_mode must be one of {OT_MODES}, got {ot_mode!r}")
    if threshold is None:
        threshold = DEFAULT_THRESHOLD[ot_mode]

    c = cost_matrix(instance)
    sink_iters = None
    sink_conv = None
    if ot_mode == "exact":
        plan = solve_exact(instance, c)
    else:
        res = solve_sinkhorn(instance, c, cfg)
        plan = res.plan
        sink_iters = res.n_iter
        sink_conv = res.converged

    assignments = plan_to_assignments(plan, threshold)
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
    trees = tuple(r.tree for r in build_forest(problems, subs))
    per_source = []
    total_star = 0.0
    total_bot = 0.0
    for i, problem, tree in zip(source_index, problems, trees):
        star = star_cost(problem, params.alpha)
        bot = bot_cost(tree, params.alpha)
        per_source.append((i, star, bot))
        total_star += star
        total_bot += bot

    report = NetworkReport(
        ot_mode=ot_mode,
        ot_cost=plan_cost(plan, c),
        star_cost=total_star,
        bot_cost=total_bot,
        threshold=threshold,
        per_source=tuple(per_source),
        sinkhorn_iterations=sink_iters,
        sinkhorn_converged=sink_conv,
    )
    return NetworkResult(trees, tuple(source_index), plan, report)


def dual_network(problem: OneToManyProblem, params: BotParams) -> tuple:
    """Build two interleaved trees over the same targets, e.g. arteries and veins.

    Each build gets its own frozen displacement vector drawn from a
    distinct sub-seed, so the two trees share every target leaf but their
    branch nodes come apart, more so on thin edges than on thick ones.
    With ``shift_norm = 0`` both builds coincide exactly.
    """
    eps = []
    for role in ("artery", "vein"):
        if params.shift_norm > 0:
            rng = substream(params.seed, "dual", role)
            eps.append(random_direction(rng, problem.dim) * params.shift_norm)
        else:
            eps.append(None)
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
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d}")
    targets = substream(seed, "single", "positions").uniform(-1.0, 1.0, (n_targets, d))
    areas = _positive_masses(substream(seed, "single", "areas"), n_targets)
    return OneToManyProblem(np.zeros(d), targets, areas)


def synthetic_instance(seed: int, n_sources: int, n_targets: int) -> TransportInstance:
    """Seeded planar transport instance with uniform positions and random masses."""
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
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    ok = np.isfinite(lat) & (-90.0 <= lat) & (lat <= 90.0)
    if not ok.all():
        raise ParameterError(f"latitude must lie in [-90, 90], got {lat[~ok].flat[0]}")
    if not np.isfinite(lon).all():
        raise ParameterError("longitude must be finite")
    phi = np.radians(lat)
    lam = np.radians(normalize_lon(lon))
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=-1)


def geo_project(point) -> tuple:
    """Renormalize a 3-D point to the unit sphere and return (lat, lon) degrees."""
    (lon, lat), = _lon_lat_rows(np.asarray(point, dtype=float).reshape(1, 3))
    return lat, lon


def _lon_lat_rows(points: np.ndarray) -> list:
    """Renormalize each row of an (n, 3) array to the unit sphere: [lon, lat] degrees.

    The norms and the division are batched; ``np.vecdot`` runs the same
    BLAS dot per row as a 1-D ``np.linalg.norm``, so each row gets the
    bits of a one-point projection.  asin and atan2 stay on libm through
    ``math``: numpy's vectorized arcsin and arctan2 differ from it in the
    last bit on some inputs, which would change output bytes.
    """
    p = np.ascontiguousarray(points, dtype=float)
    with np.errstate(over="ignore"):   # an overflowed norm is rejected below
        norms = np.sqrt(np.vecdot(p, p))
    p, norms = _check_norms(p, norms)
    rows = []
    for x, y, z in (p / norms[:, None]).tolist():
        lat = math.degrees(math.asin(min(1.0, max(-1.0, z))))
        rows.append([normalize_lon(math.degrees(math.atan2(y, x))), lat])
    return rows


def to_sphere(points: np.ndarray) -> np.ndarray:
    """Radially push an (n, 3) array of points onto the unit sphere."""
    pts = np.asarray(points, dtype=float)
    norms = np.linalg.norm(pts, axis=-1, keepdims=True)
    pts, norms = _check_norms(pts, norms)
    return pts / norms


def _check_norms(points: np.ndarray, norms: np.ndarray) -> tuple:
    """Reject points with no direction: the center, or a norm that overflowed.

    A row whose squared norm underflowed to 0, although it has a nonzero
    coordinate, is divided by its largest absolute coordinate and gets
    the norm of that.  Returns the points and their norms, which keep
    their bits in every row whose norm was not 0.
    """
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

    ``regional_members[c][r]`` lists indices into the input city list, so
    membership of every city in exactly one regional tree is checkable.
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


def _country_stage(xyz, pops, city_idx, seed_base, country):
    """National center, regional centers, and the tree problems of one
    country: its country tree first, then one per region, each labelled."""
    pts = xyz[city_idx]
    w = pops[city_idx]
    center = to_sphere(weighted_centroid(pts, w)[None, :])[0]

    k = choose_k(len(city_idx))
    km = weighted_kmeans(
        WeightedPointSet(pts, w), k, seed=substream_seed(seed_base, "regions", country)
    )
    centers = to_sphere(km.centroids)

    region_pops = np.array([w[km.labels == r].sum() for r in range(k)])
    country_pop = float(w.sum())

    # country tree: national center feeding the regional centers
    region_shares = region_pops / country_pop
    problems = [(f"country/{country}", OneToManyProblem(center, centers, region_shares))]
    members = []
    for r in range(k):
        mask = km.labels == r
        members.append(tuple(int(city_idx[t]) for t in np.flatnonzero(mask)))
        areas = w[mask] / region_pops[r]
        problems.append((f"region/{country}/{r}", OneToManyProblem(centers[r], pts[mask], areas)))
    return center, country_pop, problems, tuple(members)


def santa_pipeline(
    cities,
    pole: tuple = DEFAULT_POLE,
    params: BotParams | None = None,
    *,
    workers: int | None = None,
) -> HierarchicalNetwork:
    """Build the full three-level delivery hierarchy over a city list.

    Per country (processed independently, optionally in parallel): the
    national center is the population-weighted centroid pushed onto the
    sphere, and regional centers come from weighted K-means with
    K = floor(sqrt(N)) + 1 capped at N.  Then every tree of every level
    is built in one ``build_forest`` call, with branch points
    re-projected onto the sphere.  Leaf areas are population shares
    normalized per tree; the global tree splits unit mass between
    countries in proportion to population.
    """
    cities = list(cities)
    if not cities:
        raise ParameterError("at least one city is required")
    if params is None:
        params = BotParams()

    pops = np.array([c.population for c in cities])
    # GeoCity longitudes are normalized already; normalize_lon keeps their bits
    xyz = geo_embed([c.lat for c in cities], [c.lon for c in cities])

    by_country: dict[str, list[int]] = {}
    for i, city in enumerate(cities):
        by_country.setdefault(city.country, []).append(i)
    countries = tuple(sorted(by_country))

    seed_base = params.seed

    def stage(name):
        return _country_stage(xyz, pops, np.array(by_country[name]), seed_base, name)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            staged = list(pool.map(stage, countries))
    else:
        staged = [stage(name) for name in countries]

    centers = np.array([s[0] for s in staged])
    country_pops = np.array([s[1] for s in staged])
    shares = country_pops / country_pops.sum()

    pole_point = geo_embed(*pole)
    labelled = [lp for s in staged for lp in s[2]]
    labelled.append(("global", OneToManyProblem(pole_point, centers, shares)))
    subs = [replace(params, seed=substream_seed(seed_base, "tree", label)) for label, _ in labelled]
    results = build_forest([p for _, p in labelled], subs, post_point=to_sphere)
    trees = iter(r.tree for r in results)
    country_trees = []
    regional_trees = []
    for s in staged:
        country_trees.append(next(trees))
        regional_trees.append(tuple(next(trees) for _ in s[3]))

    return HierarchicalNetwork(
        countries=countries,
        shares=tuple(float(s) for s in shares),
        global_tree=results[-1].tree,
        country_trees=tuple(country_trees),
        regional_trees=tuple(regional_trees),
        regional_members=tuple(s[3] for s in staged),
        params=params,
        pole=(float(pole[0]), float(pole[1])),
    )
