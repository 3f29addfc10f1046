"""Seeded inputs, the four timed workloads, and the checks on their outputs.

Every input is a pure function of (seed, instance, size), so the same seed
always yields the same inputs.  Each timed run of a workload uses its own
instance (0, 1, 2, ...) drawn from the seed: the solvers' work varies a
lot between random instances of one size, and a median over several
instances is what keeps a run's figures steady across seeds.

The timed region calls only public functions of ``branchflow``, always
through a module attribute (``bf.solve_network``, ``cli.main``) so that
the span recorder in ``spans.py`` sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import branchflow as bf
from branchflow import cli

NET_ALPHA = 0.25
# Sinkhorn regularization; tol and threshold stay at their defaults.  Above
# 1/708 no kernel entry exp(-c / (reg * max c)) can underflow or go subnormal.
NET_REG = 1.5e-3
BRANCH_ALPHA = 0.5


@dataclass(frozen=True)
class Size:
    source_grid: tuple[int, int]    # sources: one per cell of this grid
    target_grid: tuple[int, int]
    n_branch: int
    n_cities: int
    n_countries: int


FULL = Size(source_grid=(10, 5), target_grid=(40, 25), n_branch=4000,
            n_cities=10_000, n_countries=20)
SMOKE = Size(source_grid=(3, 2), target_grid=(10, 6), n_branch=80,
             n_cities=400, n_countries=5)


class CheckFailed(Exception):
    """An output of the system under test is wrong."""


def _check(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# seeded generators


def _rng(seed: int, instance: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, instance, zlib.crc32(label.encode())])


def _masses(rng: np.random.Generator, n: int) -> np.ndarray:
    # 1 - U[0, 1) lies in (0, 1], so every mass is strictly positive
    w = 1.0 - rng.random(n)
    return w / w.sum()


def _jittered_grid(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """One uniform point per cell of a grid over [-1, 1]^2, in random order."""
    nx, ny = shape
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cells = np.column_stack([ix.ravel(), iy.ravel()]).astype(float)
    pts = (cells + rng.random(cells.shape)) / np.array([nx, ny]) * 2.0 - 1.0
    return pts[rng.permutation(len(pts))]


def transport_instance(seed: int, instance: int, size: Size) -> bf.TransportInstance:
    """Planar instance: sources and targets spread over [-1, 1]^2, random masses.

    Jittered-grid points rather than plain uniform ones: both solvers' work
    varies less between instances (the simplex's by about half), which is
    what lets a run of a few instances give a steady median.
    """
    rng = _rng(seed, instance, "transport")
    sources = _jittered_grid(rng, size.source_grid)
    targets = _jittered_grid(rng, size.target_grid)
    p = _masses(rng, len(sources))
    q = _masses(rng, len(targets))
    return bf.TransportInstance(sources, targets, p, q)


def one_to_many_problem(seed: int, instance: int, size: Size) -> bf.OneToManyProblem:
    """One source at the origin, targets uniform in [-1, 1]^2, random areas."""
    rng = _rng(seed, instance, "one-to-many")
    targets = rng.uniform(-1.0, 1.0, (size.n_branch, 2))
    return bf.OneToManyProblem(np.zeros(2), targets, _masses(rng, size.n_branch))


def city_rows(seed: int, instance: int, size: Size) -> list[tuple[str, str, str, str, str]]:
    """Cities clustered by country, with log-normal populations.

    Country sizes follow a fixed Zipf-like profile (every country has at
    least 3 cities), so the work per instance changes with the seed only
    through where the countries lie and how their cities spread.
    """
    rng = _rng(seed, instance, "cities")
    k = size.n_countries
    weights = 1.0 / np.arange(1, k + 1) ** 0.7
    sizes = np.full(k, 3) + np.floor(weights / weights.sum() * (size.n_cities - 3 * k)).astype(int)
    sizes[: size.n_cities - int(sizes.sum())] += 1

    center_lat = rng.uniform(-60.0, 70.0, k)
    center_lon = rng.uniform(-180.0, 180.0, k)
    spread = rng.uniform(1.5, 5.0, k)
    rows = []
    for c in range(k):
        name = f"Country{c:02d}"
        lat = np.clip(center_lat[c] + rng.normal(0.0, spread[c], sizes[c]), -89.0, 89.0)
        lon = center_lon[c] + rng.normal(0.0, spread[c], sizes[c])
        pop = np.maximum(np.round(rng.lognormal(11.0, 1.2, sizes[c])), 100.0)
        for i in range(sizes[c]):
            rows.append((f"{name} {i + 1:05d}", name, f"{lat[i]:.6f}", f"{lon[i]:.6f}", f"{int(pop[i])}"))
    return rows


def write_cities_csv(rows, path: Path) -> bytes:
    text = "city,country,lat,lng,population\n" + "".join(",".join(r) + "\n" for r in rows)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return data


def array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads: prepare() builds the inputs, run() is the timed region,
# check() validates what run() left behind


def _write(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class NetWorkload:
    """solve_network on one planar instance, then one JSON file per tree."""

    def __init__(self, mode: str):
        self.mode = mode

    def prepare(self, seed: int, instance: int, size: Size, work: Path) -> dict:
        self.seed = seed
        self.instance = transport_instance(seed, instance, size)
        inst = self.instance
        return {"transport": array_digest(inst.sources, inst.targets, inst.p, inst.q)}

    def run(self, out: Path):
        params = bf.BotParams(alpha=NET_ALPHA, seed=self.seed)
        cfg = bf.SinkhornConfig(reg=NET_REG) if self.mode == "sinkhorn" else None
        self.result = bf.solve_network(self.instance, params, self.mode, cfg)
        for k, tree in enumerate(self.result.trees):
            _write(out / f"tree_{k:04d}.json", bf.network_to_json(tree, NET_ALPHA))

    def check(self, out: Path) -> list[Path]:
        res = self.result
        m, n = self.instance.n_sources, self.instance.n_targets
        if self.mode == "exact":
            row_err, col_err = res.plan.marginal_error()
            _check(max(row_err, col_err) <= 1e-9,
                   f"exact plan misses its marginals by {max(row_err, col_err)!r}")
            support = int(np.count_nonzero(res.plan.gamma > 0))
            _check(support <= m + n - 1, f"exact plan has {support} > m+n-1 positive entries")
        else:
            _check(res.report.sinkhorn_converged is True,
                   f"Sinkhorn did not converge in {res.report.sinkhorn_iterations} iterations")
        for src, star, cost in res.report.per_source:
            _check(cost <= star, f"tree of source {src} costs {cost!r} above its star {star!r}")
        files = sorted(out.glob("tree_*.json"))
        _check(len(files) == len(res.trees), "one tree file per built tree")
        return files


class BranchWorkload:
    """build_one_to_many on one large problem, then its network JSON."""

    def prepare(self, seed: int, instance: int, size: Size, work: Path) -> dict:
        self.seed = seed
        self.problem = one_to_many_problem(seed, instance, size)
        return {"one_to_many": array_digest(self.problem.targets, self.problem.areas)}

    def run(self, out: Path):
        params = bf.BotParams(alpha=BRANCH_ALPHA, seed=self.seed)
        self.result = bf.build_one_to_many(self.problem, params)
        _write(out / "tree.json", bf.network_to_json(self.result.tree, BRANCH_ALPHA))

    def check(self, out: Path) -> list[Path]:
        trace = np.asarray(self.result.trace)
        _check(bool(np.all(np.diff(trace) < 0)), "builder trace is not strictly decreasing")
        star = bf.star_cost(self.problem, BRANCH_ALPHA)
        _check(float(trace[-1]) <= star, f"final cost {trace[-1]!r} above star cost {star!r}")
        return [out / "tree.json"]


class SantaWorkload:
    """The CLI session: santa on a cities CSV, then render its output."""

    def prepare(self, seed: int, instance: int, size: Size, work: Path) -> dict:
        self.seed = seed
        self.rows = city_rows(seed, instance, size)
        self.csv = work / "cities.csv"
        data = write_cities_csv(self.rows, self.csv)
        return {"cities_csv": hashlib.sha256(data).hexdigest()}

    def run(self, out: Path):
        argv = ["santa", "--cities", str(self.csv), "--out", str(out), "--seed", str(self.seed)]
        code = cli.main(argv)
        _check(code == 0, f"santa exited with {code}")
        code = cli.main(["render", str(out), "--svg", str(out / "render.svg"),
                         "--geojson", str(out / "render.geojson")])
        _check(code == 0, f"render exited with {code}")

    def check(self, out: Path) -> list[Path]:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        _check(manifest["n_cities"] == len(self.rows),
               f"santa loaded {manifest['n_cities']} of {len(self.rows)} cities")
        regional = [out / t["file"] for t in manifest["trees"] if t["level"] == "regional"]
        leaves = []
        for path in regional:
            tree = bf.network_from_json(path.read_text(encoding="utf-8")).tree
            leaves.append(tree.coords[tree.kind == "target"])
        leaves = np.vstack(leaves)
        lat = np.radians([float(r[2]) for r in self.rows])
        lon = np.radians([float(r[3]) for r in self.rows])
        cities = np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
        _check(leaves.shape == cities.shape,
               f"regional trees hold {len(leaves)} leaves for {len(cities)} cities")
        # same multiset of points: sort both, then compare row by row
        a = leaves[np.lexsort(leaves.T[::-1])]
        b = cities[np.lexsort(cities.T[::-1])]
        _check(bool(np.allclose(a, b, rtol=0.0, atol=1e-9)),
               "regional trees do not hold every city exactly once")
        return [out / t["file"] for t in manifest["trees"]]


def make(name: str):
    if name == "net-exact":
        return NetWorkload("exact")
    if name == "net-sinkhorn":
        return NetWorkload("sinkhorn")
    if name == "branch-large":
        return BranchWorkload()
    if name == "santa-cities":
        return SantaWorkload()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# checks shared by every workload


def reparse_cost(files: list[Path]) -> tuple[float, float]:
    """Re-read every tree file; return the total cost and the total star cost.

    Cost is the sum of area**alpha * length over all edges, recomputed
    from the JSON; the star cost wires each target straight to its tree's
    source with the same area.  Every file must parse as a valid tree.
    """
    cost = 0.0
    star = 0.0
    for path in files:
        doc = bf.network_from_json(path.read_text(encoding="utf-8"))
        tree, alpha = doc.tree, doc.alpha
        child = np.flatnonzero(tree.parent >= 0)
        seg = tree.coords[child] - tree.coords[tree.parent[child]]
        cost += float(np.sum(tree.area[child] ** alpha * np.linalg.norm(seg, axis=1)))
        leaf = np.flatnonzero(tree.kind == "target")
        root = tree.coords[tree.kind == "source"][0]
        star += float(np.sum(tree.area[leaf] ** alpha * np.linalg.norm(tree.coords[leaf] - root, axis=1)))
    _check(math.isfinite(cost) and cost > 0.0, f"network cost {cost!r} is not positive")
    return cost, star


def output_digest(out: Path) -> str:
    """sha256 over every output file's relative name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
