"""File formats: network JSON, transport-plan JSON, and the cities CSV.

The network JSON layout is the package's bit-exact interchange contract:
an object with "nodes" (id, kind, coords), "edges" (from, to, area),
"alpha" and "cost", fields always in that order, nodes ordered by id and
edges by their "to" endpoint.  Writing the same tree twice yields
byte-identical text.  The writer formats blocks of rows of the node and
edge arrays through ``%``-templates, so no dict per node is built; every
number is finite and written as ``repr`` of a Python int or float, the
text ``json`` writes.  ``network_to_json`` raises ParameterError for an
alpha outside [0, 1] and for a cost that is not finite.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import (
    KINDS,
    KIND_SOURCE,
    KIND_TARGET,
    FlowTree,
    InputError,
    ParameterError,
    StructuralError,
    TransportInstance,
    TransportPlan,
    _check_alpha,
    _child_groups,
    _outflow,
    bot_cost,
    validate_tree,  # noqa: F401  (bench/test_bench.py reads this binding)
)
from .ot import cost_matrix, plan_cost


# ---------------------------------------------------------------------------
# network JSON


# rows formatted per block: bounds the Python ints, floats and strs alive at once
_ROW_BLOCK = 2048


def _append_rows(parts: list[str], template: str, columns: list[np.ndarray]):
    """Append the rows of ``columns``, formatted with ``template`` and comma
    separated, to ``parts``: one string per block of rows."""
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        if lo:
            parts.append(",")
        rows = zip(*(c[lo:lo + _ROW_BLOCK].tolist() for c in columns))
        parts.append(",".join([template % row for row in rows]))


def _network_text(kind, coords, src, dst, area, alpha: float, cost: float) -> str:
    """Network JSON text of nodes (kind, coords) and edges src -> dst carrying area.

    Every number is written by ``%d`` or ``%r``, which give the text
    ``json`` gives for an int and for a finite float; a non-finite cost
    raises ParameterError, since NaN and Infinity are not JSON.
    """
    alpha, cost = float(alpha), float(cost)
    if not math.isfinite(cost):
        raise ParameterError(f"cost must be a finite number, got {cost}")
    node = '{"id":%d,"kind":"%s","coords":[' + ",".join(["%r"] * coords.shape[1]) + "]}"
    parts = ['{"nodes":[']
    _append_rows(parts, node, [np.arange(len(kind)), kind, *coords.T])
    parts.append('],"edges":[')
    _append_rows(parts, '{"from":%d,"to":%d,"area":%r}', [src, dst, area])
    parts.append('],"alpha":%r,"cost":%r}' % (alpha, cost))
    return "".join(parts)


def network_to_json(tree: FlowTree, alpha: float, cost: float | None = None) -> str:
    """Serialize a flow tree to the network JSON contract.

    Raises ParameterError for ``alpha`` outside [0, 1] and for a cost,
    given or computed, that is not finite.
    """
    _check_alpha(alpha)
    if cost is None:
        cost = bot_cost(tree, alpha)
    child = np.flatnonzero(tree.parent >= 0)
    return _network_text(tree.kind, tree.coords, tree.parent[child], child, tree.area[child],
                         alpha, cost)


@dataclass(frozen=True)
class NetworkDocument:
    tree: FlowTree
    alpha: float
    cost: float | None


def _is_number(value) -> bool:
    """A finite JSON number: a float, or an int that fits one (bool is no number)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def _as_number(value, message) -> float:
    if not _is_number(value):
        raise InputError(message)
    return float(value)


def network_from_json(text: str) -> NetworkDocument:
    """Parse network JSON back into a flow tree.

    Malformed documents raise InputError; well-formed documents that do
    not describe a valid single-source tree raise StructuralError, from
    the FlowTree construction that validates them.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("network document must be a JSON object")
    for key in ("nodes", "edges", "alpha", "cost"):
        if key not in doc:
            raise InputError(f"network document is missing the {key!r} field")
    if not (isinstance(doc["nodes"], list) and doc["nodes"]):
        raise InputError("nodes must be a nonempty array")
    if not isinstance(doc["edges"], list):
        raise InputError("edges must be an array")
    alpha = _as_number(doc["alpha"], "alpha must be a finite number")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    cost = None if doc["cost"] is None else _as_number(doc["cost"], "cost must be a finite number")

    # each check formats its message only when it fails
    n = len(doc["nodes"])
    kind = [None] * n
    rows = [None] * n
    dim = None
    for node in doc["nodes"]:
        if not isinstance(node, dict):
            raise InputError("each node must be an object")
        i = node.get("id")
        if not (type(i) is int and 0 <= i < n):
            raise InputError(f"node ids must cover 0..{n - 1}, got {i!r}")
        if kind[i] is not None:
            raise InputError(f"duplicate node id {i}")
        k = node.get("kind")
        if k not in KINDS:
            raise InputError(f"node {i} has unknown kind {k!r}")
        kind[i] = k
        cs = node.get("coords")
        if not (isinstance(cs, list) and len(cs) in (2, 3)):
            raise InputError(f"node {i} coords must be 2-D or 3-D")
        if not all(map(_is_number, cs)):
            raise InputError(f"node {i} has a non-finite coordinate")
        if dim is None:
            dim = len(cs)
        elif len(cs) != dim:
            raise InputError("all nodes must share one dimension")
        rows[i] = cs

    parent = [-1] * n
    area = [0.0] * n
    for edge in doc["edges"]:
        if not isinstance(edge, dict):
            raise InputError("each edge must be an object")
        src, dst = edge.get("from"), edge.get("to")
        if not (type(src) is int and 0 <= src < n):
            raise InputError(f"edge 'from' must be a node id, got {src!r}")
        if not (type(dst) is int and 0 <= dst < n):
            raise InputError(f"edge 'to' must be a node id, got {dst!r}")
        if parent[dst] >= 0:
            raise StructuralError(f"node {dst} has two incoming edges")
        parent[dst] = src
        a = edge.get("area")
        if not _is_number(a):
            raise InputError(f"edge into {dst} needs a finite area")
        area[dst] = a

    kind = np.array(kind)
    parent = np.array(parent, dtype=np.int64)
    area = np.array(area, dtype=float)
    groups = _child_groups(parent)
    for s in np.flatnonzero(kind == KIND_SOURCE):  # in id order, as a source may feed another
        area[s] = _outflow(area, *groups)[s]

    return NetworkDocument(FlowTree(np.array(rows, dtype=float), kind, parent, area), alpha, cost)


def plan_to_json(instance: TransportInstance, plan: TransportPlan) -> str:
    """Debug view of a transport plan in the network JSON edge shape.

    Sources and targets become nodes, every positive coupling entry a
    direct edge.  With several sources this is a forest, not a tree, so
    it is for inspection only and not readable by network_from_json.
    """
    m = instance.n_sources
    kind = np.repeat([KIND_SOURCE, KIND_TARGET], [m, instance.n_targets])
    coords = np.concatenate((instance.sources, instance.targets))
    i, j = np.nonzero(plan.gamma > 0)   # row-major: by source, then by target
    return _network_text(kind, coords, i, m + j, plan.gamma[i, j], 1.0,
                         plan_cost(plan, cost_matrix(instance)))


# ---------------------------------------------------------------------------
# cities CSV

_CITY_ALIASES = {
    "city": ("city", "name"),
    "country": ("country",),
    "lat": ("lat", "latitude"),
    "lng": ("lng", "lon", "longitude"),
    "population": ("population", "pop"),
}


def normalize_lon(lon: float) -> float:
    """Wrap a longitude in degrees into (-180, 180]."""
    return -((180.0 - lon) % 360.0 - 180.0)


def _lat_ok(lat):
    """Whether a latitude, or each one of an array, lies in [-90, 90]; NaN does not."""
    return (-90.0 <= lat) & (lat <= 90.0)


@dataclass(frozen=True)
class GeoCity:
    """A named, populated place; longitude is normalized to (-180, 180]."""

    name: str
    country: str
    lat: float
    lon: float
    population: float

    def __post_init__(self):
        lat, lon, pop = float(self.lat), float(self.lon), float(self.population)
        if not _lat_ok(lat):
            raise ParameterError(f"latitude must lie in [-90, 90], got {self.lat}")
        if not math.isfinite(lon):
            raise ParameterError("longitude must be finite")
        if not (math.isfinite(pop) and pop > 0):
            raise ParameterError(f"population must be positive, got {self.population}")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", normalize_lon(lon))
        object.__setattr__(self, "population", pop)


@dataclass(frozen=True)
class CityLoadReport:
    cities: tuple
    n_rows: int
    dropped: dict

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    def summary(self) -> str:
        parts = [f"{len(self.cities)} cities loaded from {self.n_rows} rows"]
        for reason in sorted(self.dropped):
            parts.append(f"{self.dropped[reason]} dropped ({reason})")
        return ", ".join(parts)


def _parse_city_row(row: dict) -> tuple[GeoCity | None, str | None]:
    raw = {}
    for field in _CITY_ALIASES:
        value = row.get(field)
        if value is None or value.strip() == "":
            return None, f"missing-{field}"
        raw[field] = value.strip()
    try:
        lat = float(raw["lat"])
        lon = float(raw["lng"])
        pop = float(raw["population"])
    except ValueError:
        return None, "unparsable-number"
    if not (math.isfinite(lat) and math.isfinite(lon) and math.isfinite(pop)):
        return None, "unparsable-number"
    if not _lat_ok(lat):
        return None, "latitude-out-of-range"
    if pop <= 0:
        return None, "nonpositive-population"
    return GeoCity(raw["city"], raw["country"], lat, lon, pop), None


def load_cities_csv(path) -> CityLoadReport:
    """Load a cities CSV with columns city, country, lat, lng, population.

    Header names are case-insensitive and common aliases (name, lon,
    longitude, latitude, pop) are accepted; extra columns are ignored.
    Rows with missing fields, unparsable numbers, out-of-range latitudes
    or nonpositive populations are dropped and counted per reason.
    Missing files or missing required columns raise InputError.
    """
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")  # skips an Excel BOM
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path} is empty") from None

        lower = [h.strip().lower() for h in header]
        col_of: dict[str, int] = {}
        missing = []
        for field, aliases in _CITY_ALIASES.items():
            for alias in aliases:
                if alias in lower:
                    col_of[field] = lower.index(alias)
                    break
            else:
                missing.append(f"{field} (accepted: {', '.join(aliases)})")
        if missing:
            raise InputError(
                f"{path} is missing required columns: {'; '.join(missing)}; "
                f"found header {header!r}"
            )

        cities = []
        dropped: dict[str, int] = {}
        n_rows = 0
        width = max(col_of.values()) + 1
        for cells in reader:
            if not cells:
                continue
            n_rows += 1
            if len(cells) < width:
                dropped["short-row"] = dropped.get("short-row", 0) + 1
                continue
            record, reason = _parse_city_row({f: cells[c] for f, c in col_of.items()})
            if record is None:
                dropped[reason] = dropped.get(reason, 0) + 1
            else:
                cities.append(record)
    return CityLoadReport(tuple(cities), n_rows, dropped)


def sample_cities_path() -> Path:
    """Path of the bundled synthetic 1000-city sample dataset."""
    return Path(str(resources.files("branchflow") / "data" / "cities_sample.csv"))
