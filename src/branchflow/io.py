"""File formats: network JSON, transport-plan JSON, and the cities CSV.

The network JSON layout is the package's bit-exact interchange contract:
an object with "nodes" (id, kind, coords), "edges" (from, to, area),
"alpha" and "cost", fields always in that order, nodes ordered by id and
edges by their "to" endpoint.  Writing the same tree twice yields
byte-identical text.  The writer formats blocks of rows of the node and
edge arrays with one ``%`` per block (the row template repeated once per
row, applied to the block's columns interleaved into one tuple), so no
dict or string per node is built; every number is finite and written as
``repr`` of a Python int or float, the text ``json`` writes.
``network_to_json`` raises ParameterError for an alpha outside [0, 1]
and for a cost that is not finite.

A cities CSV loads into a CityTable, each drop rule run once on whole columns.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress, islice
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
    _sourced_forest,
    bot_cost,
    validate_tree,  # noqa: F401  (bench/test_bench.py reads this binding)
)


# ---------------------------------------------------------------------------
# network JSON


_BLOCK = 2048   # rows, arc points or edges at a time: bounds the Python objects alive at once


def _row_blocks(template: str, columns: list[np.ndarray], sep: str = ","):
    """The rows of ``columns``, formatted with ``template`` and joined by
    ``sep``: one string per block of rows, each after the first led by ``sep``.
    A block is one ``%``: the template repeated once per row, applied to
    the block's columns interleaved into one tuple, row after row."""
    n, width = len(columns[0]), len(columns)
    for lo in range(0, n, _BLOCK):
        rows = min(_BLOCK, n - lo)
        values = [None] * (rows * width)
        for c, column in enumerate(columns):
            values[c::width] = column[lo:lo + rows].tolist()
        yield (sep if lo else "") + sep.join([template] * rows) % tuple(values)


def _network_text(kind, coords, src, dst, area, alpha: float, cost: float) -> str:
    """Network JSON text of nodes (kind, coords) and edges src -> dst carrying area.

    Every number is written by ``%d`` or ``%r``, which give the text
    ``json`` gives for an int and for a finite float; a non-finite cost
    raises ParameterError, since NaN and Infinity are not JSON.
    """
    if not (isinstance(cost, numbers.Real) and math.isfinite(cost)):
        raise ParameterError(f"cost must be a finite number, got {cost!r}")
    alpha, cost = float(alpha), float(cost)
    node = '{"id":%d,"kind":"%s","coords":[' + ",".join(["%r"] * coords.shape[1]) + "]}"
    parts = ['{"nodes":[']
    parts.extend(_row_blocks(node, [np.arange(len(kind)), kind, *coords.T]))
    parts.append('],"edges":[')
    parts.extend(_row_blocks('{"from":%d,"to":%d,"area":%r}', [src, dst, area]))
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


def _parse_network(text: str) -> tuple:
    """A network JSON document's (coords, kind, parent, area, alpha, cost),
    before the structural check; a node with no incoming edge has area 0."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deep
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

    return (np.array(rows, dtype=float), np.array(kind), np.array(parent, dtype=np.int64),
            np.array(area, dtype=float), alpha, cost)


def _read_networks(texts) -> list[NetworkDocument]:
    """The documents of network JSON texts, their trees checked as forests
    (``_sourced_forest``) of about ``8 * _BLOCK`` nodes, in input order, so
    that the check's temporaries do not grow with the input.  When a text
    fails to read or parse, the trees before it are checked first, so the
    first bad text decides the error."""
    docs, parsed = [], []

    def check():
        coords, kind, parent, area, alpha, cost = zip(*parsed)
        parsed.clear()
        trees = _sourced_forest(list(coords), *map(np.concatenate, (kind, parent, area)))
        docs.extend(map(NetworkDocument, trees, alpha, cost))

    try:
        n = 0
        for text in texts:
            parsed.append(_parse_network(text))
            n += len(parsed[-1][1])
            if n >= 8 * _BLOCK:
                check()
                n = 0
    finally:
        if parsed:
            check()
    return docs


def network_from_json(text: str) -> NetworkDocument:
    """Parse network JSON back into a flow tree.

    Malformed documents raise InputError; well-formed documents that do
    not describe a valid single-source tree raise StructuralError, from
    the FlowTree construction that validates them.
    """
    return _read_networks([text])[0]


def plan_to_json(instance: TransportInstance, plan: TransportPlan, cost: float) -> str:
    """Debug view of a transport plan and its ``cost`` in the network JSON edge shape.

    Sources and targets become nodes, every positive coupling entry a
    direct edge.  With several sources this is a forest, not a tree, so
    it is for inspection only and not readable by network_from_json.
    """
    m = instance.n_sources
    kind = np.repeat([KIND_SOURCE, KIND_TARGET], [m, instance.n_targets])
    coords = np.concatenate((instance.sources, instance.targets))
    i, j = np.nonzero(plan.gamma > 0)   # row-major: by source, then by target
    return _network_text(kind, coords, i, m + j, plan.gamma[i, j], 1.0, cost)


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
class CityTable:
    """Cities as columns of tuples, one entry per city in each: ``name``
    and ``country`` hold str, ``lat``, ``lon`` and ``population`` float.
    Tuples keep equality well defined; santa_pipeline checks the rules."""

    name: tuple
    country: tuple
    lat: tuple
    lon: tuple
    population: tuple

    def __len__(self) -> int:
        return len(self.name)


@dataclass(frozen=True)
class CityLoadReport:
    cities: CityTable
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


def _city_columns(path: Path, header: list | None) -> list:
    """The index of each required column, in ``_CITY_ALIASES`` order."""
    if header is None:
        raise InputError(f"{path} is empty")
    lower = [h.strip().lower() for h in header]
    found = [[lower.index(a) for a in aliases if a in lower] for aliases in _CITY_ALIASES.values()]
    missing = [f"{field} (accepted: {', '.join(aliases)})"
               for (field, aliases), cols in zip(_CITY_ALIASES.items(), found) if not cols]
    if missing:
        raise InputError(f"{path} is missing required columns: {'; '.join(missing)}; "
                         f"found header {header!r}")
    return [cols[0] for cols in found]


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# rows per block: a block reuses the memory the one before it freed
_CITY_BLOCK = 4096


def _city_block(block: list, cols: list) -> tuple:
    """The five column lists of the cities a block of rows keeps, and its drops per reason."""
    width = max(cols) + 1
    rows = [cells for cells in block if len(cells) >= width]
    columns = [[cells[c].strip() for cells in rows] for c in cols]
    lat, lon, pop = (np.array([_float_or_nan(t) for t in column], dtype=float)
                     for column in columns[2:])
    rules = {f"missing-{field}": np.array([not text for text in column], dtype=bool)
             for field, column in zip(_CITY_ALIASES, columns)}
    rules["unparsable-number"] = ~(np.isfinite(lat) & np.isfinite(lon) & np.isfinite(pop))
    rules["latitude-out-of-range"] = ~_lat_ok(lat)
    rules["nonpositive-population"] = pop <= 0
    dropped = Counter({"short-row": len(block) - len(rows)})
    keep = np.ones(len(rows), dtype=bool)
    for reason, bad in rules.items():   # a row counts under the first rule it breaks
        dropped[reason] = int(np.count_nonzero(bad & keep))
        keep &= ~bad
    kept = keep.tolist()
    return [list(compress(columns[0], kept)), list(compress(columns[1], kept)),
            lat[keep].tolist(), normalize_lon(lon[keep]).tolist(), pop[keep].tolist()], dropped


def load_cities_csv(path) -> CityLoadReport:
    """Load a cities CSV with columns city, country, lat, lng, population.

    Header names are case-insensitive and common aliases (name, lon,
    longitude, latitude, pop) are accepted; extra columns are ignored.
    Short rows, then rows with missing fields, unparsable or non-finite
    numbers, out-of-range latitudes or nonpositive populations are
    dropped and counted per reason, in that order.  Longitudes are wrapped
    into (-180, 180].  Unreadable files and missing columns raise InputError.
    """
    path = Path(path)
    blocks = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:  # skips an Excel BOM
            reader = csv.reader(handle)
            cols = _city_columns(path, next(reader, None))
            rows = filter(None, reader)   # a blank line is no row
            while not blocks or len(block) == _CITY_BLOCK:   # until a block comes back short
                block = list(islice(rows, _CITY_BLOCK))
                blocks.append(_city_block(block, cols))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None

    columns, counts = zip(*blocks)
    cities = CityTable(*(tuple(chain.from_iterable(parts)) for parts in zip(*columns)))
    dropped = dict(sum(counts, Counter()))   # + drops zero counts
    return CityLoadReport(cities, len(cities) + sum(dropped.values()), dropped)


def sample_cities_path() -> Path:
    """Path of the bundled synthetic 1000-city sample dataset."""
    return Path(str(resources.files("branchflow") / "data" / "cities_sample.csv"))
