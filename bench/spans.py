"""Outside-in span recorder for the traced run.

Wraps the public layer functions of ``branchflow`` at every module
binding that holds them.  The package's modules import each other with
``from .x import y``, so one function is reachable under several module
attributes (``branchflow.core.validate_tree``, ``branchflow.io.validate_tree``,
``branchflow.validate_tree``, ...); patching only the defining module would
miss the calls that go through the other names.

Each call records a span (name, start, end, parent) in memory; results
are returned unchanged.  Counts are read from the kept results after the
run, so their cost stays outside every span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# span name -> (defining module, function name)
LAYERS = {
    "ot.cost_matrix": ("branchflow.ot", "cost_matrix"),
    "ot.solve_exact": ("branchflow.ot", "solve_exact"),
    "ot.solve_sinkhorn": ("branchflow.ot", "solve_sinkhorn"),
    "ot.plan_to_assignments": ("branchflow.ot", "plan_to_assignments"),
    "ot.plan_cost": ("branchflow.ot", "plan_cost"),
    "branching.build": ("branchflow.branching", "build_one_to_many"),
    "branching.star_cost": ("branchflow.branching", "star_cost"),
    "core.validate": ("branchflow.core", "validate_tree"),
    "core.bot_cost": ("branchflow.core", "bot_cost"),
    "clustering.kmeans": ("branchflow.clustering", "weighted_kmeans"),
    "io.to_json": ("branchflow.io", "network_to_json"),
    "io.from_json": ("branchflow.io", "network_from_json"),
    "io.load_cities": ("branchflow.io", "load_cities_csv"),
    "render.svg": ("branchflow.render", "render_svg"),
    "render.geojson": ("branchflow.render", "render_geojson"),
    "pipeline.solve_network": ("branchflow.pipeline", "solve_network"),
    "pipeline.santa": ("branchflow.pipeline", "santa_pipeline"),
    "cli.main": ("branchflow.cli", "main"),
}

ROOT = "bench.run"


class Recorder:
    """Keeps spans as parallel lists; ``install``/``uninstall`` patch bindings."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.results: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._excluded: np.ndarray | None = None

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.results.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, result):
        self.end[idx] = time.perf_counter()
        self.results[idx] = result
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, result)

        return wrapper

    def install(self):
        originals = {}
        for name, (module, attr) in LAYERS.items():
            fn = getattr(sys.modules[module], attr)
            originals[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "branchflow" or modname.startswith("branchflow.")):
                continue
            for attr, value in list(vars(module).items()):
                # keyed by id: module attributes need not be hashable
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    # -----------------------------------------------------------------------
    # derived figures

    def exclude(self, starts: list[float], lengths: list[float]):
        """Take intervals that belong to the benchmark (the speed probe) out of
        every span that holds them."""
        s = np.asarray(self.start)
        e = np.asarray(self.end)
        self._excluded = np.zeros(len(s))
        for t, d in zip(starts, lengths):
            self._excluded[(s <= t) & (t < e)] += d

    def _durations(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        if self._excluded is not None:
            dur = [d - x for d, x in zip(dur, self._excluded.tolist())]
        return dur

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        dur = self._durations()
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        out: dict[str, float] = {}
        for name, t in zip(self.names, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def durations(self, name: str) -> list[float]:
        return [d for n, d in zip(self.names, self._durations()) if n == name]

    def results_of(self, name: str) -> list:
        return [r for n, r in zip(self.names, self.results) if n == name]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of one traced run, keyed by metric name.

        Times are self times: a span's duration minus its child spans,
        so ``core.validate_s`` is not counted again in ``core.bot_cost_s``.
        """
        own = self.self_times()
        builds = self.results_of("branching.build")
        iterations = sum(len(b.events) for b in builds)
        merges = sum(1 for b in builds for e in b.events if e.partner is not None)
        evals = sum(b.candidate_evals for b in builds)
        plans = [r.gamma for r in self.results_of("ot.solve_exact")]
        plans += [r.plan.gamma for r in self.results_of("ot.solve_sinkhorn")]
        sink_iters = sum(r.n_iter for r in self.results_of("ot.solve_sinkhorn"))
        validates = len(self.durations("core.validate"))

        def t(name):
            return own.get(name, 0.0)

        return {
            "ot.cost_matrix_s": t("ot.cost_matrix"),
            "ot.solve_exact_s": t("ot.solve_exact"),
            "ot.plan_support": sum(int(np.count_nonzero(g > 0)) for g in plans),
            "ot.solve_sinkhorn_s": t("ot.solve_sinkhorn"),
            "ot.sinkhorn_iters": sink_iters,
            "ot.sinkhorn_us_per_iter": 1e6 * t("ot.solve_sinkhorn") / sink_iters if sink_iters else 0.0,
            "ot.plan_to_assignments_s": t("ot.plan_to_assignments"),
            "branching.build_s": t("branching.build"),
            "branching.build_calls": len(builds),
            "branching.candidate_evals": evals,
            "branching.evals_per_s": evals / t("branching.build") if builds else 0.0,
            "branching.merges": merges,
            "branching.retirements": iterations - merges,
            "branching.merge_ratio": merges / iterations if iterations else 0.0,
            "core.validate_calls": validates,
            "core.validate_s": t("core.validate"),
            "core.validations_per_tree": validates / len(builds) if builds else 0.0,
            "core.bot_cost_calls": len(self.durations("core.bot_cost")),
            "core.bot_cost_s": t("core.bot_cost"),
            "clustering.kmeans_s": t("clustering.kmeans"),
            "clustering.kmeans_calls": len(self.durations("clustering.kmeans")),
            "clustering.kmeans_iters": sum(r.n_iter for r in self.results_of("clustering.kmeans")),
            "io.to_json_s": t("io.to_json"),
            "io.json_bytes": sum(len(s) for s in self.results_of("io.to_json")),
            "io.from_json_s": t("io.from_json"),
            "io.load_cities_s": t("io.load_cities"),
            "render.geojson_s": t("render.geojson"),
            "render.geojson_bytes": sum(len(s) for s in self.results_of("render.geojson")),
            "render.svg_s": t("render.svg"),
            "pipeline.self_s": t("pipeline.solve_network") + t("pipeline.santa"),
            "cli.self_s": t("cli.main"),
        }

    def shares(self) -> dict[str, float]:
        """Each span name's self time as a share of the root span's duration."""
        total = sum(self.durations(ROOT))
        return {name: t / total for name, t in sorted(self.self_times().items())}

    def dump(self) -> dict:
        return {
            "names": self.names,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }
