"""branchflow benchmark: one workload, one seed, a fixed set of instances.

Usage (from the repository root):

    python3 bench/run.py --workload net-exact --seed 0 --seconds 20 --trace 0

A run measures a fixed number of seeded instances of the workload (the
count scales with --seconds), each in a fresh child process
(``worker.py``).  ``--trace 0`` runs every instance once and instance 0
a second time, and prints the end-to-end metrics.  ``--trace 1`` runs
the first half of the instances untraced and then traced, and prints the
per-layer metrics.  Every run of one instance must write the same bytes.
``--smoke`` shrinks every input to a tiny size for a quick check of the
harness itself.

Human-readable lines go to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (environment, input and output digests,
samples, wall times, self-time shares) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("net-exact", "net-sinkhorn", "branch-large", "santa-cities")

# the layer a workload is built to stress; None: no layer should pass half
PREDICTED_DOMINANT = {
    "net-exact": "ot.solve_exact",
    "net-sinkhorn": "ot.solve_sinkhorn",
    "branch-large": "branching.build",
    "santa-cities": None,
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "network_cost_ratio": "ratio",
}

# name -> (unit, taken from): "median" over all traced runs, "first" from the
# traced run of instance 0 (counts repeat exactly for a given seed), "pooled"
# over every build call of every traced run, "paired" traced minus untraced
# run_s of the same instance, each scaled to the reference host speed
PER_LAYER = {
    "ot.cost_matrix_s": ("s", "median"),
    "ot.solve_exact_s": ("s", "median"),
    "ot.plan_support": ("count", "first"),
    "ot.solve_sinkhorn_s": ("s", "median"),
    "ot.sinkhorn_iters": ("count", "first"),
    "ot.sinkhorn_us_per_iter": ("us", "median"),
    "ot.plan_to_assignments_s": ("s", "median"),
    "branching.build_s": ("s", "median"),
    "branching.build_calls": ("count", "first"),
    "branching.build_ms_p50": ("ms", "pooled"),
    "branching.build_ms_p99": ("ms", "pooled"),
    "branching.candidate_evals": ("count", "first"),
    "branching.evals_per_s": ("1/s", "median"),
    "branching.merges": ("count", "first"),
    "branching.retirements": ("count", "first"),
    "branching.merge_ratio": ("ratio", "first"),
    "core.validate_calls": ("count", "first"),
    "core.validate_s": ("s", "median"),
    "core.validations_per_tree": ("ratio", "first"),
    "core.bot_cost_calls": ("count", "first"),
    "core.bot_cost_s": ("s", "median"),
    "clustering.kmeans_s": ("s", "median"),
    "clustering.kmeans_calls": ("count", "first"),
    "clustering.kmeans_iters": ("count", "first"),
    "io.to_json_s": ("s", "median"),
    "io.json_bytes": ("bytes", "first"),
    "io.from_json_s": ("s", "median"),
    "io.load_cities_s": ("s", "median"),
    "render.geojson_s": ("s", "median"),
    "render.geojson_bytes": ("bytes", "first"),
    "render.svg_s": ("s", "median"),
    "pipeline.self_s": ("s", "median"),
    "cli.self_s": ("s", "median"),
    "trace.overhead_s": ("s", "paired"),
}

# distinct instances one run measures at --seconds 20, the same however fast
# the program is.  The solvers' work differs between random instances by a
# CV of about 0.18 on net-exact and 0.03 on santa-cities, so net-exact
# needs the most of them.  At the reference speed a run takes 10-25 s.
INSTANCES = {"net-exact": 16, "net-sinkhorn": 16, "branch-large": 3, "santa-cities": 2}
NOMINAL_SECONDS = 20.0
# calibrate.reference_loop takes this long on the reference host (2-vCPU
# x86-64, a fast phase); run_s and setup_s are scaled to that speed
PROBE_REF_S = 0.0005
RUN_LIMIT_S = 170.0     # no child may still be running after this
SAMPLE_KEYS = ("instance", "traced", "ok", "run_s", "setup_s", "wall_s", "probe_mean_s",
               "probe_n", "peak_rss_mb", "cost", "trees")


def instance_count(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return 2
    return max(2, round(INSTANCES[workload] * seconds / NOMINAL_SECONDS))


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # santa must run serially and take its seed from the command line
    env.pop("BRANCHFLOW_WORKERS", None)
    env.pop("BRANCHFLOW_SEED", None)
    return env


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "branchflow").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Runner:
    """Spawns one worker per timed run and keeps what each one reports."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = _child_env()
        self.started = time.monotonic()
        self.results: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, instance: int, traced: bool) -> dict:
        n = len(self.results)
        rep_dir = self.work / f"rep{n:03d}"
        result_path = self.work / f"rep{n:03d}.json"
        req = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "instance": instance,
            "smoke": self.args.smoke,
            "trace": traced,
            "work": str(rep_dir),
            "result": str(result_path),
            "spawned": time.monotonic(),
        }
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(req)],
                                  env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
            stderr = proc.stderr
            code = proc.returncode
        except subprocess.TimeoutExpired as exc:
            stderr = f"killed after {timeout:.0f} s\n{exc.stderr or ''}"
            code = None
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            result = {"ok": False, "error": "worker wrote no result"}
        if code != 0:
            result["ok"] = False
            result.setdefault("error", f"worker exited with {code}")
        if not result["ok"]:
            sys.stderr.write(f"run {n} (instance {instance}) failed: {result['error']}\n{stderr[-4000:]}")
        result.update(instance=instance, traced=traced)
        shutil.rmtree(rep_dir, ignore_errors=True)
        self.results.append(result)
        return result

    def plan(self) -> list[tuple[int, bool]]:
        """(instance, traced) of every run, in order.

        Untraced: each instance once, then instance 0 again to compare its
        bytes.  Traced: the first half of the instances, each untraced and
        then traced; the pair must write the same bytes.
        """
        count = instance_count(self.args.workload, self.args.seconds, self.args.smoke)
        if not self.args.trace:
            return [(i, False) for i in range(count)] + [(0, False)]
        return [(i, traced) for i in range((count + 1) // 2) for traced in (False, True)]

    def measure(self):
        longest = 0.0
        for instance, traced in self.plan():
            if self.elapsed() + 1.5 * longest > RUN_LIMIT_S:
                sys.stderr.write(f"stopped after {len(self.results)} runs: no time left\n")
                break
            t0 = self.elapsed()
            self.spawn(instance, traced)
            longest = max(longest, self.elapsed() - t0)
        self.check_digests()

    def check_digests(self):
        """Every run of one instance, traced or not, must write the same bytes."""
        first = {}
        for r in self.results:
            if not r["ok"]:
                continue
            ref = first.setdefault(r["instance"], r["digest"])
            if r["digest"] != ref:
                r["ok"] = False
                r["error"] = f"instance {r['instance']} wrote different bytes in another run"
                sys.stderr.write(r["error"] + "\n")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    pct = int(100 * (1 - 10 / len(values)))
    return pct, _percentile(values, pct)


def _by_instance(runs: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for r in runs:
        out.setdefault(r["instance"], []).append(r)
    return dict(sorted(out.items()))


def _speed(r: dict) -> float:
    """How much faster than the reference the host ran during this run."""
    return PROBE_REF_S / r["probe_mean_s"]


def end_to_end(runs: list[dict]) -> dict:
    """run_s: mean over the instances of each one's median run time;
    setup_s: median over the runs.  Each run's times are scaled by the
    host speed its probe measured, to read as seconds on the reference host."""
    untraced = [r for r in runs if not r["traced"]]
    per_instance = _by_instance(untraced)
    first = [rs[0] for rs in per_instance.values()]
    return {
        "run_s": statistics.fmean(statistics.median(r["run_s"] * _speed(r) for r in rs)
                                  for rs in per_instance.values()),
        "setup_s": statistics.median(r["setup_s"] * _speed(r) for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "network_cost_ratio": sum(r["cost"] for r in first) / sum(r["star_cost"] for r in first),
    }


def wall_stats(runs: list[dict]) -> dict:
    """The unscaled wall times behind run_s and setup_s, for the report."""
    untraced = [r for r in runs if not r["traced"]]
    per_instance = _by_instance(untraced)
    times = [r["wall_s"] for r in untraced]
    return {
        "host_speed_median": statistics.median(_speed(r) for r in untraced),
        "probe_share": sum(r["wall_s"] - r["run_s"] for r in untraced) / sum(times),
        "run_s_mean_of_instances": statistics.fmean(statistics.median(r["wall_s"] for r in rs)
                                                    for rs in per_instance.values()),
        "run_s_median": statistics.median(times),
        "n": len(times),
        "tail": _tail(times),
        "setup_s_median": statistics.median(r["setup_s"] for r in untraced),
        "per_instance": {str(i): [r["wall_s"] for r in rs] for i, rs in per_instance.items()},
    }


def per_layer(runs: list[dict]) -> dict:
    traced = [r for r in runs if r["traced"]]
    untraced = {r["instance"]: r for r in runs if not r["traced"]}
    out = {}
    builds = sorted(ms for r in traced for ms in r["build_ms"])
    for name, (_, how) in PER_LAYER.items():
        if how == "median":
            out[name] = statistics.median(r["layers"][name] for r in traced)
        elif how == "first":
            out[name] = traced[0]["layers"][name]
        elif how == "paired":
            pairs = [(r, untraced.get(r["instance"])) for r in traced]
            out[name] = statistics.median(r["run_s"] * _speed(r) - u["run_s"] * _speed(u)
                                          for r, u in pairs if u)
        elif name.endswith("_p50"):
            out[name] = statistics.median(builds) if builds else 0.0
        else:
            out[name] = _percentile(builds, 99)
    return out


def median_shares(runs: list[dict]) -> dict:
    traced = [r for r in runs if r["traced"]]
    names = sorted({k for r in traced for k in r["shares"]})
    return {k: statistics.median(r["shares"].get(k, 0.0) for r in traced) for k in names}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "branchflow" / "__init__.py").is_file():
        print(f"error: no branchflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(args, work)
    try:
        runner.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = runner.results
    good = [r for r in runs if r["ok"]]
    failed = len(runs) - len(good)
    env = environment()
    env["blas_threads"] = next((r["blas_threads"] for r in good), None)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "attempted": len(runs),
        "failed": failed,
        "errors": [r["error"] for r in runs if not r["ok"]],
        "inputs": {str(r["instance"]): r["inputs"] for r in good},
        "digests": {str(r["instance"]): r["digest"] for r in good},
        "samples": [{k: r.get(k) for k in SAMPLE_KEYS} for r in runs],
    }
    # every planned instance needs a good run of each kind, or the figures mix other inputs
    instances = {i for i, _ in runner.plan()}
    complete = ({r["instance"] for r in good if not r["traced"]} == instances
                and (not args.trace or {r["instance"] for r in good if r["traced"]} == instances))
    if not complete:
        units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
        metrics = {k: 0.0 for k in units}
    elif args.trace:
        metrics = per_layer(good)
        units = {k: v[0] for k, v in PER_LAYER.items()}
        shares = median_shares(good)
        top = max((k for k in shares if k != "bench.run"), key=shares.get)
        report["self_time_shares"] = shares
        report["dominant_layer"] = {"measured": top, "share": shares[top],
                                    "predicted": PREDICTED_DOMINANT[args.workload]}
        spans = [{"instance": r["instance"], **r["spans"]} for r in good if r["traced"]]
    else:
        metrics = end_to_end(good)
        units = END_TO_END
        report["wall"] = wall_stats(good)
    report["metrics"] = metrics

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if complete and args.trace:
        (out_dir / f"spans-{tag}.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs, {failed} failed")
    if complete and not args.trace:
        wall = report["wall"]
        tail_text = (f"p{wall['tail'][0]} {wall['tail'][1]:.4f} s" if wall["tail"]
                     else "no tail percentile (n < 20)")
        print(f"wall run_s: mean over {len(wall['per_instance'])} instances "
              f"{wall['run_s_mean_of_instances']:.4f} s; over all {wall['n']} runs median "
              f"{wall['run_s_median']:.4f} s, {tail_text}; host speed "
              f"{wall['host_speed_median']:.3f} of the reference")
    if complete and args.trace:
        dom = report["dominant_layer"]
        print(f"dominant layer {dom['measured']} ({dom['share']:.1%} of self time), "
              f"predicted {dom['predicted'] or 'none above half'}")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  self {share:7.2%}  {name}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"instance 0 output sha256 {report['digests'].get('0')}")
    print(f"report {out_dir / f'report-{tag}.json'}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
