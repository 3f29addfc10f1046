"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root):

    python3 bench/sweep.py --workloads all --seeds 0-9 --seconds 20 --out sweep.json

For every workload and end-to-end metric it reports the median over the
seeds (a seed may repeat, to see the noise without the change of inputs), the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  With ``--trace`` it also makes one traced run per
workload (first seed) and records the measured dominant layer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line and the full report of one benchmark run."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    report = ROOT / ".bench_out" / f"report-{workload}-s{seed}-t{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(report.read_text(encoding="utf-8")))


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    seeds = _seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for wl in workloads:
        runs = []
        digests = {}
        speeds = []
        for seed in seeds:
            res, report = run_once(wl, seed, seconds, 0)
            runs.append(res)
            digests[str(seed)] = report["digests"].get("0")
            speeds.append(report["wall"]["host_speed_median"])
            summary["environment"] = report["environment"]
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"{res['attempted']} runs {res['failed']} failed {vals} "
                  f"host_speed={speeds[-1]:.3f}", flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "instance0_output_sha256": digests,
            "host_speed": speeds,
            "metrics": {},
        }
        for name in bounds:
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            entry["metrics"][name] = s
            print(f"  {wl} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.4f})", flush=True)
        if args.trace:
            res, report = run_once(wl, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            entry["dominant_layer"] = report["dominant_layer"]
            entry["self_time_shares"] = report["self_time_shares"]
            print(f"  {wl} dominant layer {report['dominant_layer']}", flush=True)
        summary["workloads"][wl] = entry

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
