"""One timed run of one workload, in a fresh process.

Usage: python3 bench/worker.py '<request JSON>'

The request names the workload, seed, instance, size, whether to trace,
a work directory, the parent's monotonic clock at spawn and the path to
write the result JSON to.  A fresh process per run means its peak
resident memory belongs to that run alone, and each run pays its own
set-up: interpreter start, imports and input generation.  There is no
separate warm-up call: every process a user starts pays the first-call
costs too, so they stay inside the timed run.

Every run samples the host's speed while it runs (``calibrate.Probe``).  It reports its wall time, its wall time less the
probe's share (``run_s``) and the probe's mean loop time, which the
parent uses to scale ``run_s`` and ``setup_s`` to the reference speed.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_branchflow():
    sys.path.insert(0, str(ROOT / "src"))
    import branchflow

    src = (ROOT / "src" / "branchflow").resolve()
    if Path(branchflow.__file__).resolve().parent != src:
        raise ImportError(f"imported branchflow from {branchflow.__file__}, not {src}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=False)
    return path


def run(req: dict) -> dict:
    _import_branchflow()
    import workloads

    work = _fresh_dir(Path(req["work"]))
    size = workloads.SMOKE if req["smoke"] else workloads.FULL

    wl = workloads.make(req["workload"])
    inputs = wl.prepare(req["seed"], req["instance"], size, _fresh_dir(work / "in"))
    out = _fresh_dir(work / "out")
    setup_s = time.monotonic() - req["spawned"]

    # the probe samples the host's speed as the run goes; its time comes
    # out of run_s, and out of every span it fell in
    import calibrate

    recorder = None
    timed = contextlib.nullcontext()
    if req["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        timed = recorder.span(spans.ROOT)
    probe = calibrate.Probe()
    probe.start()
    try:
        t0 = time.perf_counter()
        with timed:
            wl.run(out)
        t1 = time.perf_counter()
    finally:
        probe.stop()
    wall_s = t1 - t0
    in_run = probe.time_between(t0, t1)
    if recorder is not None:
        recorder.uninstall()
        recorder.exclude(probe.starts, probe.times)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    files = wl.check(out)
    cost, star = workloads.reparse_cost(files)
    result = {
        "ok": True,
        # wall time of the run less the time the probe took in it
        "run_s": wall_s - in_run,
        "wall_s": wall_s,
        "probe_mean_s": sum(probe.times) / len(probe.times),
        "probe_n": len(probe.times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cost": cost,
        "star_cost": star,
        "trees": len(files),
        "digest": workloads.output_digest(out),
        "inputs": inputs,
        "blas_threads": blas_threads(),
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        result["shares"] = recorder.shares()
        result["build_ms"] = [1e3 * d for d in recorder.durations("branching.build")]
        result["spans"] = recorder.dump()
    return result


def main() -> int:
    req = json.loads(sys.argv[1])
    try:
        result = run(req)
        code = 0
    except Exception as exc:  # the run fails; the parent counts it and goes on
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        code = 1
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
