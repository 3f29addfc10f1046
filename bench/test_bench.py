"""Checks of the benchmark harness itself.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import branchflow as bf  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = json.loads((ROOT / ".bench_out" / f"report-{workload}-s0-t{trace}-smoke.json")
                        .read_text(encoding="utf-8"))
    # instance 0 ran twice, and both runs wrote the same bytes
    assert [s["instance"] for s in report["samples"]].count(0) == 2
    assert report["environment"]["blas_threads"] in (1, None)


def test_instance_counts_do_not_depend_on_the_programs_speed():
    args = run.parse_args(["--workload", "net-exact", "--seed", "0", "--seconds", "20"])
    plan = run.Runner(args, ROOT).plan()
    assert plan == [(i, False) for i in range(run.INSTANCES["net-exact"])] + [(0, False)]
    args = run.parse_args(["--workload", "santa-cities", "--seed", "0", "--seconds", "20",
                           "--trace", "1"])
    assert run.Runner(args, ROOT).plan() == [(0, False), (0, True)]


def test_probe_samples_during_a_run_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = calibrate.Probe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + 0.3:
        sum(range(1000))
    t1 = time.perf_counter()
    probe.stop()
    assert len(probe.times) >= 5
    assert all(t > 0 for t in probe.times)
    assert probe.time_between(t0, t1) == pytest.approx(sum(probe.times))
    assert probe.time_between(t1, t1 + 1.0) == 0.0
    assert signal.getsignal(signal.SIGALRM) is before


def test_recorder_takes_excluded_time_out_of_every_span_that_holds_it():
    rec = Recorder()
    rec.names = ["bench.run", "io.to_json"]
    rec.start, rec.end = [0.0, 1.0], [10.0, 3.0]
    rec.parent = [-1, 0]
    rec.exclude([2.0, 5.0], [0.5, 1.0])
    assert rec.durations("bench.run") == [8.5]
    assert rec.durations("io.to_json") == [1.5]
    assert rec.self_times() == {"bench.run": 7.0, "io.to_json": 1.5}


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "net-exact", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_are_a_function_of_seed_and_instance():
    size = workloads.SMOKE
    a = workloads.transport_instance(3, 1, size)
    b = workloads.transport_instance(3, 1, size)
    c = workloads.transport_instance(4, 1, size)
    assert np.array_equal(a.targets, b.targets) and np.array_equal(a.q, b.q)
    assert not np.array_equal(a.targets, c.targets)
    assert workloads.city_rows(3, 0, size) == workloads.city_rows(3, 0, size)
    assert len(workloads.city_rows(3, 0, size)) == size.n_cities


def test_recorder_wraps_every_binding_and_returns_results_unchanged():
    problem = workloads.one_to_many_problem(0, 0, workloads.SMOKE)
    tree = bf.build_one_to_many(problem, bf.BotParams()).tree
    expected = bf.network_to_json(tree, 0.5)
    original = bf.core.validate_tree

    rec = Recorder()
    rec.install()
    try:
        # the same function under three module bindings is wrapped under each
        assert bf.core.validate_tree is not original
        assert bf.io.validate_tree is bf.core.validate_tree
        assert bf.validate_tree is bf.core.validate_tree
        with rec.span("bench.run"):
            text = bf.network_to_json(tree, 0.5)
    finally:
        rec.uninstall()

    assert text == expected
    assert bf.core.validate_tree is original and bf.io.validate_tree is original
    # network_to_json validates through io's binding, bot_cost through core's
    assert rec.names == ["bench.run", "io.to_json", "core.validate", "core.bot_cost",
                         "core.validate"]
    assert rec.parent == [-1, 0, 1, 1, 3]
    own = rec.self_times()
    total = rec.end[0] - rec.start[0]
    assert sum(own.values()) == pytest.approx(total)
    assert rec.layer_metrics()["core.validate_calls"] == 2
