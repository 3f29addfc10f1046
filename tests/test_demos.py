"""Smoke runs of the example scripts under demos/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchflow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_set_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_and_writes_its_output(tmp_path, script):
    out = tmp_path / "out"
    src = str(Path(branchflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.is_file() and out.stat().st_size > 0
