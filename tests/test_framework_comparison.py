"""The framework-comparison sweep runs end to end and prints one row of
Friedman mean ranks per scenario."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_prints_mean_ranks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_framework_comparison.py"),
         "--instances", "2", "--budget-evals", "40", "--base-runs", "1", "--robots", "2"],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["scenario", "Fr1", "Fr2", "Fr3"]
    assert [row.split()[:2] for row in rows] == [["m=2", "TH1"], ["m=2", "TH2"]]
    for row in rows:
        ranks = [float(cell) for cell in row.split()[2:]]
        assert len(ranks) == 3
        assert sum(ranks) == pytest.approx(6.0, abs=0.015)
