"""The kernel benchmarks in `benchmarks/` lie outside `testpaths`; running
them once with timing off keeps them in step with the library's API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_benchmarks_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(ROOT / "benchmarks"), "--benchmark-disable", "-q"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
