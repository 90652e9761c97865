"""Smoke test of the benchmark harness in perfbench/.

The harness hooks the package's functions by the names their callers look
up; a renamed or removed function shows up as an `unmeasured:` line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# small_nokd is the one workload whose fedseq and fedavg rounds reach the tracer
@pytest.mark.parametrize("workload", ["small_sfedkd", "small_nokd"])
def test_traced_harness_run_measures_every_hook(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["failed"] == 0
    assert not [line for line in lines if line.strip().startswith("unmeasured:")]
