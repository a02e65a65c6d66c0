"""The benchmark harness runs the library end to end.

``bench/`` reads ``InducedSpace.origin``, ``SelfIso.double`` and the
library's function names for its spans; a one-second traced run of each
workload that uses them fails here when any of those goes missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["category", "representations"])
def test_bench_workload_runs_clean(workload, tmp_path):
    # the bytecode of the harness itself goes to the temp dir, not bench/
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
    assert result["correct"], meta["meta"]["failures"]
    assert result["failed"] == 0
