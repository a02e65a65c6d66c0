"""Self-test of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all four by default):
  - a traced run prints exactly the per-layer metrics BENCHMARK.json
    lists, with their units, and an untraced run exactly the end-to-end
    metrics;
  - two traced runs with the same seed report identical values for every
    count-type layer metric (unit "count": .calls, .failed, .chunks,
    .closed, .subsets, .relations, .candidates, .compositions,
    .hom_pairs, .maps), so a later change may cite a count as evidence;
  - every run passes its correctness gate.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _run(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} --trace {trace} failed its gate: {result}")
    return result["metrics"]


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def check(workload, spec):
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = _units(_run(workload, 0, 1))
    if got != declared:
        raise AssertionError(f"{workload}: end-to-end metrics {got} != {declared}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    first, second = _run(workload, 1, 1), _run(workload, 1, 1)
    if _units(first) != declared:
        raise AssertionError(f"{workload}: per-layer metrics differ from BENCHMARK.json")
    moved = {name: (first[name]["value"], second[name]["value"])
             for name, unit in declared.items()
             if unit == "count" and first[name]["value"] != second[name]["value"]}
    if moved:
        raise AssertionError(f"{workload}: counts differ between same-seed runs: {moved}")
    counted = sum(1 for unit in declared.values() if unit == "count")
    print(f"{workload}: metric names match; {counted} counts repeat exactly")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv if argv else [w["name"] for w in spec["workloads"]]
    try:
        for workload in names:
            check(workload, spec)
    except AssertionError as exc:
        print(f"selftest: FAIL: {exc}", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
