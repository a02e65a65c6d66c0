"""Seed sweep: the runs behind bench/baseline.json.

    python3 bench/sweep.py [--runs 10] [--seconds 20] [--out FILE] [WORKLOAD ...]

For each workload (all of BENCHMARK.json's by default), one run after
another: --runs untraced runs with the seeds 1001, 1002, ...; one
untraced run with the alternate seed 2001, which shows that the fixed
size mix keeps a held-out seed's figures comparable; and one traced run
for the first seed and one for the alternate seed.  Prints, per
end-to-end metric, the median of the untraced runs and their spread
(the distance between the quartiles over the median), and writes every
figure to FILE (default bench/baseline.json).  A run that exits with
another code than 0, as one with a failed item does, stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1001
ALTERNATE_SEED = 2001


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} --trace {trace} exited with "
                           f"{proc.returncode}")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return meta, result, values


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def sweep(workload, runs, seconds, spec):
    seeds = list(range(FIRST_SEED, FIRST_SEED + runs))
    metas, values = [], []
    attempted = failed = 0
    for seed in seeds:
        meta, result, v = _run(workload, seed, seconds, 0)
        metas.append(meta)
        values.append(v)
        attempted += result["attempted"]
        failed += result["failed"]
    out = {"seeds": seeds, "attempted": attempted, "failed": failed,
           "rounds": [m["rounds"] for m in metas]}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        out[name] = {"unit": metric["unit"], "bound": metric["bound"],
                     **_spread([v[name] for v in values])}
        print(f"{workload} {name}: median {out[name]['median']:.6g} {metric['unit']}, "
              f"spread {out[name]['iqr_over_median']:.3f} (bound {metric['bound']})")
    _, _, v = _run(workload, ALTERNATE_SEED, seconds, 0)
    out["alternate_seed"] = {"seed": ALTERNATE_SEED, **v}
    layers = {}
    for seed in (FIRST_SEED, ALTERNATE_SEED):
        meta, _, v = _run(workload, seed, seconds, 1)
        # nonzero metrics only; a layer the workload never calls reads 0
        layers[str(seed)] = {k: x for k, x in v.items() if x} | {"items": meta["samples"]}
    return out, layers, metas[0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", type=Path, default=ROOT / "bench" / "baseline.json")
    p.add_argument("workloads", nargs="*")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"about": __doc__.splitlines()[0], "runs": args.runs, "seconds": seconds,
              "end_to_end": {}, "per_layer": {}}
    for workload in names:
        e2e, layers, meta = sweep(workload, args.runs, seconds, spec)
        report["end_to_end"][workload] = e2e
        report["per_layer"][workload] = layers
        for key in ("commit", "python", "nproc", "config"):
            report[key] = meta[key]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
