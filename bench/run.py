"""roughdom benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cf-dense, cf-wide, category, representations (see
bench/README.md).  Every measurement runs in a fresh interpreter started
by this launcher, one process at a time; the launcher itself never
imports roughdom.

--trace 0 prints the end-to-end metrics.  Set-up is measured in
SETUP_RUNS fresh processes (each from spawn to the end of set-up) and
reported as their median; the last of them goes on to the timed phase,
which runs as many whole rounds of at least 100 items as fill --seconds
seconds most nearly.  Every end-to-end time
is scaled to a reference host speed (worker.host_probe); the metadata
line also holds the times as measured.

--trace 1 prints the per-layer metrics of one round (fixed work) run
with every library call spanned, and the tracing overhead against a
relabelled copy of the round run untraced in the same process, item by
item in alternating order.

The second-to-last line of standard output is a JSON object of run
metadata; the last line is the result.  Exit code 0 means every item
passed its gate, 1 that some item failed it, 2 that the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cf-dense", "cf-wide", "category", "representations")
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, every worker included
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "item_p90_ms": "ms", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _worker(args, mode, seconds, deadline):
    """Run one worker to completion; return (exit code, report)."""
    # the hash seed follows the input seed, so set iteration orders repeat;
    # no bytecode cache, so every set-up compiles the same sources
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("out of time before a worker could start")
    try:
        # --t0 is taken last, so set-up time runs from the spawn itself
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker overran the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return proc.returncode, json.loads(lines[-1])


def _commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _measure(args, deadline):
    reps = [_worker(args, "setup", 0, deadline)[1] for _ in range(SETUP_RUNS - 1)]
    code, rep = _worker(args, "run", args.seconds, deadline)
    reps.append(rep)
    setups = [r["setup_s"] for r in reps]
    rep["setup_s"] = statistics.median(setups)
    metrics = {k: {"value": rep[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    meta = {"setup_runs_s": setups, "setup_runs_measured_s": [r["setup_raw_s"] for r in reps],
            "measured": rep["measured"], "samples": rep["attempted"]}
    return code, rep, metrics, meta


def _trace(args, deadline):
    code, rep = _worker(args, "trace", 0, deadline)
    metrics = dict(rep.pop("layers"))
    metrics["trace.overhead_ratio"] = {
        "value": rep["timed_s"] / rep["untraced_timed_s"] - 1, "unit": "ratio"}
    meta = {"untraced_timed_s": rep["untraced_timed_s"], "traced_timed_s": rep["timed_s"],
            "samples": rep["attempted"] // 2}
    return code, rep, metrics, meta


def main(argv=None):
    args = _parse(argv)
    # SIGTERM unwinds through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        code, rep, metrics, meta = (_trace if args.trace else _measure)(args, deadline)
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        python=rep["python"], implementation=platform.python_implementation(),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        commit=_commit(), config=rep["config"], rounds=rep["rounds"],
        timed_s=rep["timed_s"], kinds=rep["kinds"], failures=rep["failures"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": code == 0 and rep["failed"] == 0,
                      "attempted": rep["attempted"], "failed": rep["failed"],
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
