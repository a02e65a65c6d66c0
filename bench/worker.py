"""One benchmark process: set-up, timed phase, per-item gate, JSON report.

``run.py`` starts every worker in a fresh interpreter, one at a time, so
nothing the program caches survives from one worker to the next.  The
worker is single-threaded and closed-loop: it issues the next item only
after the previous verdict returned.

Modes:
  setup   set up, report the set-up time, exit
  run     set up, then run as many whole rounds as fill --seconds
          most nearly
  trace   set up with every library call spanned, then run one round
          (fixed work, so work counts repeat exactly) traced, item by
          item against a relabelled copy of the round run untraced

Every time the end-to-end metrics report is scaled to a reference host
speed (see ``host_probe`` and ``Sampler``): the host this runs on
changes its speed by up to 1.8x for seconds to minutes at a time, and
the scaling takes that change out of the figures while leaving any
change of the program in.

The last line of standard output is the JSON report.  Exit code 1 means
an item failed its gate, 2 that the program could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# what host_probe takes at the reference speed; a time t measured while
# the probe takes p is reported as t * REFERENCE_PROBE_S / p
REFERENCE_PROBE_S = 0.0006
SAMPLE_EVERY_S = 0.1


_TABLE = {i: i * 2654435761 & 0xFFFF for i in range(1024)}


def _spin():
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def _lookups(table=_TABLE):
    acc = 0
    for i in range(1500):
        k = (i * 40503) & 1023
        v = table[k]
        if v & ~i == 0:
            acc += 1
        acc ^= v >> (k & 7)
    return acc


def host_probe():
    """The host's current speed, as the time of a fixed pure-Python task.

    Integer arithmetic, bit tests and dict lookups: the kinds of work
    roughdom does, in code of the benchmark's own, so a change of the
    program never moves the probe.  It allocates no object the garbage
    collector tracks, so it neither triggers nor absorbs a collection of
    the program's garbage.  Each half is the fastest of three tries,
    which drops a try that a context switch hit.
    """
    total = 0.0
    for task in (_spin, _lookups):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            task()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


class Sampler:
    """Probes the host every SAMPLE_EVERY_S while a measurement runs, and
    clocks the garbage collector.

    Items and set-up may run for seconds, over which the host's speed
    may change, and a single-threaded process cannot probe beside them.
    So the probe runs in a SIGALRM handler, which Python runs between
    two bytecodes of the main thread.  The time the probes take is kept,
    so that it can be taken out of the measured interval.  Both are kept
    in lists of floats, which the garbage collector does not track.

    The time of every collection is read through ``gc.callbacks``;
    ``gc_s`` is the part of the last measurement spent collecting.
    """

    def __init__(self):
        self.probes = []
        self.spent = []
        self.gc_s = 0.0
        self._gc_total = self._gc_mark = self._gc_start = 0.0
        signal.signal(signal.SIGALRM, self._probe)
        gc.callbacks.append(self._collecting)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(host_probe())
        self.spent.append(time.perf_counter() - start)

    def _collecting(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_total += time.perf_counter() - self._gc_start

    def arm(self):
        self.probes.clear()
        self.spent.clear()
        self._gc_mark = self._gc_total
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def disarm(self):
        """Stop probing; return the time the probes took since ``arm``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.gc_s = self._gc_total - self._gc_mark
        return sum(self.spent)

    def speed(self, before, after):
        """The mean probe over a measurement, from the probes just before
        and just after it and those taken inside it."""
        return (before + sum(self.probes) + after) / (len(self.probes) + 2)


def _import_roughdom():
    """Import roughdom from this checkout's sources, and only from there."""
    if not (SRC / "roughdom" / "__init__.py").is_file():
        raise ImportError(f"no roughdom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import roughdom

    if Path(roughdom.__file__).resolve().parent != SRC / "roughdom":
        raise ImportError(f"roughdom was imported from {roughdom.__file__}, not {SRC}")
    return roughdom


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the launcher just before the spawn")
    return p.parse_args(argv)


def _time_item(k, item, failures, sampler=None):
    """Run one item and return its time, without the time of any probe
    ``sampler`` took inside it; its gate runs after the clock stops."""
    if sampler is not None:
        sampler.arm()
    start = time.perf_counter()
    try:
        out = item.run()
    except Exception as exc:  # a failed item is counted, not fatal
        failures.append((k, item.kind, f"raised {exc!r}"))
        return _elapsed(start, sampler)
    elapsed = _elapsed(start, sampler)
    try:
        ok = bool(item.check(out))
    except Exception as exc:  # the gate itself failing fails the item
        failures.append((k, item.kind, f"gate raised {exc!r}"))
    else:
        if not ok:
            failures.append((k, item.kind, "wrong verdict"))
    return elapsed


def _elapsed(start, sampler):
    # disarmed before the clock is read, so that a probe taken in between
    # counts in both the elapsed time and the time taken out of it
    spent = 0.0 if sampler is None else sampler.disarm()
    return time.perf_counter() - start - spent


def _timed_phase(workload, items, seconds, sampler, probe):
    """Run whole rounds, as many as fill ``seconds`` most nearly.

    The host is probed between every two items, and every
    SAMPLE_EVERY_S inside an item.  An item's time is scaled by the mean
    of the probes just before, inside and just after it.

    A collection of the garbage collector falls on whichever item
    happens to allocate when the counts run over, and a full one takes
    tens of milliseconds, so where the collections fell moved category's
    p90 by up to a fifth from seed to seed.  So the collections' time is
    taken out of the items that ran them and spread back over all items
    in proportion to their time: the total stays as measured.

    The number of rounds is the scaled time of the first round divided
    into ``seconds``, rounded, and at least one; scaled, that time moves
    little with the host's speed, so neither does the number of rounds.
    Returns the measured and the scaled time of every item, the
    failures, the number of rounds and the peak RSS after the first
    round.
    """
    times = []
    collecting = []
    speeds = []
    failures = []
    rounds = 1
    r = 0
    while r < rounds:
        for item in items:
            times.append(_time_item(len(times), item, failures, sampler))
            collecting.append(sampler.gc_s)
            after = host_probe()
            speeds.append(sampler.speed(probe, after))
            probe = after
        r += 1
        if r == 1:
            rounds = max(1, round(seconds / sum(
                t * REFERENCE_PROBE_S / p for t, p in zip(times, speeds))))
            # peak over set-up and the first round: fixed work, so the
            # number of rounds a run fits in does not move it
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        items = workload.round(r) if r < rounds else None
    own = [t - g for t, g in zip(times, collecting)]
    share = sum(times) / sum(own)
    scaled = [t * share * REFERENCE_PROBE_S / p for t, p in zip(own, speeds)]
    return times, scaled, failures, rounds, rss_kb


def _trace_phase(tracer, traced, plain):
    """Time a traced round against an untraced, relabelled copy of it.

    The two run item by item, in alternating order, so changes of the
    host's speed fall on both alike.  Returns the traced and untraced
    times and the failures.
    """
    failures = []
    traced_s = plain_s = 0.0
    for k, (t_item, p_item) in enumerate(zip(traced, plain)):
        tracer.cause = k
        if k % 2:
            traced_s += _time_item(k, t_item, failures)
            plain_s += _time_item(k, p_item, failures)
        else:
            plain_s += _time_item(k, p_item, failures)
            traced_s += _time_item(k, t_item, failures)
    return traced_s, plain_s, failures


def main(argv=None):
    args = _parse(argv)
    start = time.monotonic()
    first_probe = host_probe()
    probe_s = time.monotonic() - start
    sampler = Sampler()
    if args.mode != "trace":  # a probe inside a span would count in it
        sampler.arm()
    try:
        roughdom = _import_roughdom()
    except ImportError as exc:
        sampler.disarm()
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS, Tracer, bind
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sampler.disarm()
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.mode == "trace" else None
    workload = WORKLOADS[args.workload](bind(tracer), args.seed)
    items = workload.round(0)
    # set-up without the probes, scaled by their mean
    spent = sampler.disarm()
    setup_raw_s = time.monotonic() - args.t0 - probe_s - spent
    last_probe = host_probe()
    report = {"setup_s": setup_raw_s * REFERENCE_PROBE_S / sampler.speed(first_probe, last_probe),
              "setup_raw_s": setup_raw_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0
    kinds = {}
    for item in items:
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
    report.update(kinds=kinds, python=platform.python_version(),
                  config=asdict(roughdom.DEFAULT_CONFIG))
    if args.mode == "run":
        times, scaled, failures, rounds, rss_kb = _timed_phase(
            workload, items, args.seconds, sampler, last_probe)
        report.update(
            attempted=len(times),
            rounds=rounds,
            timed_s=sum(times),
            items_per_s=len(scaled) / sum(scaled),
            item_p50_ms=1000 * statistics.median(scaled),
            item_p90_ms=1000 * statistics.quantiles(scaled, n=10)[8],
            peak_rss_mb=rss_kb / 1024,
            measured=dict(
                items_per_s=len(times) / sum(times),
                item_p50_ms=1000 * statistics.median(times),
                item_p90_ms=1000 * statistics.quantiles(times, n=10)[8],
            ),
        )
    else:
        # the same round of an untraced twin with other labels, so no
        # cache is shared
        plain = WORKLOADS[args.workload](bind(None), args.seed, tag="u").round(0)
        traced_s, plain_s, failures = _trace_phase(tracer, items, plain)
        values = tracer.metrics()
        report.update(
            attempted=len(items) + len(plain),
            rounds=1,
            timed_s=traced_s,
            untraced_timed_s=plain_s,
            layers={k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS},
        )
    report.update(failed=len(failures), failures=failures[:10])
    print(json.dumps(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
