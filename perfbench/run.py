#!/usr/bin/env python3
"""pebbletx benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload {interpret,construct,cli} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs passes for S seconds and reports the end-to-end metrics.
``--trace 1`` runs untraced passes for S/2 seconds, then installs the span
wrappers, sets up once and runs passes for another S/2 seconds traced, and
reports the per-layer metrics of one set-up plus one pass together with the
tracing overhead.  Every output is checked against an independent
reference; the last line of stdout is the JSON result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_SETUPS, MAX_SETUPS = 5, 100
SETUP_SECONDS = 1.0
MAX_SPANS = 1_000_000  # 24 MB of spans in memory; traced passes stop beyond it


def load_package():
    """Import pebbletx from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import pebbletx

    if Path(pebbletx.__file__).resolve().parent != src / "pebbletx":
        raise ImportError(f"pebbletx resolved to {pebbletx.__file__}, not under {src}")
    if not (ROOT / "corpus").is_dir():
        raise FileNotFoundError(f"no corpus/ under {ROOT}")


class Cache:
    """Clears ``satisfiable``'s cache and keeps its hit and miss counts."""

    def __init__(self, satisfiable) -> None:
        self.fn = satisfiable  # the lru_cache object, never a tracing wrapper
        self.hits = self.misses = 0

    def clear(self) -> None:
        info = self.fn.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        self.fn.cache_clear()


class Passes:
    """Runs whole passes of a workload and does the failure accounting."""

    def __init__(self, wl, cache: Cache) -> None:
        self.wl = wl
        self.cache = cache
        self.first: dict = {}  # label -> (signature, failure message or None)
        self.runs: Counter = Counter()  # label -> executions
        self.attempted = self.failed = 0
        self.reported: set = set()
        self.count = 0

    def run(self, seconds: float, tracer=None, count_runs: bool = True) -> list[float]:
        times = []
        start = time.perf_counter()
        while True:
            times.append(self._one(tracer, count_runs))
            if time.perf_counter() - start >= seconds:
                return times
            if tracer is not None and len(tracer) >= MAX_SPANS:
                return times

    def _one(self, tracer, count_runs: bool) -> float:
        total = 0.0
        for op in self.wl.operations(self.count):
            if self.wl.cold_cache:
                self.cache.clear()
            gc.collect()
            t0 = time.perf_counter()
            try:
                value = op.fn() if tracer is None else tracer.span("bench.op", op.fn)
                error = None
            except Exception as e:  # a failing operation is counted, not fatal
                value, error = None, e
            dt = time.perf_counter() - t0
            total += dt
            if op.is_run and error is None and count_runs:
                self.wl.meter.add(value.steps, dt)
            self._account(op, value, error)
        self.count += 1
        return total

    def _account(self, op, value, error) -> None:
        self.attempted += 1
        self.runs[op.label] += 1
        if error is not None:
            return self._fail(op.label, f"{op.label}: raised {type(error).__name__}: {error}")
        signature = op.signature(value)
        if op.label not in self.first:
            try:
                msg = op.check(value)
            except Exception as e:
                msg = f"{op.label}: check raised {type(e).__name__}: {e}"
            self.first[op.label] = (signature, msg)
        else:
            first_signature, msg = self.first[op.label]
            if msg is None and signature != first_signature:
                msg = f"{op.label}: output differs from the first pass"
        if msg is not None:
            self._fail(op.label, msg)

    def late_failures(self, failures) -> None:
        """Failures found after timing, by checks of the first pass's outputs
        that every later pass reproduced: each execution of the op fails."""
        for label, msg in failures:
            first = self.first.get(label)
            if first is not None and first[1] is None:  # not counted as failed yet
                self.first[label] = (first[0], msg)
                self._fail(label, msg, self.runs[label])

    def _fail(self, label: str, msg: str, count: int = 1) -> None:
        self.failed += count
        if label not in self.reported:
            self.reported.add(label)
            print(f"FAIL {msg}")


def timed_setups(wl, cache: Cache) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_SETUPS or (
        len(times) < MAX_SETUPS and time.perf_counter() - start < SETUP_SECONDS
    ):
        cache.clear()
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def untraced(wl, cache: Cache, seconds: float) -> tuple[dict, Passes]:
    setups = timed_setups(wl, cache)
    passes = Passes(wl, cache)
    wall = passes.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out, failures = wl.outputs()
    passes.late_failures(failures)
    print(f"# {len(setups)} set-ups, {len(wall)} passes, "
          f"{wl.meter.steps} deterministic steps in {wl.meter.seconds:.3f} s of runs")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "steps_per_s": (wl.meter.steps / wl.meter.seconds if wl.meter.seconds else 0.0, "1/s"),
        "out_states": (out.states, "count"),
        "out_transitions": (out.transitions, "count"),
        "out_bytes": (out.bytes, "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, passes


def traced(wl, cache: Cache, seconds: float) -> tuple[dict, Passes]:
    import tracing

    cache.clear()
    wl.setup()
    passes = Passes(wl, cache)
    plain = passes.run(seconds / 2)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        cache.clear()
        cache.hits = cache.misses = 0
        gc.collect()
        tracer.span("bench.setup", wl.setup)
        mid = len(tracer)
        with_spans = passes.run(seconds / 2, tracer, count_runs=False)
        cache.clear()
    finally:
        tracer.remove()
    passes.late_failures(wl.outputs()[1])

    agg = tracing.combine(tracer.aggregate(0, mid), tracer.aggregate(mid, len(tracer)),
                          len(with_spans))
    untraced_wall, traced_wall = statistics.median(plain), statistics.median(with_spans)
    metrics = tracing.layer_metrics(agg, cache.hits, cache.misses, traced_wall - untraced_wall)
    path = OUT_DIR / f"spans-{wl.name}.tsv"
    tracer.write(path)
    print(f"# untraced: {len(plain)} passes, wall_s {untraced_wall:.6f} s")
    print(f"# traced: {len(with_spans)} passes, wall_s {traced_wall:.6f} s, "
          f"{len(tracer)} spans written to {path.relative_to(ROOT)}")
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["interpret", "construct", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except (ImportError, OSError) as e:
        print(f"error: cannot load pebbletx from this checkout: {e}", file=sys.stderr)
        return 2

    import workloads
    from pebbletx import core

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    cache = Cache(core.satisfiable)
    try:
        if args.trace:
            metrics, passes = traced(wl, cache, args.seconds)
        else:
            metrics, passes = untraced(wl, cache, args.seconds)
    finally:
        wl.close()

    for label, states, transitions, pebbles, key, bound, ok in getattr(wl, "rows", []):
        print(f"# size {label:<52} states {states:>6} transitions {transitions:>6} "
              f"pebbles {pebbles}  {key} <= {bound}: {'ok' if ok else 'VIOLATED'}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(f"{args.workload} fail_rate {passes.failed / passes.attempted} ratio "
          f"({passes.failed} of {passes.attempted} ops)")
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
