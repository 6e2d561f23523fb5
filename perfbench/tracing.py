"""Spans around pebbletx's public functions, and the per-layer metrics.

A wrapper replaces each traced function at every module attribute that
holds it, because the modules import one another's functions by name:
``analysis`` and ``compose`` call their own binding of ``satisfiable``,
``compose`` and ``uniformize`` their own ``is_reversible``, ``uniformize``
and ``cli`` their own ``compose``, while ``run`` and ``enumerate_runs``
reach ``step`` through the ``runner`` module global.  ``eval_test`` is not
wrapped: it runs several times per step, and its time is part of
``runner.step``'s self time.

Spans (name, start, end, parent) are kept in flat arrays and written out
when the benchmark ends.  A span's self time is its duration minus the
durations of its child spans; spans nest strictly, so children never
overlap.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _sizes(args, result) -> dict:
    return {
        "states": len(result.polarity),
        "transitions": len(result.transitions),
        "pebbles": result.k,
    }


def _simple_bound(args, result) -> dict:
    tn = result.metadata["first_normalized"]
    sn = result.metadata["second_normalized"]
    return {**_sizes(args, result), "bound": 2 * len(tn.polarity) * len(sn.polarity)}


def _general_bound(args, result) -> dict:
    first, second = args[0], args[1]
    return {**_sizes(args, result), "bound": (first.k + 1) * (second.k + 1) - 1}


def _k_of_first_arg(args) -> str:
    return f"k{args[0]}"


def _k_of_machine(args) -> str:
    return f"k{args[0].k}"


# (module, function, name suffix from the arguments, counters from the result)
TRACED = (
    ("core", "satisfiable", None, None),
    ("runner", "run", None, lambda a, r: {"steps": r.steps}),
    ("runner", "step", None, None),
    ("runner", "enumerate_runs", None, lambda a, r: {"truncated": int(r.truncated)}),
    ("runner", "semantics", None, None),
    ("analysis", "validate", None, None),
    ("analysis", "is_deterministic", None, None),
    ("analysis", "is_reverse_deterministic", None, None),
    ("analysis", "is_reversible", None, None),
    ("transforms", "eliminate_equality", None, _sizes),
    ("transforms", "reverse_transducer", None, _sizes),
    ("transforms", "separate_drop_lift_moves", None, _sizes),
    ("transforms", "split_outputs", None, _sizes),
    ("compose", "compose", None, None),
    ("compose", "compose_general", None, _general_bound),
    ("compose", "compose_simple", None, _simple_bound),
    ("uniformize", "build_config_enumerator", _k_of_first_arg, _sizes),
    ("uniformize", "build_equality_annotator", _k_of_first_arg, _sizes),
    ("uniformize", "decompose", _k_of_machine, _sizes),
    ("uniformize", "uniformize_pipeline", None, None),
    ("machinefile", "serialize", None, lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    ("machinefile", "parse", None, lambda a, r: {"bytes": len(a[0].encode("utf-8"))}),
    ("cli", "main", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span that the benchmark itself opens."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, suffix, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if suffix is None else f"{name}.{suffix(args)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counters is not None:
                self.counters[idx] = counters(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("pebbletx") and m]
        for mod_name, fn_name, suffix, counters in TRACED:
            original = getattr(sys.modules[f"pebbletx.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, suffix, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per span name over spans [lo, hi): calls, self and inclusive
        seconds, and the summed result counters."""
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict = defaultdict(lambda: defaultdict(float))
        for i in range(lo, hi):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += dur - child.get(i, 0.0)
            for key, value in self.counters.get(i, {}).items():
                rec[key] += value
        return out

    def write(self, path: Path) -> None:
        """A JSON header naming the spans, then one tab-separated line per
        span: name index, parent index (-1 for none), start and end in ns
        from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "parent", "start_ns", "end_ns"]}) + "\n")
            for i in range(len(self)):
                fh.write(f"{self.name[i]}\t{self.parent[i]}\t"
                         f"{round((self.start[i] - t0) * 1e9)}\t"
                         f"{round((self.end[i] - t0) * 1e9)}\n")


def combine(setup: dict, passes: dict, n_passes: int) -> dict:
    """One traced set-up plus the mean of the traced passes."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for name, rec in setup.items():
        for key, value in rec.items():
            out[name][key] += value
    for name, rec in passes.items():
        for key, value in rec.items():
            out[name][key] += value / n_passes
    return out


def layer_metrics(agg: dict, cache_hits: int, cache_misses: int, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit).
    A layer the workload does not reach reports 0."""
    metrics: dict = {}

    def get(name: str, key: str) -> float:
        return agg[name][key] if name in agg else 0.0

    def put(name: str, key: str, unit: str, metric: str | None = None) -> None:
        metrics[metric or f"{name}.{key}"] = (get(name, key), unit)

    sat = "core.satisfiable"
    put(sat, "calls", "count")
    lookups = cache_hits + cache_misses
    metrics[f"{sat}.hit_ratio"] = (cache_hits / lookups if lookups else 0.0, "ratio")
    put(sat, "self_s", "s")

    steps = get("runner.run", "steps")
    metrics["runner.steps"] = (steps, "count")
    metrics["runner.us_per_step"] = (
        get("runner.run", "incl_s") / steps * 1e6 if steps else 0.0, "us"
    )
    for fn in ("step", "run", "enumerate_runs"):
        put(f"runner.{fn}", "calls", "count")
        put(f"runner.{fn}", "self_s", "s")
    put("runner.enumerate_runs", "truncated", "count")

    for fn in ("is_deterministic", "is_reverse_deterministic", "validate"):
        put(f"analysis.{fn}", "calls", "count")
        put(f"analysis.{fn}", "self_s", "s")

    for fn in ("eliminate_equality", "reverse_transducer", "separate_drop_lift_moves",
               "split_outputs"):
        for key, unit in (("self_s", "s"), ("states", "count"), ("transitions", "count")):
            put(f"transforms.{fn}", key, unit)

    for fn in ("compose_general", "compose_simple"):
        for key, unit in (("self_s", "s"), ("states", "count"), ("transitions", "count"),
                          ("pebbles", "count"), ("bound", "count")):
            put(f"compose.{fn}", key, unit)

    for fn, ks in (("build_config_enumerator", (1, 2, 3)),
                   ("build_equality_annotator", (1, 2, 3)),
                   ("decompose", (1, 2))):
        for k in ks:
            for key, unit in (("self_s", "s"), ("states", "count"), ("transitions", "count")):
                put(f"uniformize.{fn}.k{k}", key, unit)
    put("uniformize.uniformize_pipeline", "self_s", "s")

    for fn in ("serialize", "parse"):
        put(f"machinefile.{fn}", "calls", "count")
        put(f"machinefile.{fn}", "self_s", "s")
        put(f"machinefile.{fn}", "bytes", "B")

    put("cli.main", "calls", "count")
    put("cli.main", "self_s", "s")
    metrics["tracing.overhead_s"] = (overhead_s, "s")
    return metrics
