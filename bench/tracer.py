"""Spans and counters around sqspiral's public functions, for the traced run.

`Tracer.install` replaces each listed function with a wrapper in every
sqspiral module that holds it, so calls through a name imported with
`from .x import f` are seen as well as calls through the module.  Layer
boundaries get spans (name, start, end, parent); `trace_arm`,
`newton_quadratic` and `QuadraticPoly.canonicalize`, called once per arm
trace, get a call count and summed time instead, since a span each would
cost more than the call.  Nothing under src/ changes.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

from sqspiral import (arms, cli, config, constants, primes, ratpoly, series,
                      svg, table, verify)

SUITES = verify.SUITES
COMMANDS = ("build", "arms", "areas", "fib", "primes", "render")


def _size(result):
    return result.max_n + 1


# (module, function, span name, counter, what the counter adds per call)
SPANS = [
    (table, "build_table", "table.build", "table.build_entries", _size),
    (table, "load_table", "table.load", "table.load_bytes",
     lambda r: 13 + 8 * (r.max_n + 1)),
    (table, "save_table", "table.save", None, None),
    (table, "stream_cum_angles", "table.stream", "table.stream_terms",
     lambda r: max(r, default=0)),
    (series, "fib_angle_series_streaming", "series.fib_stream", None, None),
    (series, "fib_area_ratio_series", "series.fib_area", None, None),
    (series, "square_band_ratio_series", "series.other", None, None),
    (series, "square_angle_series", "series.other", None, None),
    (series, "same_arm_angle_series", "series.other", None, None),
    (series, "axis_crossings", "series.other", None, None),
    (series, "fib_angle_series", "series.other", None, None),
    (constants, "c2_extrapolate", "constants", None, None),
    (constants, "winding_distance_table", "constants", "constants.winding_rows", len),
    (constants, "constants_report", "constants", None, None),
    (arms, "enumerate_arms", "arms.enumerate", "arms.arms_kept", len),
    (arms, "classify_systems", "arms.classify", None, None),
    (primes, "sieve", "primes.sieve", "primes.sieve_entries", _size),
    (primes, "scan_prime_polys", "primes.scan", "primes.scan_rows", len),
    (primes, "prime_arm_report", "primes.arm_report", "primes.prime_arms", len),
    (svg, "render_svg", "svg.render", "svg.bytes", len),
    (svg, "render_report_figure", "svg.render", "svg.bytes", len),
    (config, "load_config", "config.load", None, None),
]

# Per-layer metrics, in the order they are reported: (name, unit).
METRICS = (
    [("table.build_s", "s"), ("table.build_entries", "count"),
     ("table.load_s", "s"), ("table.load_calls", "count"),
     ("table.load_bytes", "bytes"), ("table.save_s", "s"),
     ("table.stream_s", "s"), ("table.stream_terms", "count"),
     ("series.fib_stream_s", "s"), ("series.fib_area_s", "s"),
     ("series.other_s", "s"),
     ("constants.busy_s", "s"), ("constants.winding_rows", "count"),
     ("ratpoly.fit_calls", "count"), ("ratpoly.fit_s", "s"),
     ("arms.enumerate_s", "s"), ("arms.trace_calls", "count"),
     ("arms.arms_kept", "count"), ("arms.trace_yield", "ratio"),
     ("arms.classify_s", "s"),
     ("primes.sieve_s", "s"), ("primes.sieve_entries", "count"),
     ("primes.scan_s", "s"), ("primes.scan_rows", "count"),
     ("primes.arm_report_s", "s"), ("primes.prime_arms", "count"),
     ("svg.render_s", "s"), ("svg.bytes", "bytes")]
    + [(f"verify.{s}_s", "s") for s in SUITES]
    + [("cli.self_ms", "ms")]
    + [(f"cli.{c}_p50_ms", "ms") for c in COMMANDS]
    + [("config.load_s", "s"), ("trace.overhead_s", "s")])


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.stack = []
        self.counts = Counter()  # counter name -> total
        self.tally_s = Counter()  # tally name -> seconds

    # -- wrappers ----------------------------------------------------------
    def _span(self, fn, name, counter=None, amount=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter:
                counts[counter] += amount(result)
            return result
        return wrapper

    def _tally(self, fn, name, count_calls):
        counts, seconds, clock = self.counts, self.tally_s, time.perf_counter

        def wrapper(*args, **kwargs):
            if count_calls:
                counts[name + "_calls"] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
        return wrapper

    def _replace(self, original, wrapper):
        """Swap `original` for `wrapper` wherever a sqspiral module holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname == "sqspiral" or modname.startswith("sqspiral."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        for mod, fname, name, counter, amount in SPANS:
            fn = getattr(mod, fname)
            self._replace(fn, self._span(fn, name, counter, amount))
        self._replace(arms.trace_arm, self._tally(arms.trace_arm, "arms.trace", True))
        self._replace(ratpoly.newton_quadratic,
                      self._tally(ratpoly.newton_quadratic, "ratpoly.fit", True))
        canon = ratpoly.QuadraticPoly.canonicalize
        ratpoly.QuadraticPoly.canonicalize = self._tally(canon, "ratpoly.fit", False)
        for suite, fn in list(verify._SUITE_FUNCS.items()):
            verify._SUITE_FUNCS[suite] = self._span(fn, f"verify.{suite}")
        self._replace(cli.main, self._span(cli.main, lambda args: f"cli.{args[0][0]}"))

    # -- results -----------------------------------------------------------
    def busy(self, name: str) -> float:
        """Seconds inside spans called `name`, counting nested ones once."""
        total = 0.0
        for label, start, end, parent in self.spans:
            if label != name:
                continue
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                total += end - start
        return total

    def metrics(self) -> dict:
        """Every per-layer metric but trace.overhead_s, as {name: {value, unit}}."""
        c = self.counts
        cli_spans = [i for i, s in enumerate(self.spans) if s[0].startswith("cli.")]
        child_s = Counter()
        for label, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        self_ms = [1e3 * (self.spans[i][2] - self.spans[i][1] - child_s[i])
                   for i in cli_spans]

        def p50_ms(label):
            d = [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == label]
            return statistics.median(d) if d else 0.0

        values = {
            "table.build_s": self.busy("table.build"),
            "table.build_entries": c["table.build_entries"],
            "table.load_s": self.busy("table.load"),
            "table.load_calls": sum(1 for s in self.spans if s[0] == "table.load"),
            "table.load_bytes": c["table.load_bytes"],
            "table.save_s": self.busy("table.save"),
            "table.stream_s": self.busy("table.stream"),
            "table.stream_terms": c["table.stream_terms"],
            "series.fib_stream_s": self.busy("series.fib_stream"),
            "series.fib_area_s": self.busy("series.fib_area"),
            "series.other_s": self.busy("series.other"),
            "constants.busy_s": self.busy("constants"),
            "constants.winding_rows": c["constants.winding_rows"],
            "ratpoly.fit_calls": c["ratpoly.fit_calls"],
            "ratpoly.fit_s": self.tally_s["ratpoly.fit"],
            "arms.enumerate_s": self.busy("arms.enumerate"),
            "arms.trace_calls": c["arms.trace_calls"],
            "arms.arms_kept": c["arms.arms_kept"],
            "arms.trace_yield": (c["arms.arms_kept"] / c["arms.trace_calls"]
                                 if c["arms.trace_calls"] else 0.0),
            "arms.classify_s": self.busy("arms.classify"),
            "primes.sieve_s": self.busy("primes.sieve"),
            "primes.sieve_entries": c["primes.sieve_entries"],
            "primes.scan_s": self.busy("primes.scan"),
            "primes.scan_rows": c["primes.scan_rows"],
            "primes.arm_report_s": self.busy("primes.arm_report"),
            "primes.prime_arms": c["primes.prime_arms"],
            "svg.render_s": self.busy("svg.render"),
            "svg.bytes": c["svg.bytes"],
            "cli.self_ms": statistics.median(self_ms) if self_ms else 0.0,
            "config.load_s": self.busy("config.load"),
        }
        for suite in SUITES:
            values[f"verify.{suite}_s"] = self.busy(f"verify.{suite}")
        for command in COMMANDS:
            values[f"cli.{command}_p50_ms"] = p50_ms(f"cli.{command}")
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS if name in values}

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (label, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": label, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
