"""One measuring process of a benchmark workload.

    python3 bench/workload.py --workload NAME --seed N --spawned-at T
                              [--seconds S] [--setup-only] [--trace-out SPANS]

Sets the workload up, then runs whole passes of its operation list until S
seconds after T (at least one pass; exactly one for `reproduce` and for a
traced run).  The first pass's outputs are checked against `checks`, later
passes' against the first by a hash.  Prints one JSON line: set-up time
(from T, the parent's time.monotonic() at spawn), each pass's wall time and
per-operation latencies, peak RSS, operations attempted and failed,
correctness, and with --trace-out the per-layer metrics.  run.py drives it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks as chk  # noqa: E402  (needs no sqspiral)

CACHE_N = 10**6


class Op(NamedTuple):
    """A named call; `run` returns the output the check reads."""

    name: str
    run: Callable[[], object]


def cli_call(argv):
    """sqspiral.cli.main(argv) with stdout captured: (exit code, stdout)."""
    from sqspiral import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# --------------------------------------------------------------------------
def reproduce(rng, work):
    """`sqspiral verify all`: every reproduction suite once."""
    ops = [Op("verify all", lambda: cli_call(["verify", "all"]))]

    def check(out):
        return chk.verify_report_problems(*out["verify all"])
    return ops, check


# --------------------------------------------------------------------------
def cli_session(rng, work):
    """A scripted session of short CLI commands against a 1e6-entry cache."""
    from sqspiral import table

    cache = work / "cache" / "table.bin"
    cwd = work / "cwd"
    cache.parent.mkdir(parents=True)
    cwd.mkdir()
    table.save_table(table.build_table(CACHE_N), str(cache))
    os.environ["SQSPIRAL_CACHE"] = str(cache)
    os.chdir(cwd)

    bands = rng.randrange(480, 521)
    square_k = rng.randrange(900, 1000)
    same_r = rng.randrange(900, 991)
    windings = rng.choice((5, 6))
    wd_n = rng.randrange(3000, 3101)
    fib_count = rng.randrange(20, 29)
    scan_c = rng.randrange(-12, -7)
    report_n = rng.randrange(1900, 2101)
    arms_spec, arms_n = rng.choice(
        (("div:11", rng.randrange(980, 1021)), ("div:13", rng.randrange(1200, 1301))))
    squares_n = rng.randrange(95000, 105001)
    render_n = rng.randrange(280, 321)

    script = {
        "areas --bands": ["areas", "--bands", bands, "--figure", "bands.svg"],
        "areas --square-angles": ["areas", "--square-angles", square_k],
        "areas --same-arm": ["areas", "--same-arm", same_r],
        "areas --crossings": ["areas", "--crossings", windings],
        "areas --winding-distances": ["areas", "--winding-distances", wd_n],
        "fib --angles": ["fib", "--angles", "--count", fib_count],
        "fib --areas": ["fib", "--areas", "--count", 30],
        "fib --angles --count 100": ["fib", "--angles", "--count", 100],
        "primes --scan-d": ["primes", "--scan-d", 18, "--t", 100,
                            "--c-min", scan_c, "--c-max", scan_c + 30],
        "primes --report": ["primes", "--report", "--n", report_n],
        "arms div": ["arms", "--group", arms_spec, "--n", arms_n, "--format", "json"],
        "arms squares": ["arms", "--group", "squares", "--n", squares_n,
                         "--format", "json"],
        "render": ["render", "--n", render_n, "--group", "squares", "--arms",
                   "--out", "a.svg"],
        "render again": ["render", "--n", render_n, "--group", "squares", "--arms",
                         "--out", "b.svg"],
        "build": ["build", "--n", CACHE_N, "--cache", str(cache)],
    }
    names = list(script)
    rng.shuffle(names)
    ops = [Op(name, lambda argv=script[name]: cli_call([str(a) for a in argv]))
           for name in names]

    def check(out):
        problems = []
        for name, (code, _) in out.items():
            problems += chk.exit_problems(name, code)
        if problems:
            return problems

        def text(name):
            return out[name][1]

        problems += chk.band_problems(chk.series_terms(text("areas --bands")))
        problems += chk.xml_problems((cwd / "bands.svg").read_text())[1]
        problems += chk.square_angle_problems(chk.series_terms(text("areas --square-angles")))
        problems += chk.same_arm_problems(chk.series_terms(text("areas --same-arm")))
        problems += chk.crossing_problems(json.loads(text("areas --crossings")))
        problems += chk.winding_distance_problems(text("areas --winding-distances"))
        problems += chk.fib_angle_problems(chk.series_terms(text("fib --angles")), CACHE_N)
        if "fib --angles --count 100" in out:
            problems += chk.fib_angle_problems(
                chk.series_terms(text("fib --angles --count 100")), CACHE_N)
        problems += chk.fib_area_problems(chk.series_terms(text("fib --areas")))
        problems += chk.scan_problems(text("primes --scan-d"), 18, scan_c, scan_c + 30, 100)
        problems += chk.prime_arm_problems(
            report_n, chk.prime_report_rows(text("primes --report")), 0.6)
        for name, spec, n in (("arms div", arms_spec, arms_n),
                              ("arms squares", "squares", squares_n)):
            doc = json.loads(text(name))
            rows = chk.arms_json_rows(doc)
            problems += chk.arm_problems(spec, n, rows)
            problems += chk.brute_force_problems(spec, n, [r[0] for r in rows])
            problems += chk.system_problems(
                spec, n, [(d, Fraction(row["D"], 2), Fraction(b))
                          for d, rows_d in doc["systems"].items()
                          for row in rows_d for b in row["b_hats"]])
        problems += chk.svg_problems((cwd / "a.svg").read_text(),
                                     (cwd / "b.svg").read_text(), math.isqrt(render_n))
        problems += chk.build_problems(text("build"), CACHE_N)
        return problems
    return ops, check


WORKLOADS = {"reproduce": reproduce, "cli_session": cli_session}
# verify keeps its tables and arm reports for the life of the process, so a
# second pass of `reproduce` in one process would measure the caches.
ONE_PASS = {"reproduce"}
# Fails every time with CapacityError (a table of F_101 entries is over the
# budget) and is counted in `failed`; every other operation must succeed.
MAY_FAIL = {"fib --angles --count 100"}


# --------------------------------------------------------------------------
def fingerprint(outputs) -> str:
    return hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()


def run_pass(ops, report_errors: bool):
    """Every operation once: (outputs, successful latencies, failures)."""
    outputs, latencies, failed = {}, [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # an operation that fails is counted, not fatal
            failed += 1
            if report_errors:
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - t0)
    return outputs, latencies, failed


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="repeat whole passes until this long after spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args()

    import sqspiral  # noqa: F401  (the import is part of set-up)
    import sqspiral.cli  # noqa: F401
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    work = BENCH / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops, check = WORKLOADS[args.workload](random.Random(args.seed), work)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes, failed, digest, problems = [], 0, None, []
        end = args.spawned_at + args.seconds
        while True:
            start = time.perf_counter()
            outputs, latencies, pass_failed = run_pass(ops, digest is None)
            passes.append({"wall_s": time.perf_counter() - start, "op_s": latencies})
            failed += pass_failed
            if digest is None:
                # Peak memory of one pass, before the checks allocate theirs.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                layers = tracer.metrics() if tracer else {}
                if tracer:
                    tracer.write_spans(args.trace_out)
                problems = [f"{op.name}: failed" for op in ops
                            if op.name not in outputs and op.name not in MAY_FAIL]
                problems = problems or check(outputs)
                digest = fingerprint(outputs)
            elif fingerprint(outputs) != digest:
                problems.append("outputs differ between passes")
            del outputs
            typical = statistics.median(p["wall_s"] for p in passes)
            if (args.workload in ONE_PASS or args.trace_out
                    or time.monotonic() + 0.5 * typical > end):
                break
    finally:
        os.chdir(BENCH)
        shutil.rmtree(work, ignore_errors=True)
    for line in problems[:10]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"setup_s": setup_s, "passes": passes, "peak_rss_mb": peak_rss_mb,
                      "attempted": len(ops) * len(passes), "failed": failed,
                      "correct": not problems, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
