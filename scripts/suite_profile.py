#!/usr/bin/env python3
"""Run the verify suites in one process; one JSON line per suite.

Each line gives the suite's checks, its failures, its seconds, the
process's peak resident memory so far (`ru_maxrss`, in MiB), so the line at
which the peak jumps names the suite that holds the memory, and the modules
first imported while the suite ran, so a lazy import names its suite.
Suites run in `verify all` order and share its caches (tables, arm reports),
so a suite's seconds and memory are what it adds after the suites before
it.  Run it with the package importable, for example

    PYTHONPATH=src python3 scripts/suite_profile.py
    PYTHONPATH=src python3 scripts/suite_profile.py constants table1

and compare two commits by running it on each in turn.
"""
import argparse
import json
import resource
import sys
import time

from sqspiral import verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help="suites to run, default all in order: "
                             + ", ".join(verify.SUITES))
    args = parser.parse_args(argv)
    unknown = sorted(set(args.suites) - set(verify.SUITES))
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")
    for name in args.suites or verify.SUITES:
        loaded = set(sys.modules)
        t0 = time.perf_counter()
        checks = getattr(verify, f"suite_{name}")()
        seconds = time.perf_counter() - t0
        imported = sorted(set(sys.modules) - loaded)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        print(json.dumps({"suite": name, "checks": len(checks),
                          "failed": sum(1 for c in checks if not c.ok),
                          "seconds": round(seconds, 4),
                          "ru_maxrss_mib": round(peak_kib / 1024, 1),
                          "imported": imported}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
