#!/usr/bin/env python3
"""Time `enumerate_arms` on a ladder of groups and sizes; one JSON row each.

The ladder is div:7 at n = 2000, 4000 and 8000, div:2 at n = 600, 1200,
2400, 4800 and 9600, and div:3 at n = 2000.  Each row gives the arm count
and the medians of --repeat timed calls of `enumerate_arms`, then
`classify_systems` and the JSON and CSV reports written in blocks, as
`sqspiral arms` writes them (the blocks are counted, not kept), so work an
arm defers until it is read shows where it is paid; the angle table is
built before the clock starts.  `peak_mib` is the tracemalloc peak of one
more, untimed `enumerate_arms` call.  div:2 at 9600 holds about 0.8 GB.
Run it with the package importable, for example

    PYTHONPATH=src python3 scripts/arm_ladder.py --repeat 3

and compare two commits by running it on each in turn, alternating.
"""
import argparse
import json
import statistics
import sys
import time
import tracemalloc

from sqspiral.arms import (classify_systems, enumerate_arms, parse_group, report_csv_blocks,
                           report_json_blocks)
from sqspiral.table import table_for

LADDER = (("div:7", 2000), ("div:7", 4000), ("div:7", 8000),
          ("div:2", 600), ("div:2", 1200), ("div:2", 2400), ("div:2", 4800),
          ("div:2", 9600), ("div:3", 2000))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed calls per row (default 3)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    for spec, n in LADDER:
        table, group = table_for(n), parse_group(spec)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            arms = enumerate_arms(table, group, n)
            t1 = time.perf_counter()
            report = classify_systems(arms, group, n)
            t2 = time.perf_counter()
            sum(map(len, report_json_blocks(report)))
            t3 = time.perf_counter()
            sum(map(len, report_csv_blocks(report)))
            times.append((t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3))
        row = {"group": spec, "n": n, "arms": len(arms)}
        del arms, report                   # so the traced call's peak is its own
        tracemalloc.start()
        enumerate_arms(table, group, n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        for name, col in zip(("enumerate_s", "classify_s", "report_json_s", "report_csv_s"),
                             zip(*times)):
            row[name] = round(statistics.median(col), 4)
        print(json.dumps({**row, "peak_mib": round(peak / 2**20, 1), "calls": args.repeat}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
