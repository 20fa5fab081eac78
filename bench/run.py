"""Benchmark of sqspiral: two workloads, each measured in fresh processes.

    python3 bench/run.py --workload {reproduce,cli_session}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it spawns a few set-up-only processes, then processes that
run whole passes of the workload (bench/workload.py) until S seconds have
passed, and reports medians: setup_s over every process, wall_s and
op_p50_ms over every pass, peak_rss_mb over the measuring processes.
With --trace 1 it runs pairs of one untraced and one traced pass, each pass
in its own process, until S seconds have passed (at least one pair), and
reports the per-layer metrics of the last traced pass plus trace.overhead_s,
the median over pairs of traced minus untraced wall time.  The last line of
stdout is the JSON result; a copy and the spans go to bench/out/.  Exits 0 only when every process ran and
printed its figures, whether or not the outputs checked correct (that is
the `correct` field).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("reproduce", "cli_session")
SETUP_PROBES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SQSPIRAL_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread of load: the box has two cores
    return env


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """One round (or set-up probe) in a fresh process; its JSON line."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    start = time.monotonic()
    setups = [spawn(workload, seed, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds, took = [], []
    # Start another process while it would end no more than half a round past
    # the requested time; each one repeats passes until that time itself.
    while not rounds or (time.monotonic() - start + 0.5 * statistics.median(took)
                         <= seconds):
        t0 = time.monotonic()
        left = seconds - (t0 - start)
        rounds.append(spawn(workload, seed, deadline, "--seconds", f"{left:.3f}"))
        took.append(time.monotonic() - t0)
    passes = [p for r in rounds for p in r["passes"]]
    metrics = {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        # A pass whose every operation failed has no latency; its wall time
        # stands in, so that the run still reports `correct: false`.
        "op_p50_ms": (statistics.median(1e3 * statistics.median(p["op_s"] or [p["wall_s"]])
                                        for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
    }
    return summarize(rounds, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def measure_traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    # Host speed drifts between processes, so one traced-minus-untraced pair
    # can even come out negative; pairs run back to back and their median
    # difference is reported.
    start = time.monotonic()
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    rounds, overheads, took = [], [], []
    while not took or time.monotonic() - start + 0.5 * statistics.median(took) <= seconds:
        t0 = time.monotonic()
        plain = spawn(workload, seed, deadline)
        traced = spawn(workload, seed, deadline, "--trace-out", str(spans))
        rounds += [plain, traced]
        overheads.append(traced["passes"][0]["wall_s"] - plain["passes"][0]["wall_s"])
        took.append(time.monotonic() - t0)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    return summarize(rounds, metrics)


def summarize(rounds, metrics) -> dict:
    return {"correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "sqspiral" / "__init__.py").is_file():
        print(f"no sqspiral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
