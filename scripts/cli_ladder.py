#!/usr/bin/env python3
"""Run sqspiral CLI commands one process each; one JSON row per command.

Each command runs once.  Its row gives the exit code, the wall time, the
peak resident memory (the child's own `ru_maxrss`, as `os.wait4` returns it:
what RUSAGE_CHILDREN reads for a lone child), and the byte count and sha256
of its stdout and, for a command that writes a file (its `--out` or
`--figure` argument), of that file.  The commands run from an empty
temporary directory with SQSPIRAL_CACHE unset, so each builds its own table,
and import the package of this checkout (its src/).  The default ladder is

    areas --winding-distances 200000 / 2000000 / 6000000, verify all,
    arms --group div:2 --n 1200 --format json / csv,
    primes --scan-d 18 --t 2000 --c-max 20000, areas --crossings 1000,
    primes --report --n 200000 / 1000000,
    render --n 600 --group div:2 --arms, render --n 1000000 --group squares

Run it as, for example,

    python3 scripts/cli_ladder.py
    python3 scripts/cli_ladder.py "areas --winding-distances 1000"

and compare two commits by running a copy of this script from each
checkout's scripts/ in turn.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LADDER = ("areas --winding-distances 200000", "areas --winding-distances 2000000",
          "areas --winding-distances 6000000", "verify all",
          "arms --group div:2 --n 1200 --format json", "arms --group div:2 --n 1200 --format csv",
          "primes --scan-d 18 --t 2000 --c-max 20000", "areas --crossings 1000",
          "primes --report --n 200000", "primes --report --n 1000000",
          "render --n 600 --group div:2 --arms --out fig.svg",
          "render --n 1000000 --group squares --out fig.svg")


def run_once(argv, cwd, env):
    """(exit code, wall seconds, peak RSS in MiB, stdout bytes, stdout sha256)."""
    digest, size = hashlib.sha256(), 0
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sqspiral.cli", *argv],
                            cwd=cwd, env=env, stdout=subprocess.PIPE)
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
        size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024, size, digest.hexdigest()


def file_digest(argv, cwd):
    """(bytes, sha256) of the file a command writes (its --out or --figure), or None."""
    for flag in ("--out", "--figure"):
        if flag in argv[:-1]:
            path = pathlib.Path(cwd, argv[argv.index(flag) + 1])
            if path.exists():
                data = path.read_bytes()
                return len(data), hashlib.sha256(data).hexdigest()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="sqspiral arguments as one string each, default the ladder")
    args = parser.parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k != "SQSPIRAL_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as cwd:
        for command in args.commands or LADDER:
            argv = command.split()
            code, wall, peak, size, sha = run_once(argv, cwd, env)
            row = {"command": command, "exit": code, "wall_s": round(wall, 3),
                   "peak_rss_mib": round(peak, 1), "stdout_bytes": size, "stdout_sha256": sha}
            written = file_digest(argv, cwd)
            if written:
                row["file_bytes"], row["file_sha256"] = written
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
