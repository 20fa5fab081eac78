"""Command-line interface: build/cache the table, verification suites, reports.

Exit codes: 0 success (also when the reader of stdout leaves early), 1 verification
failure, 2 I/O error, 64 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from . import arms as arms_mod
from . import primes as primes_mod
from . import verify as verify_mod
from .config import load_config
from .constants import c2_estimate, constants_report
from .series import (axis_crossings, fib_angle_series, fib_area_ratio_series,
                     fibonacci_numbers, same_arm_angle_series,
                     square_angle_series, square_band_ratio_series)
from .svg import DEFAULT_STYLE, MARKER_COLOR, parse_style, render_report_figure, render_svg
from .table import build_table, load_table, save_table

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_USAGE = 64
DEFAULT_N = 1000  # --n of arms, primes --report and render


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Noted(argparse.Action):
    """Stores a flag's value and adds the flag to `args.given`, so that a mode
    can refuse the flags of another while the parser keeps their defaults."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += (self.option_strings[0],)


def positive_int(text: str) -> int:
    """argparse type for sizes: a zero or negative size is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and reused by every later `main`."""
    parser = _Parser(prog="sqspiral", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config",
                        help="file of the cache_path key (default ./spiral.conf)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and cache the angle table")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--cache", help="cache file path (overrides SQSPIRAL_CACHE and the config)")

    p = sub.add_parser("verify", help="run a reproduction suite")
    p.add_argument("suite", choices=list(verify_mod.SUITES) + ["all"])

    p = sub.add_parser("arms", help="trace spiral arms for a number group")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=positive_int, default=DEFAULT_N)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("areas", help="area and angle series reports")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bands", type=int, metavar="M_MAX")
    mode.add_argument("--square-angles", type=positive_int, metavar="K_MAX")
    mode.add_argument("--same-arm", type=positive_int, metavar="R_MAX")
    mode.add_argument("--crossings", type=int, metavar="WINDING_MAX")
    mode.add_argument("--winding-distances", type=positive_int, metavar="MAX_N",
                      help="winding-distance CSV over all probes")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--figure", metavar="SVG_PATH",
                   help="also write the series as a chart")

    p = sub.add_parser("fib", help="Fibonacci angle and area constants")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--angles", action="store_true")
    mode.add_argument("--areas", action="store_true")
    p.add_argument("--count", type=positive_int, default=6)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--figure", metavar="SVG_PATH",
                   help="also write the series as a chart")

    p = sub.add_parser("primes", help="prime-rich polynomial scan / arm report")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scan-d", type=positive_int, metavar="D")
    mode.add_argument("--report", action="store_true")
    p.set_defaults(given=())
    p.add_argument("--t", type=positive_int, default=100, action=_Noted,
                   help="--scan-d: samples t = 1..T (default %(default)s)")
    p.add_argument("--c-min", type=int, default=-10, action=_Noted,
                   help="--scan-d: least c (default %(default)s)")
    p.add_argument("--c-max", type=int, default=20, action=_Noted,
                   help="--scan-d: greatest c (default %(default)s)")
    p.add_argument("--n", type=positive_int, default=DEFAULT_N, action=_Noted,
                   help="--report: arms of the primes up to N (default %(default)s)")

    p = sub.add_parser("render", help="deterministic SVG of the spiral")
    p.add_argument("--n", type=positive_int, default=DEFAULT_N)
    p.add_argument("--group", action="append", default=[])
    p.add_argument("--arms", action="store_true",
                   help="overlay traced arms of the listed groups")
    p.add_argument("--out", required=True)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--style", help="key=value style file")
    return parser


def _table_for(cache: str | None, max_n: int):
    if cache:
        try:
            return load_table(cache, max_n)
        except (OSError, ValueError):
            pass
    return build_table(max_n)


def cmd_build(args, cache: str | None) -> int:
    path = args.cache or cache
    table = build_table(args.n)
    if path:
        save_table(table, path)
    sys.stdout.write(f"max_n={table.max_n}\n"
                     f"final_angle={table.w(table.max_n):.12f}\n"
                     f"c2_raw={c2_estimate(table.max_n, table.w(table.max_n)):.12f}\n")
    if path:
        sys.stdout.write(f"cache={path}\n")
    return EXIT_OK


def cmd_verify(args, cache: str | None) -> int:
    checks = verify_mod.run_suite(args.suite)
    sys.stdout.write(verify_mod.render_report(checks))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_VERIFY


def cmd_arms(args, cache: str | None) -> int:
    group = arms_mod.parse_group(args.group)
    table = _table_for(cache, args.n)
    found = arms_mod.enumerate_arms(table, group, args.n)
    report = arms_mod.classify_systems(found, group, args.n)
    blocks = arms_mod.report_json_blocks if args.format == "json" else arms_mod.report_csv_blocks
    sys.stdout.writelines(blocks(report))
    return EXIT_OK


def _write_series(series, args, companions=()) -> None:
    """CSV of `series` or, with --format json, its summary and its companions'."""
    if args.format == "json":
        for s in (series, *companions):
            sys.stdout.write(s.summary_json())
    else:
        sys.stdout.write(series.to_csv())
    if args.figure:
        with open(args.figure, "w", encoding="utf-8") as fh:
            fh.write(render_report_figure(series))


def cmd_areas(args, cache: str | None) -> int:
    if args.winding_distances is not None and (args.format == "json" or args.figure):
        raise ValueError("--winding-distances writes CSV only: no --format json, no --figure")
    if args.crossings is not None and (args.format == "csv" or args.figure):
        raise ValueError("--crossings writes JSON only: no --format csv, no --figure")
    if args.bands is not None:
        series = square_band_ratio_series(args.bands)
    elif args.square_angles is not None:
        table = _table_for(cache, (args.square_angles + 1) ** 2)
        series = square_angle_series(table, args.square_angles)
    elif args.same_arm is not None:
        table = _table_for(cache, (args.same_arm + 3) ** 2)
        series = same_arm_angle_series(table, args.same_arm)
    elif args.winding_distances is not None:
        max_n = args.winding_distances
        report = constants_report(_table_for(cache, max_n), probes=range(1, max_n))
        sys.stdout.writelines(report.winding_csv_blocks())
        return EXIT_OK
    else:
        table = _table_for(cache, max(400, 12 * args.crossings ** 2))
        report = axis_crossings(table, args.crossings)
        doc = {"crossings": list(report.crossings), "poly": str(report.poly),
               "second_diffs": list(report.second_diffs),
               "angles_deg": [round(a, 8) for a in report.angles_deg],
               "notes": report.notes()}
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    _write_series(series, args)
    return EXIT_OK


def cmd_fib(args, cache: str | None) -> int:
    if args.angles:
        top = fibonacci_numbers(args.count + 1)[-1]
        fib = fib_angle_series(_table_for(cache, top), args.count)
        _write_series(fib.alphas_deg, args,
                      companions=(fib.step_ratios, fib.cumulative_ratios))
    else:
        _write_series(fib_area_ratio_series(args.count), args)
    return EXIT_OK


def cmd_primes(args, cache: str | None) -> int:
    mode, other = (("--scan-d", ("--n",)) if args.scan_d is not None
                   else ("--report", ("--t", "--c-min", "--c-max")))
    refused = [flag for flag in other if flag in args.given]
    if refused:
        raise ValueError(f"{mode} takes no {', '.join(refused)}")
    if args.scan_d is not None:
        rows = primes_mod.scan_prime_polys(args.scan_d,
                                           range(args.c_min, args.c_max + 1),
                                           args.t)
        sys.stdout.write(primes_mod.scan_csv(rows))
    else:
        table = _table_for(cache, args.n)
        sys.stdout.write(primes_mod.arm_report_csv(primes_mod.prime_arm_report(table, args.n)))
    return EXIT_OK


def cmd_render(args, cache: str | None) -> int:
    if args.arms and not args.group:
        raise ValueError("--arms overlays the arms of each --group: no --group given")
    table = _table_for(cache, args.n)
    style = DEFAULT_STYLE
    if args.style:
        with open(args.style, encoding="utf-8") as fh:
            style = parse_style(fh.read())
    groups = [arms_mod.parse_group(spec) for spec in args.group]
    overlays = []
    if args.arms:
        for group in groups:
            arms = arms_mod.enumerate_arms(table, group, args.n)
            overlays.extend(arms.member_tuples(range(len(arms))))
    doc = render_svg(table, args.n, [(group, MARKER_COLOR) for group in groups], overlays,
                     args.mirror, style)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    sys.stdout.write(f"wrote {args.out}\n")
    return EXIT_OK


_COMMANDS = {"build": cmd_build, "verify": cmd_verify, "arms": cmd_arms, "areas": cmd_areas,
             "fib": cmd_fib, "primes": cmd_primes, "render": cmd_render}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cache = load_config(args.config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        code = _COMMANDS[args.command](args, cache)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early (`sqspiral ... | head`): stop quietly,
        # with stdout on devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
