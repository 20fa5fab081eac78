#!/usr/bin/env python3
"""Run every verification suite and write the reports next to this script.

Produces:
    out/verify_all.txt      one PASS/FAIL line per check
    out/table1.csv          winding-distance reproduction rows
    out/arms_div7.json      spiral-arm report for the divisible-by-7 group
    out/band_ratios.csv     square-number band-area ratios
Exit status is nonzero when any check fails.
"""
import pathlib
import sys

from sqspiral import verify
from sqspiral.arms import classify_systems, enumerate_arms, parse_group, report_json
from sqspiral.constants import constants_report
from sqspiral.published import TABLE1_ROWS
from sqspiral.series import square_band_ratio_series
from sqspiral.table import table_for


def main() -> int:
    out = pathlib.Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)

    checks = verify.run_suite("all")
    (out / "verify_all.txt").write_text(verify.render_report(checks))
    failed = [c for c in checks if not c.ok]
    print(f"verify all: {len(checks) - len(failed)}/{len(checks)} checks passed")

    table = table_for(400)
    report = constants_report(table, probes=[n for n, _, _ in TABLE1_ROWS])
    with open(out / "table1.csv", "w", encoding="utf-8") as fh:
        fh.writelines(report.winding_csv_blocks())

    group = parse_group("div:7")
    arms = enumerate_arms(table_for(600), group, 600)
    (out / "arms_div7.json").write_text(
        report_json(classify_systems(arms, group, 600)))

    (out / "band_ratios.csv").write_text(square_band_ratio_series(200).to_csv())

    print(f"reports in {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
