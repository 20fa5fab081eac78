#!/usr/bin/env python3
"""Render the classic spiral figures as deterministic SVGs.

Produces in out/: the bare spiral, the square-number arms, the
divisible-by-7 and divisible-by-11 group systems, and two convergence
charts (band-area ratios, successor-square angles).
"""
import pathlib

import numpy as np

from sqspiral.arms import enumerate_arms, parse_group
from sqspiral.series import square_angle_series, square_band_ratio_series
from sqspiral.svg import render_report_figure, render_svg
from sqspiral.table import table_for


def main() -> None:
    out = pathlib.Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    table = table_for(600)

    (out / "spiral_bare.svg").write_text(render_svg(table, 300))

    # an arm table's row 0 is each arm's second differential D
    squares = parse_group("squares")
    arms = enumerate_arms(table, squares, 300)
    q_arms = arms.member_tuples(np.flatnonzero(arms.cols[0] == 18))
    (out / "spiral_squares.svg").write_text(
        render_svg(table, 300, [(squares, "#2d7d46")], q_arms))

    for spec_str, color in (("div:7", "#b03a2e"), ("div:11", "#b08c2e")):
        group = parse_group(spec_str)
        arms = enumerate_arms(table, group, 600)
        dominant = arms.member_tuples(np.flatnonzero(np.isin(arms.cols[0], (20, 21, 22)))[:12])
        name = spec_str.replace(":", "")
        (out / f"spiral_{name}.svg").write_text(
            render_svg(table, 600, [(group, color)], dominant))

    (out / "band_ratio_chart.svg").write_text(
        render_report_figure(square_band_ratio_series(60)))
    (out / "square_angle_chart.svg").write_text(
        render_report_figure(square_angle_series(table, 20)))

    print(f"figures in {out}")


if __name__ == "__main__":
    main()
