"""Deterministic SVG rendering of the spiral, marked groups, and arm overlays.

Output is byte-stable: fixed 6-decimal coordinate formatting, fixed element
order, no timestamps.  The spiral is drawn counterclockwise; `mirror` flips
the y axis for comparison with mirrored drawings.
"""
from __future__ import annotations

import math
import re

from .table import TAU, SpiralTable
from .config import parse_key_values
from . import arms as _arms
from .series import AnalysisSeries

DEFAULT_STYLE = {
    "background": "#ffffff",
    "boundary.color": "#404040",
    "boundary.width": "1.0",
    "marker.radius": "3.0",
    "arm.width": "1.5",
}

MARKER_COLOR = "#d9a516"   # group markers of the render command
ARM_COLORS = ("#2d7d46", "#b03a2e", "#2e6db0", "#8e44ad")  # overlays cycle these
SIZE = 800          # spiral drawing: width and height in pixels
SCALE = 20.0        # spiral drawing: user units per unit of radius
WIDTH, HEIGHT = 640, 400   # report figure, pixels


def parse_style(text: str) -> dict:
    """Parse a key=value style file line by line: an unknown key, a color not #rgb
    or #rrggbb, or a width or radius not a positive decimal is refused with its line."""
    style = dict(DEFAULT_STYLE)
    for lineno, key, value in parse_key_values(text, DEFAULT_STYLE, "style"):
        color = key in ("background", "boundary.color")
        if not (re.fullmatch(r"#([0-9a-fA-F]{3}){1,2}", value) if color else
                re.fullmatch(r"[0-9]*\.?[0-9]+", value) and float(value) > 0):
            raise ValueError(f"style line {lineno}: {key}: {value!r} is not a valid "
                             f"{key.split('.')[-1]}")
        style[key] = value
    return style


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def render_svg(table: SpiralTable, max_n: int, groups=(), arm_overlays=(), mirror=False,
               style=DEFAULT_STYLE) -> str:
    """Spiral boundary polyline, markers of the (NumberGroup, color) pairs `groups`,
    and a polyline per member sequence of `arm_overlays`; each drawn ray is placed
    once, on the boundary, and its markers and overlays reuse it."""
    if max_n > table.max_n:
        raise IndexError(f"render range {max_n} exceeds table bound {table.max_n}")
    if (low := min((n for arm in arm_overlays for n in arm), default=1)) < 1:
        raise IndexError(f"ray {low} outside render range 1..{max_n}")
    points = []  # "x,y" of rays 1..max_n, one angle read as a float at a time
    for n, total in enumerate(map(float, table.cum_angle[:max_n]), 1):
        mod = total % TAU
        r = math.sqrt(n)
        x, y = r * math.cos(mod), r * math.sin(mod)
        points.append(f"{_fmt(x * SCALE)},{_fmt((y if mirror else -y) * SCALE)}")
    marks = []
    for group, color in groups:
        for n in _arms.members(group, max_n):
            x, y = points[n - 1].split(",")
            marks.append(
                f'<circle cx="{x}" cy="{y}" r="{style["marker.radius"]}" fill="{color}"/>')
    for idx, arm in enumerate(arm_overlays):
        pts = " ".join(points[n - 1] for n in arm if n <= max_n)
        marks.append(
            f'<polyline points="{pts}" fill="none" stroke="{ARM_COLORS[idx % len(ARM_COLORS)]}" '
            f'stroke-width="{style["arm.width"]}"/>')
    boundary = " ".join(points)
    del points  # not held while the boundary is copied into the document
    extent = SCALE * math.sqrt(max_n) + 4 * SCALE
    view = f"{_fmt(-extent)} {_fmt(-extent)} {_fmt(2 * extent)} {_fmt(2 * extent)}"
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="{view}">',
        f'<rect x="{_fmt(-extent)}" y="{_fmt(-extent)}" width="{_fmt(2 * extent)}" '
        f'height="{_fmt(2 * extent)}" fill="{style["background"]}"/>',
        f'<polyline points="{boundary}" fill="none" '
        f'stroke="{style["boundary.color"]}" stroke-width="{style["boundary.width"]}"/>',
        *marks, "</svg>"]) + "\n"


def render_report_figure(series: AnalysisSeries) -> str:
    """Line chart of a series; the claimed limit is drawn as a dashed rule.

    The plotted range spans the data (and the limit rule when present),
    padded by 5% on each side.
    """
    if not series.terms:
        raise ValueError(f"{series.label}: nothing to plot")
    xs = [float(i) for i, _ in series.terms]
    ys = [v for _, v in series.terms]
    y_all = ys + ([series.claimed_limit] if series.claimed_limit is not None else [])
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(y_all), max(y_all)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    margin = 40.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * margin)

    def sy(y: float) -> float:
        return HEIGHT - margin - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * margin)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_fmt(margin)}" y="{_fmt(margin)}" width="{_fmt(WIDTH - 2 * margin)}" '
        f'height="{_fmt(HEIGHT - 2 * margin)}" fill="none" stroke="#888888"/>',
        f'<text x="{_fmt(margin)}" y="{_fmt(margin - 8)}" font-size="12" '
        f'fill="#202020">{series.label}</text>',
    ]
    if series.claimed_limit is not None:
        ly = sy(series.claimed_limit)
        parts.append(
            f'<line x1="{_fmt(margin)}" y1="{_fmt(ly)}" x2="{_fmt(WIDTH - margin)}" '
            f'y2="{_fmt(ly)}" stroke="#b03a2e" stroke-dasharray="4 3"/>')
    if len(series.terms) == 1:
        parts.append(
            f'<circle cx="{_fmt(sx(xs[0]))}" cy="{_fmt(sy(ys[0]))}" r="3.0" '
            f'fill="#2e6db0"/>')
    else:
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#2e6db0" '
            f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
