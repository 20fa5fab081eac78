"""Area and angle analyses: square-number bands, angle limits, Fibonacci
ratios, axis crossings.

Angle series carry degrees where the published figures use degrees; the
square-number successor angle stays in radians (limit 2).  Far-index angles
and band areas come from asymptotic expansions, not a table or a term sum.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .table import TAU, SpiralTable, stream_cum_angles, wrap_signed
from .ratpoly import QuadraticPoly, newton_quadratic

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DEG = 180.0 / math.pi


@dataclass(frozen=True)
class AnalysisSeries:
    """A labeled numeric series with an optional claimed limit."""

    label: str
    terms: tuple                      # ((index, value), ...), indices increasing
    claimed_limit: float | None = None
    provenance: str | None = None

    @cached_property
    def _by_index(self) -> dict:
        return dict(reversed(self.terms))  # the first term of an index wins

    def value(self, index: int) -> float:
        try:
            return self._by_index[index]
        except KeyError:
            raise KeyError(f"{self.label}: no term with index {index}") from None

    def to_csv(self) -> str:
        lines = ["index,value"]
        lines += [f"{i},{v:.9f}" for i, v in self.terms]
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        doc = {"label": self.label, "count": len(self.terms),
               "claimed_limit": self.claimed_limit,
               "provenance": self.provenance}
        if self.claimed_limit is not None and self.terms:
            doc["final_deviation"] = abs(self.terms[-1][1] - self.claimed_limit)
        return json.dumps(doc, sort_keys=True) + "\n"


def sqrt_band_sum(lo: int, hi: int) -> float:
    """Sum of sqrt(n) for 1 <= lo <= n < hi.

    One np.sum adds the terms when lo < 10**4.  Later bands are S(hi-1) -
    S(lo-1) from S(N) = zeta(-1/2) + (2/3) N^3/2 + (1/2) N^1/2 + (1/24) N^-1/2
    - (1/1920) N^-5/2 + O(N^-9/2), with zeta(-1/2) cancelled and each
    difference written so nothing cancels: the truncation is below 1e-20
    relative, leaving float rounding (about 1e-15 relative).
    """
    if lo < 10**4:
        return float(np.sum(np.sqrt(np.arange(lo, hi, dtype=np.float64))))
    a, b = lo - 1, hi - 1
    ra, rb = math.sqrt(a), math.sqrt(b)
    dr = (b - a) / (ra + rb)                     # sqrt(b) - sqrt(a)
    return ((2 / 3) * dr * (a + ra * rb + b) + 0.5 * dr - (1 / 24) * dr / (ra * rb)
            - (1 / 1920) * (rb ** -5 - ra ** -5))


def square_band_ratio_series(m_max: int) -> AnalysisSeries:
    """Ratios S(M+1)/S(M) of successive square-number band areas, limit 1.

    S(M) sums the triangle areas with indices M^2 .. M^2 + 2M (the band
    between the rays of M^2 and (M+1)^2).
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    bands = [0.5 * sqrt_band_sum(m * m, (m + 1) ** 2) for m in range(1, m_max + 2)]
    terms = tuple((m, bands[m] / bands[m - 1]) for m in range(1, m_max + 1))
    return AnalysisSeries("square_band_ratio", terms, claimed_limit=1.0,
                          provenance="band areas between square-number rays")


def square_band_closed_form(m: int) -> float:
    """Leading closed form of the band ratio: (3M^2+9M+7)/(3M^2+3M+1)."""
    return (3 * m * m + 9 * m + 7) / (3 * m * m + 3 * m + 1)


def square_angle_series(table: SpiralTable, k_max: int) -> AnalysisSeries:
    """Angle between the rays of k^2 and (k+1)^2, radians; limit 2."""
    if (k_max + 1) ** 2 > table.max_n + 1:
        raise IndexError(f"table of {table.max_n} cannot reach ray {(k_max + 1) ** 2}")
    terms = tuple(
        (k, table.angle_of((k + 1) ** 2) - table.angle_of(k * k))
        for k in range(1, k_max + 1))
    return AnalysisSeries("square_angle", terms, claimed_limit=2.0,
                          provenance="successor square-number angle, radians")


def same_arm_angle_series(table: SpiralTable, r_max: int) -> AnalysisSeries:
    """Wrapped angle between the rays of r^2 and (r+3)^2, degrees.

    This is the angle between square numbers on successive winds;
    limit 360 - 3*(360/pi) = 16.2253 degrees.
    """
    if (r_max + 3) ** 2 > table.max_n + 1:
        raise IndexError(f"table of {table.max_n} cannot reach ray {(r_max + 3) ** 2}")
    terms = tuple(
        (r, abs(wrap_signed(table.angle_of((r + 3) ** 2)
                            - table.angle_of(r * r))) * DEG)
        for r in range(1, r_max + 1))
    limit = 360.0 - 3 * (360.0 / math.pi)
    return AnalysisSeries("same_arm_angle", terms, claimed_limit=limit,
                          provenance="square numbers one wind apart, degrees")


def fibonacci_numbers(count: int) -> list[int]:
    """First `count` marked Fibonacci numbers 1, 2, 3, 5, 8, ..."""
    out = [1, 2]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


@dataclass(frozen=True)
class FibAngles:
    """Fibonacci angle analysis: sector angles and both ratio aggregations."""

    alphas_deg: AnalysisSeries        # alpha_k between rays F_k and F_{k+1}
    step_ratios: AnalysisSeries       # alpha_{k+1} / alpha_k  -> sqrt(golden)
    cumulative_ratios: AnalysisSeries  # S_{k+1}/S_k, S_k = sum of first k alphas


def _fib_angles_from(alphas) -> FibAngles:
    alpha_terms = tuple((k + 1, a * DEG) for k, a in enumerate(alphas))
    steps = tuple((k + 1, alphas[k + 1] / alphas[k])
                  for k in range(len(alphas) - 1))
    sums = np.cumsum(alphas)
    cums = tuple((k + 1, float(sums[k + 1] / sums[k]))
                 for k in range(len(alphas) - 1))
    return FibAngles(
        alphas_deg=AnalysisSeries("fib_angles", alpha_terms,
                                  provenance="degrees between Fibonacci rays"),
        step_ratios=AnalysisSeries("fib_angle_step_ratio", steps,
                                   claimed_limit=math.sqrt(GOLDEN),
                                   provenance="per-step angle ratio"),
        cumulative_ratios=AnalysisSeries("fib_angle_cumulative_ratio", cums,
                                         claimed_limit=math.sqrt(GOLDEN),
                                         provenance="cumulative sector ratio"),
    )


def fib_angle_series(table: SpiralTable, count: int) -> FibAngles:
    """Sector angles between consecutive Fibonacci rays, from a table."""
    fibs = fibonacci_numbers(count + 1)
    if fibs[-1] > table.max_n + 1:
        raise IndexError(f"table of {table.max_n} cannot reach ray {fibs[-1]}")
    alphas = [table.angle_of(fibs[k + 1]) - table.angle_of(fibs[k])
              for k in range(count)]
    return _fib_angles_from(alphas)


def fib_angle_series_streaming(count: int) -> FibAngles:
    """Same as fib_angle_series from stream_cum_angles: no table bound, the
    table's bits up to index 2**20, about 1e-16 relative error past it."""
    fibs = fibonacci_numbers(count + 1)
    try:
        w = stream_cum_angles([f - 1 for f in fibs])
    except OverflowError:  # an index past the float range, from count 1474
        raise ValueError(f"count {count}: Fibonacci rays past the float range") from None
    alphas = [w[fibs[k + 1] - 1] - w[fibs[k] - 1] for k in range(count)]
    return _fib_angles_from(alphas)


def fib_area_ratio_series(count: int) -> AnalysisSeries:
    """Ratios B_{k+1}/B_k of triangle-area bands between Fibonacci rays.

    B_k sums triangle areas for indices F_k .. F_{k+1}-1 with sqrt_band_sum:
    term by term while F_k < 10**4, from the expansion after, so the cost is
    O(count).  The ratio tends to golden^(3/2) = 2.058171...  A count whose
    last band sum is not a finite float (from 984 on) is a ValueError.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    fibs = fibonacci_numbers(count + 2)
    try:
        bands = [0.5 * sqrt_band_sum(fibs[k], fibs[k + 1]) for k in range(count + 1)]
    except OverflowError:  # a band end past the float range
        bands = [math.inf]
    if not math.isfinite(bands[-1]):
        raise ValueError(f"count {count}: Fibonacci band sums past the float range")
    terms = tuple((k + 1, bands[k + 1] / bands[k]) for k in range(count))
    return AnalysisSeries("fib_area_ratio", terms,
                          claimed_limit=GOLDEN * math.sqrt(GOLDEN),
                          provenance="areas between Fibonacci rays")


@dataclass(frozen=True)
class CrossingsReport:
    """Rays nearest the reference axis at each full turn, plus their quadratic."""

    crossings: tuple                  # n per winding, 1-based
    poly: QuadraticPoly               # fitted on crossings 1..3
    second_diffs: tuple
    angles_deg: tuple                 # wrapped ray angle at each crossing

    def notes(self) -> list[str]:
        out = []
        for w, (n, want) in enumerate(zip(self.crossings,
                                          (int(self.poly(x)) for x in
                                           range(1, len(self.crossings) + 1))), 1):
            if n != want:
                out.append(f"winding {w}: crossing {n} differs from fitted {want}")
        return out


def axis_crossings(table: SpiralTable, winding_max: int) -> CrossingsReport:
    """Axis-crossing rays per winding and their fitted quadratic.

    crossing(1) is pinned to 2 (the difference graph anchors f(1) = 2); for
    w >= 2 the crossing is the ray whose total angle is nearest (w-1)*2*pi,
    searched over all rays within half a turn of that axis crossing.
    """
    if winding_max < 3:
        raise ValueError("need at least 3 windings to fit the quadratic")
    need = (winding_max - 1) * TAU + math.pi
    if float(table.cum_angle[-1]) < need:
        raise IndexError(f"table of {table.max_n} does not cover {winding_max} windings")
    crossings = [2] + table.nearest_rays(np.arange(1, winding_max) * TAU).tolist()
    poly = newton_quadratic(*crossings[:3])
    diffs = tuple(crossings[i + 2] - 2 * crossings[i + 1] + crossings[i]
                  for i in range(len(crossings) - 2))
    angles = tuple(wrap_signed(table.angle_of(n)) * DEG for n in crossings)
    return CrossingsReport(crossings=tuple(crossings), poly=poly,
                           second_diffs=diffs, angles_deg=angles)
