"""Asymptotic constants of the spiral: c2, winding distances, Archimedean law.

The cumulative angle satisfies w(k) = 2*sqrt(k) + c2(k) with c2(k) decreasing
toward the spiral constant c2 = -2.157782996659...; the correction series runs
in half-integer powers of 1/k (leading term (7/6)/sqrt(k)), which is what the
Richardson extrapolation below exploits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import TAU, SpiralTable

#: Spiral constant as published (12 decimals).
C2_PUBLISHED = -2.157782996659


def c2_estimate(k: int, w: float) -> float:
    """c2(k) = w - 2*sqrt(k) for w = w(k); converges to the spiral constant from above."""
    return w - 2.0 * math.sqrt(k)


def c2_extrapolate(w_at: dict[int, float]) -> float:
    """Richardson-extrapolate c2 from w_at = {k: w(k)} at geometrically spaced k.

    Model: c2(k) = c2 + alpha*x + beta*x^2 + gamma*x^3 with x = k^(-1/2).
    Four samples interpolate exactly; more are fit by least squares.
    """
    ks = sorted(w_at)
    if len(ks) < 4:
        raise ValueError("need at least 4 sample points")
    for a, b in zip(ks, ks[1:]):
        if b < 2 * a:
            raise ValueError(
                f"ill-conditioned spacing: consecutive samples {a}, {b} have ratio < 2")
    x = np.array([1.0 / math.sqrt(k) for k in ks])
    y = np.array([c2_estimate(k, w_at[k]) for k in ks])
    design = np.vander(x, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def archimedean_radius(phi: float, c2: float) -> float:
    """Asymptotic radius law r(phi) = phi/2 - c2/2."""
    if phi < 0:
        raise ValueError("phi must be >= 0")
    return 0.5 * phi - 0.5 * c2


@dataclass(frozen=True)
class WindingRow:
    """One probe of the winding distance: ray m lies ~one full turn past ray n."""

    n: int
    m: int
    distance: float
    winding: int  # winding index of ray m
    gap: float    # (angle_of(m) - angle_of(n)) - 2*pi


def winding_distance_table(table: SpiralTable, probes=None) -> list[WindingRow]:
    """Winding-distance rows sqrt(m) - sqrt(n) for each probe ray n.

    Ray m > n is the ray nearest angle_of(n) + 2*pi (the first of a tie), for
    all probes at once.  Default probes are all n >= 1; probes whose target
    lies past the table end are skipped.  Distances tend to pi as the winding
    grows.
    """
    cum = table.cum_angle
    n = (np.arange(1, table.max_n + 1) if probes is None
         else np.fromiter(probes, dtype=np.int64))
    if n.size and not (1 <= n.min() and n.max() <= table.max_n + 1):
        raise IndexError(f"probes outside table range 1..{table.max_n + 1}")
    n = n[cum[n - 1] + TAU <= cum[-1]]
    start = cum[n - 1]
    target = start + TAU
    # target <= cum[-1], so rays j and j+1, at cum[j-1] < target <= cum[j],
    # both exist; ray j wins a tie if it is past n
    j = np.searchsorted(cum, target)
    m = np.where((j >= n + 1) & (np.abs(cum[j - 1] - target) <= np.abs(cum[j] - target)),
                 j, j + 1)
    end = cum[m - 1]
    rows = zip(n.tolist(), m.tolist(), (np.sqrt(m) - np.sqrt(n)).tolist(),
               (1 + end // TAU).astype(np.int64).tolist(),
               ((end - start) - TAU).tolist())
    return [WindingRow(*row) for row in rows]


def winding_averages(rows, fold_at: int | None = None) -> dict[int, float]:
    """Arithmetic mean distance per winding; windings >= fold_at pool together."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for row in rows:
        w = row.winding if fold_at is None else min(row.winding, fold_at)
        sums[w] = sums.get(w, 0.0) + row.distance
        counts[w] = counts.get(w, 0) + 1
    return {w: sums[w] / counts[w] for w in sorted(sums)}


@dataclass(frozen=True)
class ConstantsReport:
    """The winding-distance reproduction rows."""

    pi_winding_table: list[WindingRow]

    def winding_table_csv(self) -> str:
        lines = ["n,m,distance,winding,winding_avg"]
        avgs = winding_averages(self.pi_winding_table)
        for row in self.pi_winding_table:
            lines.append(f"{row.n},{row.m},{row.distance:.6f},{row.winding},"
                         f"{avgs[row.winding]:.7f}")
        return "\n".join(lines) + "\n"


def constants_report(table: SpiralTable, probes) -> ConstantsReport:
    return ConstantsReport(winding_distance_table(table, probes=probes))
