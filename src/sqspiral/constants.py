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


#: Probe rays per block when the winding-distance CSV is computed and written.
CSV_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class WindingRows:
    """Winding-distance rows as columns, in probe order: ray m lies ~one full
    turn past ray n."""

    n: np.ndarray         # int64
    m: np.ndarray         # int64
    distance: np.ndarray  # float64, sqrt(m) - sqrt(n)
    winding: np.ndarray   # int64, winding index of ray m

    def __len__(self) -> int:
        return self.n.size


def _probe_array(probes) -> np.ndarray:
    if isinstance(probes, range):
        return np.arange(probes.start, probes.stop, probes.step, dtype=np.int64)
    if isinstance(probes, np.ndarray):
        return probes.astype(np.int64, copy=False)
    return np.fromiter(probes, dtype=np.int64)


def winding_distance_table(table: SpiralTable, probes) -> WindingRows:
    """Winding-distance rows sqrt(m) - sqrt(n) for each probe ray n.

    Ray m > n is the ray nearest angle_of(n) + 2*pi (the first of a tie), for
    all probes at once; probes whose target lies past the table end are
    skipped.  Distances tend to pi as the winding grows.
    """
    n = _probe_array(probes)
    if n.size and not (1 <= n.min() and n.max() <= table.max_n + 1):
        raise IndexError(f"probes outside table range 1..{table.max_n + 1}")
    cum = table.cum_angle
    n = n[cum[n - 1] + TAU <= cum[-1]]
    start = cum[n - 1]
    m = table.nearest_rays(start + TAU)
    end = cum[m - 1]
    return WindingRows(n, m, np.sqrt(m) - np.sqrt(n), (1 + end // TAU).astype(np.int64))


def winding_averages(rows: WindingRows, fold_at: int | None = None) -> dict[int, float]:
    """Arithmetic mean distance per winding; windings >= fold_at pool together.

    np.bincount adds each bin's weights in row order, as a sequential loop
    does, so the means are those of Python's float addition row by row.
    """
    w = rows.winding if fold_at is None else np.minimum(rows.winding, fold_at)
    sums, counts = np.bincount(w, weights=rows.distance), np.bincount(w)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), (sums[present] / counts[present]).tolist()))


def _probe_blocks(probes):
    for i in range(0, len(probes), CSV_BLOCK):
        yield _probe_array(probes[i:i + CSV_BLOCK])


@dataclass(frozen=True, eq=False)
class ConstantsReport:
    """The winding-distance reproduction rows, computed and written
    CSV_BLOCK probes at a time, so that no more than one block is held."""

    table: SpiralTable
    probes: range | np.ndarray
    means: np.ndarray  # mean distance per winding index, over every row

    def winding_csv_blocks(self):
        """CSV n,m,distance,winding,winding_avg: the header, then one string per block."""
        yield "n,m,distance,winding,winding_avg\n"
        for n in _probe_blocks(self.probes):
            rows = winding_distance_table(self.table, n)
            cols = (rows.n, rows.m, rows.distance, rows.winding, self.means[rows.winding])
            yield "".join(map("{},{},{:.6f},{},{:.7f}\n".format, *(c.tolist() for c in cols)))


def constants_report(table: SpiralTable, probes) -> ConstantsReport:
    """Take the per-winding means block by block, raising IndexError for a
    probe outside the table before any row is written; the report's CSV then
    recomputes each block as it writes it."""
    if not isinstance(probes, range):
        probes = _probe_array(probes)
    # np.add.at, like np.bincount, adds each winding's distances in row order
    sums = np.zeros(2 + int(table.cum_angle[-1] // TAU))
    counts = np.zeros(sums.size, dtype=np.int64)
    for n in _probe_blocks(probes):
        rows = winding_distance_table(table, n)
        np.add.at(sums, rows.winding, rows.distance)
        np.add.at(counts, rows.winding, 1)
    return ConstantsReport(table, probes, sums / np.maximum(counts, 1))
