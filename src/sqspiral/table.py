"""Cumulative angle table of the square-root spiral.

The spiral is a chain of right triangles with unit short leg; the ray of
length sqrt(n) sits at the cumulative angle w(n-1), where

    w(k) = sum_{j=1..k} arctan(1/sqrt(j)),   w(0) = 0,

measured counterclockwise from the first ray (sqrt(1) along +x).
"""
from __future__ import annotations

import math
import os
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TAU = 2.0 * math.pi

# Fixed summation block size: rebuilds are bit-identical and block-local
# cumulative sums stay small enough that w(k)-w(k-1) is accurate to well
# under 1e-14 * w(k) even at k = 1e7.
CHUNK = 1 << 16

DEFAULT_CAPACITY = 1 << 27  # table entries (~1 GiB of float64)
TAIL_START = 1 << 20  # stream_cum_angles: indices past this from the expansion
# a walk's unread full blocks are slab columns from this many on: np.add.reduce
# adds one column pairwise, not in order, so a slab needs two
SLAB_MIN = 2
SLAB_CELLS = 1 << 15  # terms per slab piece (rows x blocks), 256 KiB of float64

CACHE_MAGIC = b"SQSP"
CACHE_VERSION = 1


class CapacityError(Exception):
    """Requested table would exceed the configured entry budget."""


def segment_angle(n: int) -> float:
    """Angle arctan(1/sqrt(n)) contributed by triangle n; n >= 1."""
    if n < 1:
        raise ValueError(f"no triangle with index {n}; indices start at 1")
    return math.atan(1.0 / math.sqrt(n))


def wrap_signed(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    m = math.fmod(x, TAU)
    if m > math.pi:
        m -= TAU
    elif m <= -math.pi:
        m += TAU
    return m


@dataclass(frozen=True)
class RayCoord:
    """Position of the ray of length sqrt(n)."""

    n: int
    radius: float
    angle_total: float
    angle_mod: float
    winding: int
    x: float
    y: float


@dataclass(frozen=True)
class SpiralTable:
    """Immutable table of cumulative angles w(0..max_n)."""

    max_n: int
    cum_angle: np.ndarray

    def w(self, k: int) -> float:
        """Cumulative angle after k triangles."""
        return float(self.cum_angle[k])

    def angle_of(self, n: int) -> float:
        """Total angle of the ray of length sqrt(n); valid for 1 <= n <= max_n+1."""
        if not 1 <= n <= self.max_n + 1:
            raise IndexError(f"ray {n} outside table range 1..{self.max_n + 1}")
        return float(self.cum_angle[n - 1])

    def winding(self, n: int) -> int:
        """Winding index, starting at 1 for total angles in [0, 2pi)."""
        return 1 + int(self.angle_of(n) // TAU)

    def nearest_rays(self, angles) -> np.ndarray:
        """Per angle, the ray whose total angle is nearest it (the first of a
        tie), searched among the two rays bracketing it: ray 1 below 0, ray
        max_n+1 past w(max_n)."""
        cum = self.cum_angle
        j = np.clip(np.searchsorted(cum, angles), 1, self.max_n)
        return np.where(np.abs(cum[j - 1] - angles) <= np.abs(cum[j] - angles), j, j + 1)

    def ray(self, n: int) -> RayCoord:
        total = self.angle_of(n)
        mod = total % TAU
        r = math.sqrt(n)
        return RayCoord(
            n=n,
            radius=r,
            angle_total=total,
            angle_mod=mod,
            winding=1 + int(total // TAU),
            x=r * math.cos(mod),
            y=r * math.sin(mod),
        )


def _blocks(top: int, ks=None):
    """Yield (lo, hi, base, total, prefix) per CHUNK-sized block of triangles
    1..top, with w(k) = base + prefix[k - lo], total = prefix[-1] and the base
    carried by Neumaier's sum.  Given ks, the indices to be read, a full block
    holding none of them has prefix None, and from SLAB_MIN of them on a total
    from one slab; the last prefix stays held, so the next reuses its pages."""
    unread = [] if ks is None else sorted(
        set(range(top // CHUNK)) - {(k - 1) // CHUNK for k in ks})
    totals = dict(zip(unread, _slab_totals(unread))) if len(unread) >= SLAB_MIN else {}
    carry = comp = 0.0
    for lo in range(1, top + 1, CHUNK):
        hi = min(lo + CHUNK, top + 1)
        total = totals.get(lo // CHUNK)
        if total is None:
            k = np.arange(lo, hi, dtype=np.float64)
            prefix = np.cumsum(np.arctan(1.0 / np.sqrt(k)))
            total = float(prefix[-1])
        yield lo, hi, carry + comp, total, None if lo // CHUNK in totals else prefix
        s = carry + total
        if abs(carry) >= abs(total):
            comp += (carry - s) + total
        else:
            comp += (total - s) + carry
        carry = s


def _slab_totals(blocks) -> list[float]:
    """Totals of full blocks b (triangles b*CHUNK+1..(b+1)*CHUNK), bit for bit
    np.cumsum's: a slab column each, rows added in order by np.add.reduce with
    the running sums as row 0, which it does for two columns or more only."""
    los = np.asarray(blocks, dtype=np.float64) * CHUNK + 1
    rows = max(1, SLAB_CELLS // los.size)
    k = np.arange(rows, dtype=np.float64)[:, None] + los
    slab = np.zeros((rows + 1, los.size))
    for i in range(0, CHUNK, rows):
        n = min(rows, CHUNK - i)
        x = slab[1:n + 1]
        np.arctan(np.divide(1.0, np.sqrt(k[:n], out=x), out=x), out=x)
        slab[0] = np.add.reduce(slab[:n + 1], axis=0)
        k += rows
    return slab[0].tolist()


def build_table(max_n: int) -> SpiralTable:
    """Build the cumulative-angle table for triangles 1..max_n.

    Summation runs in ascending index order over fixed-size blocks; within a
    block a local cumulative sum is added to the carried total, which is
    accumulated with Neumaier compensation.  Output is deterministic, and a
    smaller build is bit-identical to a prefix of a larger one.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n + 1 > DEFAULT_CAPACITY:
        raise CapacityError(
            f"max_n={max_n} needs {max_n + 1} entries, over the budget of "
            f"{DEFAULT_CAPACITY}")
    cum = np.empty(max_n + 1, dtype=np.float64)
    cum[0] = 0.0
    for lo, hi, base, _, prefix in _blocks(max_n):
        cum[lo:hi] = base + prefix
    cum.flags.writeable = False  # tables are shared read-only
    return SpiralTable(max_n=max_n, cum_angle=cum)


@lru_cache(maxsize=12)
def table_for(max_n: int) -> SpiralTable:
    """Shared read-only table for max_n, built once per process."""
    return build_table(max_n)


def exact_cum_angles(ks) -> tuple[dict[int, float], float]:
    """Cumulative angles w(k) at selected indices with the table's bits, from
    one block walk up to max(ks) that stores no table; also w(max(ks)) with
    the block totals carried by bare additions, no compensation, whose gap to
    the compensated w bounds the carry's rounding error."""
    ks = sorted(set(int(k) for k in ks))
    if ks and ks[0] < 0:
        raise ValueError("indices must be >= 0")
    w = {0: 0.0}
    plain = 0.0
    for lo, hi, base, total, prefix in _blocks(ks[-1] if ks else 0, ks):
        for k in ks[bisect_left(ks, lo):bisect_left(ks, hi)]:
            w[k] = base + float(prefix[k - lo])
        plain += total
    return {k: w[k] for k in ks}, plain


def stream_cum_angles(ks) -> dict[int, float]:
    """Cumulative angles w(k) at selected indices without storing a table.

    Blocks are walked only up to K0 = min(max(ks), 2**20), so each k <= K0
    has the table's bits.  Beyond K0, w(k) = w(K0) + T(k) - T(K0) with
    T(k) = 2 sqrt(k) + (7/6) k^-1/2 - (41/120) k^-3/2 + (167/840) k^-5/2, the
    expansion of w less its constant c2; its truncation is below 1e-20, so
    only float rounding (about 1e-16 relative) is left, at O(1) cost.
    """
    ks = sorted(set(int(k) for k in ks))
    k0 = min(ks[-1], TAIL_START) if ks else 0
    w, _ = exact_cum_angles([k for k in ks if k < k0] + [k0])
    r0 = math.sqrt(k0)
    for k in ks:
        if k > k0:
            r = math.sqrt(k)
            # 2 sqrt(k) - 2 sqrt(K0) as 2(k - K0)/(sqrt(k) + sqrt(K0)): no cancelling
            w[k] = w[k0] + (2 * (k - k0) / (r + r0) + (7 / 6) * (1 / r - 1 / r0)
                            - (41 / 120) * (r ** -3 - r0 ** -3)
                            + (167 / 840) * (r ** -5 - r0 ** -5))
    return {k: w[k] for k in ks}


def save_table(table: SpiralTable, path: str) -> None:
    """Persist a table: b"SQSP", version 0x01, u64-LE max_n, float64-LE angles."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(bytes([CACHE_VERSION]))
        fh.write(struct.pack("<Q", table.max_n))
        fh.write(table.cum_angle.astype("<f8", copy=False).tobytes())
    os.replace(tmp, path)


def load_table(path: str, max_n: int) -> SpiralTable:
    """Read the first max_n+1 angles of a cached table, rejecting the cache
    (ValueError) unless its header matches the file size and covers max_n,
    and the prefix starts 0, pi/4 and strictly increases to a finite end."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: not a spiral table cache (bad magic {magic!r})")
        version = fh.read(1)
        if version != bytes([CACHE_VERSION]):
            raise ValueError(f"{path}: unsupported cache version {version!r}")
        (stored_n,) = struct.unpack("<Q", fh.read(8))
        size = os.fstat(fh.fileno()).st_size
        if stored_n < 1 or size != 13 + 8 * (stored_n + 1):
            raise ValueError(f"{path}: header max_n={stored_n} does not match "
                             f"the file size of {size} bytes")
        if not 1 <= max_n <= stored_n:
            raise ValueError(f"{path}: holds max_n={stored_n}, cannot serve "
                             f"max_n={max_n}")
        cum = np.frombuffer(fh.read(8 * (max_n + 1)), dtype="<f8")
    if not (cum[0] == 0.0 and cum[1] == math.pi / 4
            and (cum[1:] > cum[:-1]).all() and math.isfinite(cum[-1])):
        raise ValueError(f"{path}: cached angles are not a valid table")
    return SpiralTable(max_n=max_n, cum_angle=cum)
