"""Primes on the spiral: sieve, prime-rich quadratic scan, arm report.

Primes cannot satisfy an exact quadratic recurrence, so `arms.traced_arms`
walks prime "arms" over composites while the prime share stays >=
PRIME_DENSITY; the classic prime-rich quadratics (second differential 18)
avoid all values divisible by 2 or 3, as `coprime6_check` proves exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .table import SpiralTable
from .ratpoly import QuadraticPoly, half_strs
from .arms import arm_columns, traced_arms

SIEVE_CAPACITY = 1 << 28
SCAN_BLOCK = 1 << 20          # polynomial values a scan samples at a time
PRIME_DENSITY = 0.6           # least prime share of a prime arm


@dataclass(frozen=True)
class PrimalityTable:
    max_n: int
    bitmap: np.ndarray

    def is_prime(self, n: int) -> bool:
        return bool(self.bitmap[n])

    def count(self) -> int:
        return int(self.bitmap.sum())


def sieve(max_n: int) -> PrimalityTable:
    """Eratosthenes bitmap for 0..max_n; a size over the budget is refused."""
    if max_n < 2:
        raise ValueError("sieve needs max_n >= 2")
    if max_n > SIEVE_CAPACITY:
        raise ValueError(f"sieve of {max_n} exceeds budget {SIEVE_CAPACITY}")
    bm = np.ones(max_n + 1, dtype=bool)
    bm[:2] = False
    for p in range(2, math.isqrt(max_n) + 1):
        if bm[p]:
            bm[p * p:: p] = False
    return PrimalityTable(max_n=max_n, bitmap=bm)


def coprime6_check(poly: QuadraticPoly) -> bool:
    """True iff no value of the polynomial is divisible by 2 or 3.

    Exact residue analysis: values of an integer-valued quadratic with
    half-integer coefficients repeat mod 2 with period 4 and mod 3 with
    period 12, so t = 1..12 covers every residue class.
    """
    if not poly.is_integer_valued():
        raise ValueError("coprime6_check needs an integer-valued polynomial")
    a2, b2, c2 = (2 * q.numerator // q.denominator for q in (poly.a, poly.b, poly.c))
    values = ((a2 * t * t + b2 * t + c2) // 2 for t in range(1, 13))
    return all(v % 2 and v % 3 for v in values)


def _coprime6(values: np.ndarray) -> np.ndarray:
    """Per column of `values`, an integer-valued quadratic's values at
    t = 1..12 down the rows: True iff none is divisible by 2 or 3."""
    return ((values % 2 != 0) & (values % 3 != 0)).all(axis=0)


@dataclass(frozen=True, slots=True)
class PolyDensityRow:
    key: tuple                    # the canonical polynomial's (D, 2b, 2c)
    sample_count: int
    prime_count: int
    coprime6: bool

    @property
    def poly(self) -> QuadraticPoly:
        return QuadraticPoly.halves(*self.key)

    @property
    def density(self) -> float:
        return self.prime_count / self.sample_count


def scan_prime_polys(second_differential: int, c_range, sample_count: int = 100
                     ) -> list[PolyDensityRow]:
    """Rank canonical quadratics with the given second differential by prime
    density over t = 1..sample_count.

    Enumerates the integer-valued polynomials, 2b in [0, 2D) with the parity
    of D = second_differential and c over the distinct values of c_range,
    keeping those with positive values; ties in density break on canonical
    (a, b, c) order.  The values are sampled SCAN_BLOCK at a time.
    """
    if sample_count < 50:
        raise ValueError("sample_count must be >= 50")
    cs = np.sort(np.fromiter(c_range, dtype=np.int64))
    cs = cs[np.diff(cs, prepend=cs[:1] - 1) != 0]  # np.unique would import numpy.ma
    if not cs.size:
        raise ValueError(f"scan needs a non-empty c range, got {c_range!r}")
    d = second_differential
    bitmap = sieve(max(d * sample_count * sample_count // 2 + d * sample_count
                       + abs(int(cs[-1])) + abs(int(cs[0])) + 1, 2)).bitmap
    t = np.arange(1, sample_count + 1, dtype=np.int64)[:, None]
    step, cols = max(1, SCAN_BLOCK // sample_count), []
    for b2 in range(d % 2, 2 * d, 2):
        # values rise with t (b >= 0), so a row is positive iff its t=1 value is
        base = (d * t * t + b2 * t) // 2
        for i in range(0, cs.size, step):
            c = cs[i:i + step]
            c = c[c >= 1 - base[0, 0]]
            cols.append((np.full(c.size, b2), 2 * c,
                         np.count_nonzero(bitmap[base + c], axis=0), _coprime6(base[:12] + c)))
    b2, c2, count, ok = map(np.concatenate, zip(*cols))
    order = np.lexsort((c2, b2, -count))
    return [PolyDensityRow((d, b, c), sample_count, n, y) for b, c, n, y in
            zip(*(col[order].tolist() for col in (b2, c2, count, ok)))]


def pnt_baseline(second_differential: int, sample_count: int) -> float:
    """Prime-number-theorem density of primes near a*T^2."""
    a = second_differential / 2
    return 1.0 / math.log(a * sample_count * sample_count)


@dataclass(frozen=True, slots=True)
class PrimeArm:
    members: tuple
    key: tuple                    # the canonical polynomial's (D, 2b, 2c)
    prime_count: int
    density: float
    coprime6: bool

    @property
    def poly(self) -> QuadraticPoly:
        return QuadraticPoly.halves(*self.key)

    @property
    def second_differential(self) -> int:
        return self.key[0]


def prime_arm_report(table: SpiralTable, max_n: int) -> list[PrimeArm]:
    """Prime-rich arms: `traced_arms` at PRIME_DENSITY from the window-
    consistent prime triples with m1 <= max_n/4 and second differential 18.
    The longest arm per canonical polynomial is kept (the first on a tie);
    arms rank by density, then polynomial.  No primes below 2, no arms.
    """
    if max_n < 2:
        return []
    bitmap = sieve(max_n).bitmap
    arms = traced_arms(table, np.flatnonzero(bitmap), max_n, PRIME_DENSITY,
                       second_differential=18, longest=True)
    dd, b2, c2, size, count = arm_columns(arms, bitmap)
    density, t = count / size, np.arange(1, 13)[:, None]
    ok = _coprime6((dd * t * t + b2 * t + c2) // 2)
    order = np.lexsort((c2, b2, dd, -density)).tolist()
    return [PrimeArm(m, (d, b, c), n, x, y) for m, d, b, c, n, x, y in
            zip(arms.member_tuples(order),
                *(col[order].tolist() for col in (dd, b2, c2, count, density, ok)))]


def scan_csv(rows) -> str:
    return "a,b_hat,c,T,prime_count,density,coprime6\n" + "".join(
        f"{','.join(half_strs(r.key))},{r.sample_count},{r.prime_count},"
        f"{r.density:.6f},{str(r.coprime6).lower()}\n" for r in rows)


def arm_report_csv(arms) -> str:
    return "a,b_hat,c,len,prime_count,density,coprime6,members\n" + "".join(
        f"{','.join(half_strs(a.key))},{len(a.members)},{a.prime_count},{a.density:.4f},"
        f"{str(a.coprime6).lower()},{' '.join(map(str, a.members))}\n" for a in arms)
