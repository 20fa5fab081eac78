"""Primes on the spiral: sieve, prime-rich quadratic scan, arm report.

Primes cannot satisfy an exact quadratic recurrence, so `arms.traced_arms`
walks prime "arms" over composites while the prime share stays >=
PRIME_DENSITY; the classic prime-rich quadratics (second differential 18)
avoid all values divisible by 2 or 3, as `coprime6_check` proves exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .table import SpiralTable
from .ratpoly import QuadraticPoly
from .arms import NumberGroup, members, traced_arms

SIEVE_CAPACITY = 1 << 28
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


@dataclass(frozen=True)
class PolyDensityRow:
    poly: QuadraticPoly
    sample_count: int
    prime_count: int
    coprime6: bool

    @property
    def density(self) -> float:
        return self.prime_count / self.sample_count


def scan_prime_polys(second_differential: int, c_range, sample_count: int = 100
                     ) -> list[PolyDensityRow]:
    """Rank canonical quadratics with the given second differential by prime
    density over t = 1..sample_count.

    Enumerates the integer-valued polynomials, 2b in [0, 2D) with the parity
    of D = second_differential and c over c_range, keeping those with
    positive values; ties in density break on canonical (a, b, c) order.
    """
    if sample_count < 50:
        raise ValueError("sample_count must be >= 50")
    if not c_range:
        raise ValueError(f"scan needs a non-empty c range, got {c_range!r}")
    d = second_differential
    c_lo, c_hi = min(c_range), max(c_range)
    bitmap = sieve(max(d * sample_count * sample_count // 2 + d * sample_count
                       + abs(c_hi) + abs(c_lo) + 1, 2)).bitmap
    t = np.arange(1, sample_count + 1, dtype=np.int64)
    rows = []
    for b2 in range(d % 2, 2 * d, 2):
        # values rise with t (b >= 0), so a row is positive iff its t=1 value is
        base = (d * t * t + b2 * t) // 2
        for c in range(max(c_lo, 1 - int(base[0])), c_hi + 1):
            poly = QuadraticPoly(Fraction(d, 2), Fraction(b2, 2), c)
            rows.append(PolyDensityRow(
                poly=poly, sample_count=sample_count,
                prime_count=int(np.count_nonzero(bitmap[base + c])),
                coprime6=coprime6_check(poly)))
    rows.sort(key=lambda r: (-r.prime_count, r.poly.b, r.poly.c))
    return rows


def pnt_baseline(second_differential: int, sample_count: int) -> float:
    """Prime-number-theorem density of primes near a*T^2."""
    a = second_differential / 2
    return 1.0 / math.log(a * sample_count * sample_count)


@dataclass(frozen=True)
class PrimeArm:
    members: tuple
    poly: QuadraticPoly           # canonical
    prime_count: int
    density: float
    coprime6: bool

    @property
    def second_differential(self) -> int:
        return int(2 * self.poly.a)


def prime_arm_report(table: SpiralTable, max_n: int) -> list[PrimeArm]:
    """Prime-rich arms: `traced_arms` at PRIME_DENSITY from the window-
    consistent prime triples with m1 <= max_n/4 and second differential 18.
    The longest arm per canonical polynomial is kept (the first on a tie);
    arms rank by density, then polynomial.  No primes below 2, no arms.
    """
    ps = members(NumberGroup("primes"), max_n)
    primeset = set(ps)
    found = []
    for arm in traced_arms(table, ps, max_n, PRIME_DENSITY,
                           second_differential=18, longest=True):
        mem, poly = arm.members, arm.poly
        count = sum(m in primeset for m in mem)
        found.append(PrimeArm(
            members=mem, poly=poly, prime_count=count,
            density=count / len(mem), coprime6=coprime6_check(poly)))
    return sorted(found, key=lambda r: (-r.density, r.poly.a, r.poly.b, r.poly.c))


def scan_csv(rows) -> str:
    lines = ["a,b_hat,c,T,prime_count,density,coprime6"]
    for r in rows:
        lines.append(f"{r.poly.a},{r.poly.b},{r.poly.c},{r.sample_count},"
                     f"{r.prime_count},{r.density:.6f},{str(r.coprime6).lower()}")
    return "\n".join(lines) + "\n"
