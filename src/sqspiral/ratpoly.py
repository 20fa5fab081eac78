"""Exact rational quadratics: Newton fit, shift, canonical form, text.

Spiral arms are integer sequences generated by a*t^2 + b*t + c with exact
rational (in practice half-integer) coefficients.  Everything here is pure
Fraction arithmetic; floats only appear in the asymptotic spiral angle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .table import TAU, wrap_signed


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QuadraticPoly:
    """a*x^2 + b*x + c with exact rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _rat(self.a))
        object.__setattr__(self, "b", _rat(self.b))
        object.__setattr__(self, "c", _rat(self.c))

    def __call__(self, t) -> Fraction:
        t = _rat(t)
        return self.a * t * t + self.b * t + self.c

    def is_integer_valued(self) -> bool:
        """True iff every value at integer t is an integer (2a, a+b, c integers)."""
        return ((2 * self.a).denominator == 1
                and (self.a + self.b).denominator == 1
                and self.c.denominator == 1)

    def shift(self, s: int) -> "QuadraticPoly":
        """Polynomial q with q(t) = p(t+s)."""
        return QuadraticPoly(self.a, self.b + 2 * self.a * s,
                             self.c + self.a * s * s + self.b * s)

    def canonicalize(self) -> tuple["QuadraticPoly", int]:
        """Shift-equivalent form with b in [0, 2a); unique per value sequence."""
        if self.a <= 0:
            raise ValueError("canonical form needs a > 0 (not an arm polynomial)")
        s = -(self.b // (2 * self.a))
        s = int(s)
        return self.shift(s), s

    @classmethod
    def halves(cls, a2: int, b2: int, c2: int) -> "QuadraticPoly":
        """The polynomial with doubled coefficients (a2, b2, c2)."""
        return cls(Fraction(a2, 2), Fraction(b2, 2), Fraction(c2, 2))

    def doubled(self):
        """(2a, 2b, 2c) as ints, the inverse of `halves`; None if one is not an int."""
        key = (2 * self.a, 2 * self.b, 2 * self.c)
        return None if any(q.denominator != 1 for q in key) else tuple(map(int, key))

    def __str__(self) -> str:
        return poly_str(str(self.a), str(self.b), str(self.c))


def half_strs(doubled) -> list:
    """str(Fraction(q2, 2)) of each int q2 in `doubled`, with no Fraction built."""
    return [f"{q2 >> 1}" if q2 & 1 == 0 else f"{q2}/2" for q2 in doubled]


def poly_str(a: str, b: str, c: str) -> str:
    """str(QuadraticPoly) from the str of its three coefficients."""
    return (f"{a}*x^2 {'- ' + b[1:] if b[0] == '-' else '+ ' + b}*x "
            f"{'- ' + c[1:] if c[0] == '-' else '+ ' + c}")


def newton_quadratic(f1, f2, f3) -> QuadraticPoly:
    """Unique quadratic through (1,f1), (2,f2), (3,f3), by divided differences.

    N(t) = f1 + (t-1)*(f2-f1) + (t-1)(t-2)*(f1 - 2 f2 + f3)/2.
    """
    f1, f2, f3 = _rat(f1), _rat(f2), _rat(f3)
    a = (f1 - 2 * f2 + f3) / 2
    b = (f2 - f1) - 3 * a
    c = f1 - a - b
    return QuadraticPoly(a, b, c)


class SpiralAngle(NamedTuple):
    angle: float      # 2*sqrt(a) mod 2*pi, in [0, 2*pi)
    drift: float      # reduced to (-pi, pi]; 0.0 in the degenerate case
    degenerate: bool  # 2*sqrt(a) lands on a multiple of pi (sub-period alignment)


def limit_spiral_angle(p) -> SpiralAngle:
    """Limiting per-step spiral angle of an arm: 2*sqrt(a) mod 2*pi.

    Accepts a QuadraticPoly or a bare leading coefficient.  The companion
    drift is the same angle reduced to (-pi, pi]; when 2*sqrt(a) falls on a
    multiple of pi the arm re-aligns every other step and the drift is
    reported as 0 with the degenerate flag set.
    """
    a = float(p.a) if isinstance(p, QuadraticPoly) else float(p)
    if a <= 0:
        raise ValueError("limit angle needs a > 0")
    step = 2.0 * math.sqrt(a)
    angle = step % TAU
    drift = wrap_signed(step)
    if abs(abs(drift) - math.pi) < 1e-12 or abs(drift) < 1e-12:
        return SpiralAngle(angle, 0.0, True)
    return SpiralAngle(angle, drift, False)
