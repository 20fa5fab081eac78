"""Half-integer quadratics: Newton fit, shift, canonical form, text.

Spiral arms are integer sequences generated by a*t^2 + b*t + c; a quadratic
through three integers at consecutive t has half-integer coefficients, so it is
held as the doubled integer key (2a, 2b, 2c) and every operation here is integer
arithmetic.  Floats only appear in the asymptotic spiral angle.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .table import TAU, wrap_signed


@dataclass(frozen=True)
class QuadraticPoly:
    """a*x^2 + b*x + c held as its doubled coefficients, the ints a2 = 2a,
    b2 = 2b and c2 = 2c; tuple(poly) is the key (a2, b2, c2)."""

    a2: int
    b2: int
    c2: int

    def __post_init__(self):
        for name in ("a2", "b2", "c2"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    def __iter__(self):
        return iter((self.a2, self.b2, self.c2))

    a = property(lambda self: Fraction(self.a2, 2))
    b = property(lambda self: Fraction(self.b2, 2))
    c = property(lambda self: Fraction(self.c2, 2))

    def __call__(self, t) -> Fraction:
        return Fraction(self.a2 * t * t + self.b2 * t + self.c2, 2)

    def is_integer_valued(self) -> bool:
        """True iff every value at integer t is an integer: a2 + b2 and c2 are even."""
        return (self.a2 + self.b2) % 2 == 0 and self.c2 % 2 == 0

    def shift(self, s: int) -> "QuadraticPoly":
        """Polynomial q with q(t) = p(t+s)."""
        a2, b2 = self.a2, self.b2
        return QuadraticPoly(a2, b2 + 2 * a2 * s, self.c2 + a2 * s * s + b2 * s)

    def canonicalize(self) -> tuple["QuadraticPoly", int]:
        """Shift-equivalent form with b in [0, 2a); unique per value sequence."""
        if self.a2 <= 0:
            raise ValueError("canonical form needs a > 0 (not an arm polynomial)")
        s = -(self.b2 // (2 * self.a2))
        return self.shift(s), s

    def __str__(self) -> str:
        return poly_str(*half_strs(self))


def half_strs(doubled) -> list:
    """str(Fraction(q2, 2)) of each int q2 in `doubled`, with no Fraction built."""
    return [f"{q2 >> 1}" if q2 & 1 == 0 else f"{q2}/2" for q2 in doubled]


def poly_str(a: str, b: str, c: str) -> str:
    """str(QuadraticPoly) from the str of its three coefficients."""
    return (f"{a}*x^2 {'- ' + b[1:] if b[0] == '-' else '+ ' + b}*x "
            f"{'- ' + c[1:] if c[0] == '-' else '+ ' + c}")


def newton_quadratic(f1: int, f2: int, f3: int) -> QuadraticPoly:
    """Unique quadratic through (1,f1), (2,f2), (3,f3), by divided differences.

    N(t) = f1 + (t-1)*(f2-f1) + (t-1)(t-2)*(f1 - 2 f2 + f3)/2, doubled.
    """
    a2 = f1 - 2 * f2 + f3
    b2 = 2 * (f2 - f1) - 3 * a2
    return QuadraticPoly(a2, b2, 2 * f1 - a2 - b2)


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
    a = p.a2 / 2 if isinstance(p, QuadraticPoly) else float(p)
    if a <= 0:
        raise ValueError("limit angle needs a > 0")
    step = 2.0 * math.sqrt(a)
    angle = step % TAU
    drift = wrap_signed(step)
    if abs(abs(drift) - math.pi) < 1e-12 or abs(drift) < 1e-12:
        return SpiralAngle(angle, 0.0, True)
    return SpiralAngle(angle, drift, False)
