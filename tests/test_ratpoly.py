import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqspiral import ratpoly, verify
from sqspiral.arms import canonical_keys, enumerate_arms, parse_group
from sqspiral.ratpoly import QuadraticPoly, limit_spiral_angle, newton_quadratic
from sqspiral.table import table_for

doubled = st.integers(min_value=-60, max_value=60)
positive_doubled = st.integers(min_value=1, max_value=60)


@st.composite
def integer_valued_polys(draw, positive_a=False):
    # a + b is an integer exactly when 2a and 2b share a parity
    a2 = draw(positive_doubled if positive_a else doubled)
    b2 = draw(doubled.filter(lambda b2_: (a2 + b2_) % 2 == 0))
    c = draw(st.integers(min_value=-50, max_value=50))
    return QuadraticPoly(a2, b2, 2 * c)


# --- an independent oracle: the same forms in Fraction arithmetic ----------
def fit_oracle(f1, f2, f3):
    """(a, b, c) of the quadratic through (1, f1), (2, f2), (3, f3), from its
    divided differences."""
    f1, f2, f3 = Fr(f1), Fr(f2), Fr(f3)
    d12, d23 = f2 - f1, f3 - f2
    a = (d23 - d12) / 2
    b = d12 - 3 * a                        # f(2) - f(1) = 3a + b
    return a, b, f1 - a - b


def shift_oracle(a, b, c, s):
    """(a, b, c) of t -> a(t+s)^2 + b(t+s) + c."""
    return a, b + 2 * a * s, c + a * s * s + b * s


def canonical_oracle(a, b, c):
    """The shift of (a, b, c) whose b is b mod 2a, and that shift."""
    s = (b % (2 * a) - b) / (2 * a)
    assert s.denominator == 1
    return shift_oracle(a, b, c, int(s)), int(s)


def str_oracle(a, b, c):
    return (f"{a}*x^2 {'-' if b < 0 else '+'} {abs(b)}*x "
            f"{'-' if c < 0 else '+'} {abs(c)}")


def doubled_of(coeffs):
    return tuple(2 * q for q in coeffs)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6), st.integers(-40, 40))
def test_integer_forms_match_the_fraction_oracle(f1, f2, f3, s):
    coeffs = fit_oracle(f1, f2, f3)
    p = newton_quadratic(f1, f2, f3)
    assert tuple(p) == doubled_of(coeffs)
    a, b, c = coeffs
    assert [p(t) for t in range(-3, 6)] == [a * t * t + b * t + c for t in range(-3, 6)]
    assert tuple(p.shift(s)) == doubled_of(shift_oracle(a, b, c, s))
    assert str(p) == str_oracle(a, b, c)
    if a <= 0:
        with pytest.raises(ValueError):
            p.canonicalize()
        return
    canon, shift = canonical_oracle(a, b, c)
    got, got_shift = p.canonicalize()
    assert (tuple(got), got_shift) == (doubled_of(canon), shift)
    assert str(got) == str_oracle(*canon)
    keys, shifts = canonical_keys(*(np.array([f], dtype=np.int64) for f in (f1, f2, f3)))
    assert (tuple(keys[:, 0].tolist()), shifts.tolist()) == (doubled_of(canon), [shift])


def test_fits_build_no_fraction(monkeypatch):
    """With Fraction unavailable to ratpoly, the Table 3 fits, shifts and texts
    and every arm of div:7 at n = 600 are still made: none of them needs one."""
    def refuse(*args):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(ratpoly, "Fraction", refuse)
    checks = verify.suite_table3()
    assert checks and all(chk.ok for chk in checks)
    arms = enumerate_arms(table_for(600), parse_group("div:7"), 600)
    assert len(arms) > 0
    assert [list(arm.poly) for arm in arms] == arms.cols[:3].T.tolist()
    assert [arm.second_differential for arm in arms] == arms.cols[0].tolist()


def test_construction_takes_ints_only():
    p = QuadraticPoly(np.int64(22), np.int32(44), -22)
    assert tuple(p) == (22, 44, -22)
    assert all(type(q) is int for q in p)
    assert (p.a, p.b, p.c) == (11, 22, -11)
    for bad in (Fr(1, 2), Fr(4), 1.0, "2"):
        with pytest.raises(TypeError):
            QuadraticPoly(bad, 0, 0)


def test_newton_examples():
    assert newton_quadratic(22, 77, 154) == QuadraticPoly(22, 44, -22)
    assert newton_quadratic(1, 16, 49) == QuadraticPoly(18, -24, 8)
    assert newton_quadratic(5, 5, 5) == QuadraticPoly(0, 0, 10)


def test_shift_examples():
    p = QuadraticPoly(22, 44, -22)
    assert p.shift(1) == QuadraticPoly(22, 88, 44)
    assert p.shift(0) == p
    q = QuadraticPoly(19, 57, -38)
    assert q.shift(1) == QuadraticPoly(19, 95, 38)


def test_canonicalize_examples():
    canon, s = QuadraticPoly(18, -24, 8).canonicalize()
    assert (canon, s) == (QuadraticPoly(18, 12, 2), 1)
    canon, s = QuadraticPoly(22, -44, 88).canonicalize()
    assert (canon, s) == (QuadraticPoly(22, 0, 66), 1)
    canon, s = QuadraticPoly(22, 0, 66).canonicalize()
    assert (canon, s) == (QuadraticPoly(22, 0, 66), 0)
    with pytest.raises(ValueError):
        QuadraticPoly(0, 2, 2).canonicalize()


def test_eval_examples():
    p = QuadraticPoly(22, 44, -22)
    assert p(4) == 253
    assert p(0) == p.c
    assert QuadraticPoly(18, 12, 2)(5) == 256


def test_limit_spiral_angle():
    q = limit_spiral_angle(QuadraticPoly(18, 12, 2))
    assert q.angle == pytest.approx(6.0, abs=1e-12)
    assert q.drift == pytest.approx(-0.28319, abs=1e-5)
    assert math.degrees(q.drift) == pytest.approx(-(360 - 3 * 360 / math.pi), abs=1e-4)
    assert not q.degenerate
    assert limit_spiral_angle(10).drift == pytest.approx(0.04137001315717219, abs=1e-12)
    sub = limit_spiral_angle(math.pi ** 2 / 4)
    assert sub.degenerate and sub.drift == 0.0
    with pytest.raises(ValueError):
        limit_spiral_angle(-1.0)


def test_text_form():
    assert str(QuadraticPoly(22, 0, 66)) == "11*x^2 + 0*x + 33"
    assert str(QuadraticPoly(18, -24, 8)) == "9*x^2 - 12*x + 4"
    assert str(QuadraticPoly(19, -19, 38)) == "19/2*x^2 - 19/2*x + 19"


@given(integer_valued_polys())
def test_newton_round_trip(p):
    assert newton_quadratic(int(p(1)), int(p(2)), int(p(3))) == p


@given(integer_valued_polys(), st.integers(-20, 20), st.integers(-20, 20))
def test_shift_composition(p, s, t):
    assert p.shift(s).shift(t) == p.shift(s + t)


@given(integer_valued_polys(positive_a=True), st.integers(-20, 20))
def test_canonical_idempotent_and_shift_invariant(p, s):
    canon, _ = p.canonicalize()
    assert canon.canonicalize()[0] == canon
    assert 0 <= canon.b < 2 * canon.a
    assert p.shift(s).canonicalize()[0] == canon


@given(integer_valued_polys(positive_a=True))
def test_integer_valuedness_and_second_differential(p):
    assert p.is_integer_valued()
    values = [p(t) for t in range(1, 8)]
    assert all(v.denominator == 1 for v in values)
    second = [u - 2 * v + w for u, v, w in zip(values, values[1:], values[2:])]
    assert second == [2 * p.a] * 5


@given(integer_valued_polys(positive_a=True), st.integers(-10, 10))
def test_canonical_start_identity(p, s):
    # canonical forms agree exactly when polynomials generate the same sequence
    q = p.shift(s)
    assert q.canonicalize()[0] == p.canonicalize()[0]
    r = QuadraticPoly(p.a2, p.b2, p.c2 + 2)
    assert r.canonicalize()[0] != p.canonicalize()[0]
