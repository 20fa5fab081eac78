import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from sqspiral.ratpoly import QuadraticPoly, limit_spiral_angle, newton_quadratic

halves = st.integers(min_value=-60, max_value=60).map(lambda n: Fr(n, 2))
positive_halves = st.integers(min_value=1, max_value=60).map(lambda n: Fr(n, 2))


def integer_valued(a, b, c):
    return QuadraticPoly(a, b, c).is_integer_valued()


@st.composite
def integer_valued_polys(draw, positive_a=False):
    a = draw(positive_halves if positive_a else halves)
    b = draw(halves.filter(lambda b_: (a + b_).denominator == 1))
    c = draw(st.integers(min_value=-50, max_value=50))
    return QuadraticPoly(a, b, Fr(c))


def test_newton_examples():
    assert newton_quadratic(22, 77, 154) == QuadraticPoly(11, 22, -11)
    assert newton_quadratic(1, 16, 49) == QuadraticPoly(9, -12, 4)
    assert newton_quadratic(5, 5, 5) == QuadraticPoly(0, 0, 5)


def test_shift_examples():
    p = QuadraticPoly(11, 22, -11)
    assert p.shift(1) == QuadraticPoly(11, 44, 22)
    assert p.shift(0) == p
    q = QuadraticPoly(Fr(19, 2), Fr(57, 2), -19)
    assert q.shift(1) == QuadraticPoly(Fr(19, 2), Fr(95, 2), 19)


def test_canonicalize_examples():
    canon, s = QuadraticPoly(9, -12, 4).canonicalize()
    assert (canon, s) == (QuadraticPoly(9, 6, 1), 1)
    canon, s = QuadraticPoly(11, -22, 44).canonicalize()
    assert (canon, s) == (QuadraticPoly(11, 0, 33), 1)
    canon, s = QuadraticPoly(11, 0, 33).canonicalize()
    assert (canon, s) == (QuadraticPoly(11, 0, 33), 0)
    with pytest.raises(ValueError):
        QuadraticPoly(0, 1, 1).canonicalize()


def test_eval_examples():
    p = QuadraticPoly(11, 22, -11)
    assert p(4) == 253
    assert p(0) == p.c
    assert QuadraticPoly(9, 6, 1)(5) == 256


def test_limit_spiral_angle():
    q = limit_spiral_angle(QuadraticPoly(9, 6, 1))
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
    assert str(QuadraticPoly(11, 0, 33)) == "11*x^2 + 0*x + 33"
    assert str(QuadraticPoly(9, -12, 4)) == "9*x^2 - 12*x + 4"
    assert str(QuadraticPoly(Fr(19, 2), Fr(-19, 2), 19)) == "19/2*x^2 - 19/2*x + 19"


@given(integer_valued_polys())
def test_newton_round_trip(p):
    assert newton_quadratic(p(1), p(2), p(3)) == p


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
    values = [p(t) for t in range(1, 8)]
    assert all(v.denominator == 1 for v in values)
    second = [u - 2 * v + w for u, v, w in zip(values, values[1:], values[2:])]
    assert second == [2 * p.a] * 5


@given(integer_valued_polys(positive_a=True), st.integers(-10, 10))
def test_canonical_start_identity(p, s):
    # canonical forms agree exactly when polynomials generate the same sequence
    q = p.shift(s)
    assert q.canonicalize()[0] == p.canonicalize()[0]
    r = QuadraticPoly(p.a, p.b, p.c + 1)
    assert r.canonicalize()[0] != p.canonicalize()[0]
