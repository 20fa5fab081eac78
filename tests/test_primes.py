import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from sqspiral import primes
from sqspiral import arms
from sqspiral.arms import MIN_ARM_LEN, SEED_BLOCK, window_seeds
from sqspiral.primes import (coprime6_check, pnt_baseline, prime_arm_report,
                             scan_prime_polys, scan_csv, sieve)
from sqspiral.ratpoly import QuadraticPoly, newton_quadratic
from sqspiral.table import table_for

from window_oracles import in_window


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_sieve_basics():
    table = sieve(30)
    assert [n for n in range(31) if table.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not table.is_prime(1)
    with pytest.raises(ValueError):
        sieve(1)


def test_sieve_against_trial_division():
    table = sieve(10**4)
    for n in range(10**4 + 1):
        assert table.is_prime(n) == trial_division(n)


def test_sieve_count_1e6():
    # spot-checked against trial division above; the count is the known pi(1e6)
    assert sieve(10**6).count() == 78498


def test_coprime6_examples():
    assert coprime6_check(QuadraticPoly(18, 54, 34))
    assert not coprime6_check(QuadraticPoly(18, 12, 2))    # value 16 at t=1
    assert not coprime6_check(QuadraticPoly(2, 0, 0))
    with pytest.raises(ValueError):
        coprime6_check(QuadraticPoly(1, 0, 0))
    # a shift keeps the values' residues, however far, past 64 bits too
    assert coprime6_check(QuadraticPoly(18, 54, 34).shift(10**30))
    assert not coprime6_check(QuadraticPoly(18, 12, 2).shift(-10**30))


def test_coprime6_integer_values_match_fraction_evaluation():
    # 2a and 2b share a parity exactly when a + b is an integer
    for a2 in range(-3, 7):
        for b2 in range(a2 % 2 - 8, 9, 2):
            for c in range(-6, 7):
                poly = QuadraticPoly(a2, b2, 2 * c)
                values = [int(Fr(a2, 2) * t * t + Fr(b2, 2) * t + c) for t in range(1, 13)]
                assert coprime6_check(poly) == all(v % 2 and v % 3 for v in values)


def test_coprime6_matches_brute_force():
    rows = scan_prime_polys(18, range(-6, 8), 60)
    for row in rows:
        brute = all(int(row.poly(t)) % 2 and int(row.poly(t)) % 3
                    for t in range(1, 1001))
        assert row.coprime6 == brute


def test_scan_contains_published_polys():
    rows = scan_prime_polys(18, range(-10, 20), 100)
    best = {(r.poly.a, r.poly.b, r.poly.c): r for r in rows}
    b3 = best[(Fr(9), Fr(9), Fr(-1))]      # canonical form of 9x^2+27x+17
    assert b3.coprime6 and b3.density > 0.5
    rows22 = scan_prime_polys(22, range(-10, 20), 100)
    k5 = next(r for r in rows22 if r.poly == QuadraticPoly(22, 6, -2))
    assert k5.coprime6


@pytest.mark.parametrize("d", [17, 18])
def test_scan_lists_each_integer_valued_poly_once(d):
    c_range = range(-12, 9)
    rows = scan_prime_polys(d, c_range, 50)
    # canonical 2b in [0, 2D), integer-valued iff D + 2b is even, value >= 1 at t=1
    want = {(b2, c) for b2 in range(2 * d) if (d + b2) % 2 == 0
            for c in c_range if (d + b2) // 2 + c >= 1}
    got = [(2 * r.poly.b, r.poly.c) for r in rows]
    assert len(got) == len(set(got)) and set(got) == want
    for r in rows:
        assert r.poly.a == Fr(d, 2) and r.poly.is_integer_valued()
        assert r.prime_count == sum(trial_division(int(r.poly(t)))
                                    for t in range(1, 51))


@pytest.mark.parametrize("c_range", [range(-10, 20, 5), [7, -3], [7, -3, 7, 0],
                                     range(19, -11, -3)])
def test_scan_takes_exactly_the_given_c(c_range):
    """A stepped range or an unsorted list scans its own values of c, no
    others: the rows are those of one scan per c, ranked together."""
    rows = scan_prime_polys(18, c_range, 60)
    assert {r.poly.c for r in rows} <= set(c_range)
    single = sorted((r for c in set(c_range) for r in scan_prime_polys(18, [c], 60)),
                    key=lambda r: (-r.prime_count, r.poly.b, r.poly.c))
    assert rows == single
    assert len(scan_prime_polys(18, range(-10, 20, 5), 60)) == sum(
        1 for b2 in range(0, 36, 2) for c in range(-10, 20, 5) if (18 + b2) // 2 + c >= 1)


def test_scan_in_blocks_is_one_scan(monkeypatch):
    """Sampling a few values of c at a time (one, seven, or a block that no
    positive row reaches) ranks the same rows as one block for all."""
    whole = scan_prime_polys(18, range(-10, 40), 60)
    for per_block in (1, 7):
        monkeypatch.setattr(primes, "SCAN_BLOCK", per_block * 60)
        assert scan_prime_polys(18, range(-10, 40), 60) == whole
        assert scan_prime_polys(18, range(-10, 40, 3), 60) == [
            r for r in whole if (r.key[2] // 2 + 10) % 3 == 0]
    assert scan_prime_polys(18, [-50, -40], 60) == []


def test_scan_all_even_poly_has_no_primes():
    rows = scan_prime_polys(18, range(2, 3), 60)
    even = next(r for r in rows if r.poly == QuadraticPoly(18, 18, 4))
    assert even.prime_count <= 1


def test_scan_deterministic_ranking():
    a = scan_prime_polys(18, range(-5, 6), 60)
    b = scan_prime_polys(18, range(-5, 6), 60)
    assert [(r.poly, r.prime_count) for r in a] == [(r.poly, r.prime_count) for r in b]
    counts = [r.prime_count for r in a]
    assert counts == sorted(counts, reverse=True)
    with pytest.raises(ValueError):
        scan_prime_polys(18, range(0, 1), 10)
    with pytest.raises(ValueError, match="c range"):
        scan_prime_polys(18, range(5, 2), 60)


def test_prime_arm_report(table2000):
    arms = prime_arm_report(table2000, 2000)
    assert arms, "expected prime-rich arms with second differential 18"
    assert all(a.second_differential == 18 for a in arms)
    assert all(a.density >= 0.6 for a in arms)
    coprime = [a for a in arms if a.coprime6]
    assert coprime
    for arm in coprime:
        assert all(m % 2 and m % 3 for m in arm.members)
    baseline = 3 * pnt_baseline(18, 15)
    assert all(a.density > baseline for a in arms)


def _prime_arms_oracle(table, max_n, density):
    """The earlier prime walk: every D = 18 window seed, no mid-chain
    rejection, `in_window` at each step, and per canonical polynomial the
    longest arm (the first found on a tie)."""
    bitmap = sieve(max_n).bitmap
    found = {}
    for m1, m2, m3 in (seed for seeds in window_seeds(table, np.flatnonzero(bitmap), max_n)
                       for seed in seeds.T.tolist()):
        if m1 - 2 * m2 + m3 != 18:
            continue
        mem, count, end = [m1, m2, m3], 3, 3
        while True:
            nxt = 2 * mem[-1] - mem[-2] + 18
            if nxt > max_n or not in_window(table, mem[-1], nxt):
                break
            prime = bool(bitmap[nxt])
            if (count + prime) / (len(mem) + 1) < density:
                break
            mem.append(nxt)
            if prime:
                count, end = count + 1, len(mem)
        poly, _ = newton_quadratic(m1, m2, m3).canonicalize()
        key = (poly.a, poly.b, poly.c)
        if end >= MIN_ARM_LEN and (key not in found or end > len(found[key][0])):
            found[key] = (tuple(mem[:end]), poly, count, count / end,
                          coprime6_check(poly))
    return sorted(found.values(),
                  key=lambda r: (-r[3], r[1].a, r[1].b, r[1].c))


@pytest.mark.parametrize("density", [0.3, 0.6, 1.0])
@pytest.mark.parametrize("max_n", [300, 2000, 5000])
def test_prime_arm_report_matches_old_walk(monkeypatch, max_n, density):
    """At any seed block size: with blocks of 1 or 7 seeds, a polynomial's
    longest arm and its ties are chosen across block edges (tiny blocks only
    up to n = 2000, blocks of one seed only at n = 300, where they are quick)."""
    table = table_for(5000)
    monkeypatch.setattr(primes, "PRIME_DENSITY", density)
    expected = _prime_arms_oracle(table, max_n, density)
    for block in {300: (SEED_BLOCK, 7, 1), 2000: (SEED_BLOCK, 7), 5000: (SEED_BLOCK,)}[max_n]:
        monkeypatch.setattr(arms, "SEED_BLOCK", block)
        got = [(a.members, a.poly, a.prime_count, a.density, a.coprime6)
               for a in prime_arm_report(table, max_n)]
        assert got == expected, block


def test_scan_csv_shape():
    rows = scan_prime_polys(18, range(-2, 3), 60)
    out = scan_csv(rows)
    assert out.splitlines()[0] == "a,b_hat,c,T,prime_count,density,coprime6"
    assert all(len(line.split(",")) == 7 for line in out.splitlines()[1:])
