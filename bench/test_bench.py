"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest bench/test_bench.py -q

The oracles are tested against plain definitions; the checks are tested on
real sqspiral outputs, unchanged (no problems) and corrupted (problems).
"""
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as chk  # noqa: E402
import oracles as orc  # noqa: E402
from sqspiral import arms, primes, series, table  # noqa: E402


# -- oracles ---------------------------------------------------------------
@pytest.mark.parametrize("k", [0, 1, 2, 3, 100, 65535, 65536, 65537, 140000])
def test_w_many_equals_fsum(k):
    assert orc.w_many([k, 7])[k] == orc.w_fsum(k)


def test_w_many_resumes_from_marks_exactly():
    first = orc.w_many([200000])[200000]
    again = orc.w_many([5, 131073, 200000])
    assert again[200000] == first
    assert again[131073] == orc.w_fsum(131073)


def test_w_first_values():
    assert orc.w_fsum(1) == math.pi / 4
    assert orc.angles_of([1, 2]) == {1: 0.0, 2: math.pi / 4}


def test_is_prime_matches_a_sieve():
    n = 5000
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, 71):
        for q in range(p * p, n + 1, p):
            sieve[q] = False
    assert [orc.is_prime(i) for i in range(n + 1)] == sieve


def test_brute_force_runs_have_the_arm_properties():
    runs = orc.brute_force_arms("div:7", 300)
    assert runs
    angle = orc.angles_of(range(1, 301))
    for run in runs:
        assert len(run) >= 5 and run[0] <= 75
        assert all(m % 7 == 0 for m in run)
        d2 = {x - 2 * y + z for x, y, z in zip(run, run[1:], run[2:])}
        assert len(d2) == 1 and min(d2) > 0
        assert all(orc.window_ok(angle, u, v) for u, v in zip(run, run[1:]))


def test_brute_force_finds_the_published_square_arm():
    runs = orc.brute_force_arms("squares", 400)
    assert (1, 16, 49, 100, 169, 256, 361) in runs


def test_canonical_poly_of_square_arm():
    # 9*t^2 - 12*t + 4 = (3t - 2)^2; canonical b in [0, 18): t -> t + 1.
    a2, b2, c2, t0 = chk.canonical_poly((1, 16, 49, 100, 169))
    assert (a2, b2, c2, t0) == (18, 12, 2, 0)
    assert all((a2 * t * t + b2 * t + c2) // 2 == m
               for t, m in enumerate((1, 16, 49, 100, 169), t0))


# -- checks on real outputs --------------------------------------------------
@pytest.fixture(scope="module")
def tab():
    return table.build_table(25000)


def arm_rows(found):
    return [(a.members, a.poly.a, a.poly.b, a.poly.c, a.start_t) for a in found]


@pytest.fixture(scope="module")
def div7(tab):
    return arms.enumerate_arms(tab, arms.parse_group("div:7"), 500)


def test_correct_arms_pass(div7):
    assert chk.arm_problems("div:7", 500, arm_rows(div7)) == []
    assert chk.brute_force_problems("div:7", 500, [a.members for a in div7]) == []
    assert chk.system_problems(
        "div:7", 500, [(a.direction, a.poly.a, a.poly.b) for a in div7]) == []


def test_dropped_arm_fails(div7):
    runs = [a.members for a in div7[1:]]
    assert chk.brute_force_problems("div:7", 500, runs)
    victim = next(a for a in div7 if a.second_differential == 21)
    kept = [a for a in div7 if (a.direction, a.poly.a, a.b_hat)
            != (victim.direction, victim.poly.a, victim.b_hat)]
    assert chk.system_problems(
        "div:7", 500, [(a.direction, a.poly.a, a.poly.b) for a in kept])


def test_truncated_arm_fails(div7):
    arm = next(a for a in div7 if len(a.members) > 5)
    bad = replace(arm, members=arm.members[:-1])
    assert any("extends forward" in p for p in chk.arm_problems("div:7", 500, arm_rows([bad])))


def test_wrong_member_or_start_fails(div7):
    arm = div7[0]
    moved = replace(arm, members=arm.members[:-1] + (arm.members[-1] + 7,))
    assert chk.arm_problems("div:7", 500, arm_rows([moved]))
    shifted = replace(arm, start_t=arm.start_t + 1)
    assert chk.arm_problems("div:7", 500, arm_rows([shifted]))


def test_perturbed_table_entry_fails(tab):
    good = series.square_angle_series(tab, 150)
    terms = dict(good.terms)
    assert chk.square_angle_problems(terms) == []
    cum = tab.cum_angle.copy()
    cum[151 ** 2 - 1] += 1e-6          # the ray of 151^2
    bad = series.square_angle_series(replace(tab, cum_angle=cum), 150)
    assert chk.square_angle_problems(dict(bad.terms))


def test_prime_arm_check(tab):
    rows = [(a.members, a.poly.a, a.poly.b, a.poly.c, a.prime_count, a.density)
            for a in primes.prime_arm_report(tab, 3000)]
    assert rows and chk.prime_arm_problems(3000, rows, 0.6) == []
    mem, a, b, c, count, density = rows[0]
    assert chk.prime_arm_problems(3000, [(mem, a, b, c, count + 1, density)], 0.6)
    assert chk.prime_arm_problems(3000, [(mem[:-1] + (mem[-1] + 18,), a, b, c,
                                          count, density)], 0.6)


def test_scan_check():
    rows = primes.scan_prime_polys(18, range(-10, 21), 100)
    text = primes.scan_csv(rows)
    assert chk.scan_problems(text, 18, -10, 20, 100) == []
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[5] = ",".join(fields)
    assert chk.scan_problems("\n".join(lines), 18, -10, 20, 100)
    assert chk.scan_problems("\n".join(text.splitlines()[:-1]), 18, -10, 20, 100)
    assert chk.scan_problems(text, 18, -10, 21, 100)


def test_series_checks(tab):
    bands = dict(series.square_band_ratio_series(60).terms)
    assert chk.band_problems(bands) == []
    bands[60] += 1e-6
    assert chk.band_problems(bands)
    fib = dict(series.fib_angle_series(tab, 20).alphas_deg.terms)
    assert chk.fib_angle_problems(fib, 10**6) == []
    fib[7] += 1e-5
    assert chk.fib_angle_problems(fib, 10**6)
    areas = dict(series.fib_area_ratio_series(26).terms)
    assert chk.fib_area_problems(areas) == []
    areas[3] *= 1.0 + 1e-8
    assert chk.fib_area_problems(areas)


def test_crossings_check(tab):
    rep = series.axis_crossings(tab, 6)
    doc = {"crossings": list(rep.crossings), "second_diffs": list(rep.second_diffs)}
    assert chk.crossing_problems(doc) == []
    doc["crossings"][3] += 1
    doc["second_diffs"] = [x - 2 * y + z for x, y, z in
                           zip(doc["crossings"], doc["crossings"][1:], doc["crossings"][2:])]
    assert chk.crossing_problems(doc)


def test_build_and_report_checks():
    n = 20000
    w = table.build_table(n).w(n)
    assert chk.build_problems(f"max_n={n}\nfinal_angle={w:.12f}\n", n) == []
    assert chk.build_problems(f"max_n={n}\nfinal_angle={w + 1e-8:.12f}\n", n)
    ok = "PASS  a: measured=1 expected=1\n1/1 checks passed\n"
    assert chk.verify_report_problems(0, ok) == []
    assert chk.verify_report_problems(1, ok.replace("PASS", "FAIL"))


def test_svg_check():
    doc = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg">'
           '<circle cx="0" cy="0" r="1"/></svg>\n')
    assert chk.svg_problems(doc, doc, 1) == []
    assert chk.svg_problems(doc, doc.replace('r="1"', 'r="2"'), 1)
    assert chk.svg_problems(doc[:-8], doc[:-8], 1)
    assert chk.xml_problems(doc)[1] == [] and chk.xml_problems(doc[:-8])[1]


def test_oracle_angles_match_table(tab):
    ks = [1, 10, 1000, 25000]
    w = orc.w_many(ks)
    assert np.allclose([w[k] for k in ks], [tab.w(k) for k in ks], rtol=0, atol=1e-10)
