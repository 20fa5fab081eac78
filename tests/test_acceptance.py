"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (or `sqspiral verify all` for
the same checks through the CLI).
"""
import hashlib
import threading
import time

import pytest

from sqspiral import published, verify
from sqspiral.constants import c2_extrapolate
from sqspiral.table import build_table, table_for
from sqspiral.svg import render_svg

#: SHA-256 of the `verify all` report, frozen before the engines were merged.
VERIFY_ALL_SHA256 = "0dc39200b6aa449249b3e057d47af19fb2ff8cd5a6fa1c1a25765fda2a8651a7"


@pytest.fixture(scope="module")
def suites():
    return {name: verify.run_suite(name) for name in verify.SUITES}


def _assert_all(label, checks):
    failed = [c for c in checks if not c.ok]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {label}: {status} ({len(checks) - len(failed)}/{len(checks)} checks)")
    for c in failed:
        print(f"  FAIL {c.name}: measured={c.measured} expected={c.expected} "
              f"tol={c.tol} {c.note}")
    assert not failed


def test_criterion_01_spiral_constant(suites):
    t0 = time.perf_counter()
    table = build_table(10**7)
    c2 = c2_extrapolate({k: table.w(k) for k in [10**4, 10**5, 10**6, 10**7]})
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 1 timing: build(1e7)+extrapolate in {elapsed:.2f}s")
    assert elapsed < 30.0
    assert abs(c2 - published.C2) <= 1e-8
    _assert_all("1 (spiral constant)", [c for c in suites["constants"]
                                        if c.name.startswith("constants.c2")])


def test_criterion_02_winding_distance_table(suites):
    _assert_all("2 (winding-distance table)", suites["table1"])


def test_criterion_03_band_area_ratios(suites):
    _assert_all("3 (band-area ratios)", suites["fig7"])


def test_criterion_04_angle_limits(suites):
    _assert_all("4 (angle limits)", suites["fig15"])


def test_criterion_05_polynomial_tables(suites):
    _assert_all("5 (polynomial tables)", suites["table3"])


def test_criterion_06_arm_discovery(suites):
    verify._cached_arm_reports.cache_clear()
    t0 = time.perf_counter()
    verify._cached_arm_reports()
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 6 timing: all-group enumeration in {elapsed:.2f}s")
    assert elapsed < 60.0
    _assert_all("6 (arm discovery)", suites["table2"])


def test_criterion_07_system_counting_rule(suites):
    _assert_all("7 (system-counting rule)", suites["rule52"])


def test_criterion_08_fibonacci_constants(suites):
    _assert_all("8 (Fibonacci constants)", suites["fib"])


def test_criterion_09_axis_crossings(suites):
    _assert_all("9 (axis crossings)", suites["fig16"])


def test_criterion_10_prime_polynomials(suites):
    _assert_all("10 (prime polynomials)", suites["primes"])


def test_criterion_11_determinism(suites):
    first = verify.render_report(verify.run_suite("all"))
    table_for.cache_clear()
    verify._cached_arm_reports.cache_clear()
    second = verify.render_report(verify.run_suite("all"))
    same = first == second
    table = table_for(400)
    svg_same = render_svg(table, 300) == render_svg(table, 300)
    print(f"ACCEPTANCE 11 (determinism): {'PASS' if same and svg_same else 'FAIL'}")
    assert same and svg_same


def test_golden_verify_all_report(suites):
    report = verify.render_report([c for name in verify.SUITES for c in suites[name]])
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_run_all_is_every_suite_in_order(suites):
    before = threading.active_count()
    checks = verify.run_suite("all")
    assert threading.active_count() == before
    assert checks == [c for name in verify.SUITES for c in suites[name]]


def test_run_all_walks_on_a_second_thread_and_one_suite_inline(monkeypatch):
    walked_on = []
    walk = verify.exact_cum_angles
    monkeypatch.setattr(verify, "exact_cum_angles",
                        lambda ks: walked_on.append(threading.current_thread()) or walk(ks))
    verify.run_suite("constants")
    verify.run_suite("all")
    assert walked_on[0] is threading.main_thread()
    assert walked_on[1] is not threading.main_thread()


def test_run_all_raises_the_walk_error_and_leaves_no_thread(monkeypatch):
    error = ArithmeticError("walk failed")

    def failing_walk(ks):
        raise error

    monkeypatch.setattr(verify, "exact_cum_angles", failing_walk)
    before = threading.enumerate()
    with pytest.raises(ArithmeticError) as raised:
        verify.run_suite("all")
    assert raised.value is error
    assert threading.enumerate() == before


def test_run_all_joins_the_walk_when_a_suite_fails(monkeypatch):
    def failing_suite():
        raise LookupError("suite failed")

    monkeypatch.setitem(verify._SUITE_FUNCS, "table1", failing_suite)  # the walk still runs
    before = threading.enumerate()
    with pytest.raises(LookupError, match="suite failed"):
        verify.run_suite("all")
    assert threading.enumerate() == before
