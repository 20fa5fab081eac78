"""Verification suites reproducing the published tables and figures.

Every suite returns a list of Check rows; the CLI prints one PASS/FAIL line
per check.  Reports are byte-stable: values are formatted with fixed
precision and nothing time- or environment-dependent is printed (the one
runtime budget check reports only its verdict).
"""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import published as pub
from .table import TAU, build_table, exact_cum_angles, table_for, wrap_signed
from .constants import (archimedean_radius, c2_estimate, c2_extrapolate,
                        winding_averages, winding_distance_table)
from .ratpoly import QuadraticPoly, half_strs, newton_quadratic, poly_str
from .arms import (b_hat_lattice_ok, canonical_keys, classify_systems, enumerate_arms,
                   find_arms, in_window, parse_group)
from .series import (DEG, GOLDEN, axis_crossings, fib_angle_series_streaming,
                     fib_area_ratio_series, same_arm_angle_series,
                     square_angle_series, square_band_closed_form,
                     square_band_ratio_series)
from . import primes as pr

SUITES = ("constants", "table1", "fig7", "fig15", "table2", "table3",
          "rule52", "fib", "fig16", "primes")

#: Deep-ratio index for the Fibonacci constants (F_42 ~ 4.3e8, past any table).
FIB_DEEP_K = 40
#: Enumeration bound for arm discovery suites.
ARMS_MAX_N = 600
ARMS_MAX_N_17 = 800
#: Indices of c2's Richardson extrapolation, read from one block walk.
C2_KS = (10**4, 10**5, 10**6, 10**7)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    measured: str
    expected: str
    tol: str = ""
    note: str = ""


def _num(x: float) -> str:
    return f"{x:.9g}"


def _chk(name, measured, expected, tol, note="") -> Check:
    """Numeric check |measured - expected| <= tol."""
    ok = abs(measured - expected) <= tol
    return Check(name, ok, _num(measured), _num(expected), _num(tol), note)


def _flag(name, ok, measured, expected, note="") -> Check:
    return Check(name, ok, str(measured), str(expected), "", note)


# --------------------------------------------------------------------------
def _c2_walk():
    """One block walk, no table: the table's bits at each of C2_KS, the plain
    carry, and the walk's seconds."""
    t0 = time.perf_counter()
    w, plain = exact_cum_angles(C2_KS)
    return w, plain, time.perf_counter() - t0


def suite_constants(walk=None) -> list[Check]:
    """The constants checks; `walk` is `_c2_walk()`'s result if it ran already."""
    w, plain, elapsed = walk or _c2_walk()
    c2 = c2_extrapolate(w)
    table = table_for(10**5)  # a prefix of any larger build, bit for bit
    out = [
        _chk("constants.c2_extrapolated", c2, pub.C2, 1e-8,
             "Richardson over k = 1e4..1e7"),
        Check("constants.c2_runtime_budget", elapsed < 30.0, "within budget",
              "under 30 s", note="elapsed not printed (byte-stable reports)"),
        _chk("constants.c2_at_1", c2_estimate(1, table.w(1)), math.pi / 4 - 2, 1e-12),
        _chk("constants.c2_at_1e6", c2_estimate(10**6, w[10**6]), pub.C2, 2e-3),
    ]
    est = table.cum_angle[1: 10**5 + 1] - 2.0 * np.sqrt(np.arange(1, 10**5 + 1))
    decreasing = bool(np.all(np.diff(est) < 0))
    out.append(_flag("constants.c2_strictly_decreasing_1e5", decreasing,
                     decreasing, True, "c2(k) scan over k <= 1e5"))
    out.append(_chk("constants.archimedean_intercept",
                    archimedean_radius(0.0, pub.C2),
                    pub.ARCHIMEDEAN_INTERCEPT, 1e-9))
    ns = np.arange(100, 10**4 + 1)
    pred = 0.5 * table.cum_angle[ns - 1] - 0.5 * c2
    worst = float(np.max(np.abs(pred - np.sqrt(ns))))
    out.append(_chk("constants.archimedean_radius_error_100_1e4", worst, 0.0, 0.01,
                    "max |r(angle_of(n)) - sqrt(n)|"))
    out.append(_chk("constants.archimedean_at_1e4",
                    abs(0.5 * table.angle_of(10**4) - 0.5 * c2 - 100.0), 0.0, 1e-3))
    n = 10.0**12
    closed = 2.0 / (math.sqrt(1.0 + 1.0 / n) + 1.0)
    out.append(_chk("constants.delta_r_normalized_at_1e12", closed, 1.0, 1e-6,
                    "(sqrt(n+1)-sqrt(n)) * 2*sqrt(n), closed form"))
    out.append(_chk("constants.summation_mode_gap_1e7",
                    abs(w[10**7] - plain), 0.0, 1e-10,
                    "compensated vs plain carry"))
    rows = winding_distance_table(table_for(30000), probes=range(1, 26000))
    avgs = winding_averages(rows)
    per = [abs(avgs[w] - math.pi) for w in range(10, 51)]
    # Python's sum adds in row order; np.sum's pairwise sum has other bits
    pooled = rows.distance[(10 <= rows.winding) & (rows.winding <= 50)].tolist()
    out.append(_chk("constants.winding_mean_pooled_10_50",
                    sum(pooled) / len(pooled), math.pi, 2e-4))
    out.append(_chk("constants.winding_mean_per_winding_10_50", max(per), 0.0, 4e-4,
                    "per-winding means carry ~2.5e-4 argmin quantization noise"))
    return out


# --------------------------------------------------------------------------
def suite_table1() -> list[Check]:
    table = table_for(400)
    out = []
    rows = winding_distance_table(table, probes=[n for n, _, _ in pub.TABLE1_ROWS])
    for n, m, printed in pub.TABLE1_ROWS:
        dist = math.sqrt(m) - math.sqrt(n)
        out.append(_chk(f"table1.distance_{n}_{m}", dist, printed, 1e-5))
    matches = int(np.count_nonzero(rows.m == [m for _, m, _ in pub.TABLE1_ROWS]))
    rate = matches / len(pub.TABLE1_ROWS)
    out.append(_flag("table1.pair_rederivation_rate", rate >= 0.9,
                     f"{matches}/{len(pub.TABLE1_ROWS)}", ">= 90%",
                     "independent argmin successor search"))
    avgs = winding_averages(rows, fold_at=pub.TABLE1_FOLD_AT)
    for w, printed in sorted(pub.TABLE1_WINDING_AVGS.items()):
        out.append(_chk(f"table1.winding_avg_{w}", avgs[w], printed, 1e-6,
                        "windings >= 5 pool into the last published group"))
    offblock = int(np.count_nonzero(rows.winding > pub.TABLE1_FOLD_AT))
    out.append(_flag("table1.rows_past_winding5", True, offblock, "reported",
                     "rays just past five turns, pooled by the published table"))
    return out


# --------------------------------------------------------------------------
def suite_fig7() -> list[Check]:
    series = square_band_ratio_series(501)
    out = [_chk(f"fig7.ratio_M{m}", series.value(m), printed, 1e-7)
           for m, printed in sorted(pub.FIG7_RATIOS.items())]
    out.append(_chk("fig7.ratio_M500_near_1", series.value(500), 1.0, 5e-3))
    worst = max(abs(series.value(m) - square_band_closed_form(m))
                for m in range(10, 501))
    out.append(_chk("fig7.closed_form_gap_M10_500", worst, 0.0, 1e-3,
                    "(3M^2+9M+7)/(3M^2+3M+1)"))
    return out


# --------------------------------------------------------------------------
def suite_fig15() -> list[Check]:
    table = build_table(1010000)  # read by this suite alone: not kept by table_for
    series = same_arm_angle_series(table, 300)
    out = []
    for r, printed in sorted(pub.FIG15_DIFFS.items()):
        out.append(_chk(f"fig15.same_arm_angle_r{r}", series.value(r), printed, 0.01,
                        "degrees"))
    out.append(_chk("fig15.same_arm_angle_r1", series.value(1),
                    pub.FIG15_CUM_ANGLES[1], 1e-4, "degrees"))
    cum = 0.0
    roots = (1, 4, 7, 10, 13)
    worst = 0.0
    for idx, r in enumerate(roots, 1):
        cum += series.value(r)
        worst = max(worst, abs(cum - pub.FIG15_CUM_ANGLES[idx]))
    out.append(_chk("fig15.cumulative_angle_column", worst, 0.0, 0.01,
                    "published column is the running same-arm angle sum"))
    out.append(_chk("fig15.same_arm_trend_r300", series.value(300),
                    pub.SAME_ARM_LIMIT_DEG, 1e-3, "degrees"))
    steps = [series.value(r + 1) - series.value(r) for r in range(5, 300)]
    out.append(_flag("fig15.same_arm_monotone_after_5",
                     all(s < 1e-9 for s in steps), all(s < 1e-9 for s in steps),
                     True))
    sq = square_angle_series(table, 1000)
    out.append(_chk("fig15.square_angle_limit_k1000", sq.value(1000), 2.0, 1e-3,
                    "radians"))
    sq_steps = [sq.value(k + 1) - sq.value(k) for k in range(5, 1000)]
    out.append(_flag("fig15.square_angle_monotone_after_5",
                     all(s > -1e-9 for s in sq_steps),
                     all(s > -1e-9 for s in sq_steps), True))
    out.append(_chk("fig15.square_angle_limit_deg",
                    2.0 * DEG, 114.5916, 1e-4, "360/pi degrees"))
    return out


# --------------------------------------------------------------------------
@lru_cache(maxsize=1)
def _cached_arm_reports():
    reports = {}
    for spec in ("div:2", "div:3", "div:5", "div:7", "div:11", "div:13",
                 "div:17", "div:19", "squares"):
        group = parse_group(spec)
        max_n = ARMS_MAX_N_17 if spec == "div:17" else ARMS_MAX_N
        table = table_for(max_n)
        arms = enumerate_arms(table, group, max_n)
        reports[spec] = classify_systems(arms, group, max_n)
    return reports


def suite_table2() -> list[Check]:
    reports = _cached_arm_reports()
    out = []
    for spec, systems in pub.TABLE2.items():
        report = reports[spec]
        table = table_for(report.max_n)
        firsts = np.array([seq[:3] for seq in systems.values()], dtype=np.int64)
        keys = list(map(tuple, canonical_keys(*firsts.T)[0].T.tolist()))
        found = find_arms(report.arms, keys)
        for (name, seq), key, arm in zip(systems.items(), keys, found):
            if arm is None:
                out.append(_flag(f"table2.{spec}.{name}", False, "not found",
                                 poly_str(*half_strs(key))))
                continue
            # reachable by winding-window tracing: the members after the last step out
            fails = ~in_window(np.diff(table.cum_angle[np.array(seq) - 1]))
            reachable = list(seq[max(np.flatnonzero(fails) + 1, default=0):])
            mem = arm.members
            contained = all(m in mem for m in reachable)
            want_dir = pub.system_direction(name)
            ok = contained and len(reachable) >= 3 and arm.direction == want_dir
            dropped = [m for m in seq if m not in mem]
            note = f"window drops {dropped}" if dropped else ""
            out.append(_flag(f"table2.{spec}.{name}", ok,
                             f"dir={arm.direction} len={len(mem)}",
                             f"dir={want_dir} contains {reachable}", note))
    systems17 = reports["div:17"].systems
    for direction in ("N", "P"):
        got = len(systems17.get((direction, 17), ()))
        out.append(_flag(f"table2.div17_single_{direction}_family", got == 1, got, 1,
                         "families with the published second differential"))
    return out


# --------------------------------------------------------------------------
def suite_table3() -> list[Check]:
    out = []
    bad = 0
    total = 0
    for group, system, seq, polys in pub.TABLE3_ROWS:
        f1 = newton_quadratic(*seq[:3])
        for j, printed in enumerate(polys, 1):
            total += 1
            fitted = newton_quadratic(*seq[j - 1: j + 2])
            shifted = f1.shift(j - 1)
            printed_poly = QuadraticPoly(*printed)
            corrected = pub.MISPRINTS.get((group, system, j))
            if corrected is not None:
                target = QuadraticPoly(*corrected)
                ok = fitted == shifted == target and printed_poly != target
                if not ok:
                    bad += 1
                out.append(_flag(f"table3.{group}.{system}.f{j}", ok,
                                 str(fitted), str(target),
                                 f"printed {printed_poly} is inconsistent "
                                 f"(f{j}(1) != {seq[j - 1]}); corrected"))
            else:
                ok = fitted == printed_poly == shifted
                if not ok:
                    bad += 1
                    out.append(_flag(f"table3.{group}.{system}.f{j}", ok,
                                     str(fitted), str(printed_poly)))
    out.insert(0, _flag("table3.all_polynomials_reproduced", bad == 0,
                        f"{total - bad}/{total}", f"{total}/{total}",
                        "Newton fit == printed cell == shift of f1"))
    n1 = newton_quadratic(22, 77, 154)
    out.append(_flag("table3.exemplary_11x2_22x_m11",
                     n1 == QuadraticPoly(22, 44, -22), str(n1),
                     "11*x^2 + 22*x - 11"))
    q1 = newton_quadratic(1, 16, 49)
    out.append(_flag("table3.square_graph_poly", q1 == QuadraticPoly(*pub.FIG15_POLY),
                     str(q1), "9*x^2 - 12*x + 4"))
    return out


# --------------------------------------------------------------------------
def suite_rule52() -> list[Check]:
    reports = _cached_arm_reports()
    out = []
    for p, directions, count, dd in pub.RULE52_ROWS:
        report = reports[f"div:{p}"]
        ok = True
        counts = []
        for d in directions:
            b2s = report.systems.get((d, dd), ())
            counts.append(len(b2s))
            ok &= len(b2s) == count and b_hat_lattice_ok(b2s, dd, p)
        label = "N or P" if directions == "NP" else directions
        out.append(_flag(f"rule52.{p}x{count}_{label}", ok,
                         f"{p} x {'/'.join(map(str, counts))} (lattice ok: {ok})",
                         f"{p} x {count} = {dd}"))
    systems = reports["squares"].systems
    d, count, dd = pub.SQUARES_SYSTEMS
    got = len(systems.get((d, dd), ()))
    out.append(_flag("rule52.squares_positive_systems", got == count, got, count,
                     "Q1-Q3; second differential 18"))
    out.append(_flag("rule52.squares_no_negative_systems",
                     ("N", dd) not in systems, "absent", "absent",
                     "no N family shares the square-number differential"))
    return out


# --------------------------------------------------------------------------
def suite_fib() -> list[Check]:
    fib = fib_angle_series_streaming(FIB_DEEP_K + 1)
    out = []
    for k, printed in enumerate(pub.FIB_ALPHAS_DEG, 1):
        out.append(_chk(f"fib.alpha{k}", fib.alphas_deg.value(k), printed, 0.02,
                        "degrees"))
    lo, hi = pub.SAW_BRACKET
    for k in (9, 10):
        r = fib.step_ratios.value(k)
        out.append(_flag(f"fib.step_ratio_in_bracket_k{k}", lo < r < hi,
                         _num(r), f"({lo}, {hi})",
                         "last ratios measurable on a ~300-ray drawing"))
    out.append(_chk(f"fib.step_ratio_k{FIB_DEEP_K}",
                    fib.step_ratios.value(FIB_DEEP_K), math.sqrt(GOLDEN), 1e-6,
                    f"published conjecture {pub.SAW_CONJECTURE}"))
    areas = fib_area_ratio_series(FIB_DEEP_K)
    for k, printed in enumerate(pub.FIG14B_RATIOS, 1):
        out.append(_chk(f"fib.area_ratio_{k + 1}_{k}", areas.value(k), printed, 1e-5))
    out.append(_chk(f"fib.area_ratio_k{FIB_DEEP_K}", areas.value(FIB_DEEP_K),
                    GOLDEN * math.sqrt(GOLDEN), 1e-6,
                    f"published conjecture {pub.ARC_CONJECTURE}"))
    out.append(_chk("fib.arc_within_measured_band", areas.value(FIB_DEEP_K),
                    pub.ARC_MEASURED[0], pub.ARC_MEASURED[1]))
    return out


# --------------------------------------------------------------------------
def suite_fig16() -> list[Check]:
    table = table_for(400)
    report = axis_crossings(table, 6)
    expected = (2, 18, pub.FIG16_COMPUTED_W3, 110, 186, 282)
    out = [_flag("fig16.crossings", report.crossings == expected,
                 list(report.crossings), list(expected))]
    # Independent brute-force argmin over the winding-3 crossing zone.
    axis = 2 * TAU
    zone = [n for n in range(1, 400)
            if abs(table.angle_of(n) - axis) < math.pi]
    brute = min(zone, key=lambda n: abs(table.angle_of(n) - axis))
    out.append(_flag("fig16.winding3_bruteforce", brute == pub.FIG16_COMPUTED_W3,
                     brute, pub.FIG16_COMPUTED_W3,
                     f"published root 154 is flagged: computed {brute}"))
    out.append(_flag("fig16.winding3_discrepancy_flagged",
                     pub.FIG16_ROOTS[2] != brute,
                     f"printed {pub.FIG16_ROOTS[2]}", f"computed {brute}",
                     "printed angle matches the computed ray (see next check)"))
    out.append(_chk("fig16.winding3_printed_angle",
                    wrap_signed(table.angle_of(brute)) * DEG,
                    pub.FIG16_ANGLES[2], 1e-4,
                    "the angle printed for '154' is the angle of ray 54"))
    poly = QuadraticPoly(*pub.FIG16_POLY)
    out.append(_flag("fig16.fitted_polynomial", report.poly == poly,
                     str(report.poly), str(poly)))
    out.append(_flag("fig16.second_differences",
                     set(report.second_diffs) == {pub.FIG16_SECOND_DIFF},
                     list(report.second_diffs), pub.FIG16_SECOND_DIFF))
    for idx, n in enumerate(expected):
        if idx == 2:
            continue
        out.append(_chk(f"fig16.angle_ray{n}", report.angles_deg[idx],
                        pub.FIG16_ANGLES[idx], 0.01, "degrees"))
    return out


# --------------------------------------------------------------------------
def suite_primes() -> list[Check]:
    out = []
    big = pr.sieve(10**6)
    out.append(_flag("primes.pi_1e6", big.count() == 78498, big.count(), 78498))
    small = pr.sieve(30)
    got = [int(i) for i in np.flatnonzero(small.bitmap)]
    out.append(_flag("primes.upto_30", got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29],
                     got, "primes below 30"))
    for name in ("B3", "K5"):
        poly = QuadraticPoly(*pub.PRIME_POLYS[name])
        canon, _ = poly.canonicalize()
        out.append(_flag(f"primes.{name}_canonical",
                         canon == QuadraticPoly(*pub.PRIME_POLY_CANONICAL[name]),
                         str(canon),
                         str(QuadraticPoly(*pub.PRIME_POLY_CANONICAL[name]))))
        out.append(_flag(f"primes.{name}_coprime6", pr.coprime6_check(poly),
                         pr.coprime6_check(poly), True))
        count = sum(1 for t in range(1, 101) if big.is_prime(int(poly(t))))
        out.append(_flag(f"primes.{name}_count_t100",
                         count == pub.DERIVED_PRIME_COUNTS_100[name], count,
                         pub.DERIVED_PRIME_COUNTS_100[name], "frozen sieve golden"))
        dens = count / 100
        base = 3 * pr.pnt_baseline(poly.a2, 100)
        out.append(_flag(f"primes.{name}_density_over_3pnt", dens > base,
                         _num(dens), f"> {_num(base)}"))
    b3 = QuadraticPoly(*pub.PRIME_POLYS["B3"])
    c50 = sum(1 for t in range(1, 51) if big.is_prime(int(b3(t))))
    out.append(_flag("primes.B3_density_t50_over_3pnt",
                     c50 / 50 > 3 / math.log(9 * 50 * 50),
                     _num(c50 / 50), f"> {_num(3 / math.log(9 * 50 * 50))}",
                     f"{c50}/50 primes"))
    for name, dd in (("B3", 18), ("K5", 22)):
        rows = pr.scan_prime_polys(dd, range(-10, 20), 100)
        want = QuadraticPoly(*pub.PRIME_POLY_CANONICAL[name])
        hit = {r.key: r for r in rows}.get(tuple(want))
        out.append(_flag(f"primes.scan_D{dd}_contains_{name}",
                         hit is not None and hit.coprime6,
                         "found, coprime6" if hit else "missing",
                         f"{want} with coprime6"))
        top_like = [r for r in rows[:10] if r.coprime6]
        out.append(_flag(f"primes.scan_D{dd}_top10_has_coprime6",
                         len(top_like) > 0, len(top_like), "> 0",
                         "prime-rich rows avoid divisibility by 2 and 3"))
    table = table_for(2000)
    arms = pr.prime_arm_report(table, 2000)
    out.append(_flag("primes.arm_report_all_D18",
                     bool(arms) and all(a.second_differential == 18 for a in arms),
                     sorted({a.second_differential for a in arms}), [18]))
    good = [a for a in arms if a.coprime6]
    out.append(_flag("primes.arm_report_coprime6_arms", len(good) > 0,
                     len(good), "> 0"))
    base = 3 * pr.pnt_baseline(18, 15)
    out.append(_flag("primes.arm_report_density", all(a.density > base for a in arms),
                     _num(min(a.density for a in arms)), f"> {_num(base)}",
                     "3x prime-number-theorem baseline"))
    return out


# --------------------------------------------------------------------------
_SUITE_FUNCS = {name: globals()[f"suite_{name}"] for name in SUITES}


def run_suite(name: str) -> list[Check]:
    """The checks of one suite, or of every suite in SUITES order for "all".
    Then the constants walk, which needs the GIL only between numpy calls,
    runs on a second thread while the other suites run on this one."""
    if name != "all":
        return _SUITE_FUNCS[name]()  # KeyError if unknown
    done = []

    def walk():
        try:
            done.append(_c2_walk())
        except BaseException as exc:  # raised below, in the caller's thread
            done.append(exc)

    helper = threading.Thread(target=walk, name="sqspiral-c2-walk")
    helper.start()
    try:
        checks = {s: _SUITE_FUNCS[s]() for s in SUITES if s != "constants"}
    finally:
        helper.join()
    if isinstance(done[0], BaseException):
        raise done[0]
    checks["constants"] = _SUITE_FUNCS["constants"](done[0])
    return [c for s in SUITES for c in checks[s]]


def render_report(checks) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        line = f"{status}  {c.name}: measured={c.measured} expected={c.expected}"
        if c.tol:
            line += f" tol={c.tol}"
        if c.note:
            line += f"  [{c.note}]"
        lines.append(line)
    passed = sum(1 for c in checks if c.ok)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
