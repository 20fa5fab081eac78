import math

import numpy as np
import pytest

from sqspiral.published import (FIG7_RATIOS, FIG14B_RATIOS, FIG15_CUM_ANGLES,
                                FIG15_DIFFS, FIB_ALPHAS_DEG, SAW_BRACKET)
from sqspiral.ratpoly import QuadraticPoly
from sqspiral import table as table_mod
from sqspiral.series import (GOLDEN, AnalysisSeries, axis_crossings, fib_angle_series,
                             fib_angle_series_streaming, fib_area_ratio_series,
                             fibonacci_numbers, same_arm_angle_series,
                             sqrt_band_sum, square_angle_series,
                             square_band_closed_form, square_band_ratio_series,
                             triangle_area)


def test_triangle_area():
    assert triangle_area(1) == 0.5
    assert triangle_area(4) == 1.0
    assert triangle_area(2) == pytest.approx(0.7071068, abs=1e-7)
    with pytest.raises(ValueError):
        triangle_area(0)


def test_band_ratios_match_published():
    series = square_band_ratio_series(60)
    for m, printed in FIG7_RATIOS.items():
        if m <= 60:
            assert series.value(m) == pytest.approx(printed, abs=1e-7)
    assert series.claimed_limit == 1.0
    with pytest.raises(ValueError):
        square_band_ratio_series(1)


def test_band_ratios_match_exact_sums():
    # tight enough to fix the 9 printed decimals: a difference of running
    # sums is off by up to 2e-12 at M = 1098
    series = square_band_ratio_series(1100)

    def band(m):
        return math.fsum(math.sqrt(n) for n in range(m * m, (m + 1) ** 2))

    for m in (2, 99, 100, 724, 1098):
        assert series.value(m) == pytest.approx(band(m + 1) / band(m), abs=1e-14)


def test_band_ratio_closed_form():
    series = square_band_ratio_series(120)
    for m in range(10, 120):
        assert series.value(m) == pytest.approx(square_band_closed_form(m), abs=1e-3)
    # eventually decreasing toward 1, roughly 1 + 2/M
    vals = [series.value(m) for m in range(5, 120)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert series.value(100) == pytest.approx(1 + 2 / 100, abs=1e-3)


def test_square_angle_series(table400):
    series = square_angle_series(table400, 18)
    expected = sum(math.atan(1 / math.sqrt(n)) for n in (1, 2, 3))
    assert series.value(1) == pytest.approx(expected, abs=1e-12)
    assert math.degrees(series.value(1)) == pytest.approx(110.264, abs=1e-3)
    assert series.claimed_limit == 2.0
    with pytest.raises(IndexError):
        square_angle_series(table400, 30)


def test_same_arm_angle_series(table400):
    series = same_arm_angle_series(table400, 16)
    for r, printed in FIG15_DIFFS.items():
        assert series.value(r) == pytest.approx(printed, abs=0.01)
    assert series.value(1) == pytest.approx(FIG15_CUM_ANGLES[1], abs=1e-4)
    assert series.claimed_limit == pytest.approx(16.225322921506073, abs=1e-9)


def test_fibonacci_numbers():
    assert fibonacci_numbers(7) == [1, 2, 3, 5, 8, 13, 21]


def test_fib_angles_match_published(table400):
    fib = fib_angle_series(table400, 11)
    for k, printed in enumerate(FIB_ALPHAS_DEG, 1):
        assert fib.alphas_deg.value(k) == pytest.approx(printed, abs=0.02)
    assert fib.alphas_deg.value(4) == pytest.approx(67.01, abs=0.01)
    assert fib.alphas_deg.value(6) == pytest.approx(111.40, abs=0.01)
    lo, hi = SAW_BRACKET
    assert lo < fib.step_ratios.value(9) < hi
    assert lo < fib.step_ratios.value(10) < hi
    # the cumulative variant is emitted too, still on its way down to sqrt(tau)
    assert fib.cumulative_ratios.value(10) > hi
    with pytest.raises(IndexError):
        fib_angle_series(table400, 13)


def test_fib_area_ratios_match_published():
    series = fib_area_ratio_series(6)
    for k, printed in enumerate(FIG14B_RATIOS, 1):
        assert series.value(k) == pytest.approx(printed, abs=1e-5)
    with pytest.raises(ValueError):
        fib_area_ratio_series(1)


@pytest.mark.parametrize("lo", [10**4, 10**6, 4 * 10**8])
def test_sqrt_band_sum_matches_exact_sum(lo):
    hi = lo + 10**5
    exact = math.fsum(math.sqrt(n) for n in range(lo, hi))
    assert abs(sqrt_band_sum(lo, hi) / exact - 1) <= 1e-14


def test_fib_area_ratios_sum_only_short_bands(monkeypatch):
    # bands from 10**4 up come from the expansion: no angle blocks, and only
    # the short early bands take square roots term by term
    blocks, roots = [], []
    real_sqrt = np.sqrt
    monkeypatch.setattr(table_mod, "_blocks",
                        lambda top, ks=None: blocks.append(top) or iter(()))
    monkeypatch.setattr(np, "sqrt",
                        lambda x: roots.append(np.size(x)) or real_sqrt(x))
    series = fib_area_ratio_series(40)
    assert blocks == [] and sum(roots) <= 2 * 10**4
    assert series.value(40) == pytest.approx(GOLDEN * math.sqrt(GOLDEN), abs=1e-8)


def test_fib_area_ratios_end_at_the_last_finite_count():
    series = fib_area_ratio_series(983)
    assert all(math.isfinite(v) for _, v in series.terms)
    assert abs(series.value(983) - GOLDEN ** 1.5) <= 1e-9
    with pytest.raises(ValueError, match="float range"):
        fib_area_ratio_series(984)


def test_fib_angle_step_ratio_far_beyond_any_table():
    fib = fib_angle_series_streaming(100)  # reaches F_101 ~ 9.3e20
    index, ratio = fib.step_ratios.terms[-1]
    assert index == 99 and abs(ratio - math.sqrt(GOLDEN)) <= 1e-9


@pytest.mark.parametrize("count", [1474, 1480, 1600])
def test_fib_angles_past_the_float_range_are_a_value_error(count):
    assert len(fib_angle_series_streaming(1473).alphas_deg.terms) == 1473
    with pytest.raises(ValueError, match=f"count {count}: .*float range"):
        fib_angle_series_streaming(count)


def test_axis_crossings(table400):
    report = axis_crossings(table400, 6)
    assert report.crossings == (2, 18, 54, 110, 186, 282)
    assert report.poly == QuadraticPoly(10, -14, 6)
    assert set(report.second_diffs) == {20}
    assert report.angles_deg[0] == pytest.approx(45.0, abs=1e-9)
    assert report.angles_deg[1] == pytest.approx(4.78344235, abs=1e-4)
    assert report.notes() == []
    assert report.crossings[1:] == _zone_argmin(table400, 6)
    with pytest.raises(ValueError):
        axis_crossings(table400, 2)
    with pytest.raises(IndexError):
        axis_crossings(table400, 12)


def _zone_argmin(table, winding_max):
    """Per winding w >= 2, the angle-minimizing ray (the first of a tie) among
    the rays within half a turn of its axis transit (w-1)*2*pi."""
    angle = dict(enumerate(table.cum_angle.tolist(), 1))    # ray m -> its total angle
    out = []
    for w in range(2, winding_max + 1):
        axis = (w - 1) * 2 * math.pi
        zone = [m for m, a in angle.items() if abs(a - axis) < math.pi]
        out.append(min(zone, key=lambda m: abs(angle[m] - axis)))
    return tuple(out)


def test_axis_crossings_forty_windings():
    table = table_mod.table_for(20000)
    report = axis_crossings(table, 40)
    assert report.crossings[0] == 2 and len(report.crossings) == 40
    assert all(type(n) is int for n in report.crossings)
    assert report.crossings[1:] == _zone_argmin(table, 40)


def test_series_serialization():
    series = AnalysisSeries("demo", ((1, 0.5), (2, 0.25)), claimed_limit=0.0)
    csv = series.to_csv()
    assert csv.splitlines()[0] == "index,value"
    assert "1,0.500000000" in csv
    assert '"final_deviation": 0.25' in series.summary_json()
    with pytest.raises(KeyError):
        series.value(3)


def test_series_value_takes_the_first_term_of_an_index():
    terms = ((3, 0.3), (1, 0.1), (3, 9.9), (2, 0.2), (1, 8.8))
    series = AnalysisSeries("unordered", terms)
    assert [series.value(i) for i in (1, 2, 3)] == [0.1, 0.2, 0.3]
    for missing in (0, 4):
        with pytest.raises(KeyError, match=f"unordered: no term with index {missing}"):
            series.value(missing)
    assert series == AnalysisSeries("unordered", terms)  # the lookup is not a field
