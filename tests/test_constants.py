import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqspiral import constants, published
from sqspiral import table as table_mod
from sqspiral import verify
from sqspiral.constants import (archimedean_radius, c2_estimate,
                                c2_extrapolate, constants_report,
                                winding_averages, winding_distance_table)
from sqspiral.table import TAU, SpiralTable
from sqspiral.table import table_for


def test_c2_at_1(table400):
    assert c2_estimate(1, table400.w(1)) == pytest.approx(math.pi / 4 - 2, abs=1e-15)


def test_c2_at_1e6_near_limit():
    table = table_for(10**6)
    assert c2_estimate(10**6, table.w(10**6)) == pytest.approx(published.C2, abs=2e-3)


def test_c2_extrapolation_hits_published_digits():
    table = table_for(10**6)
    c2 = c2_extrapolate({k: table.w(k) for k in [10**3, 10**4, 10**5, 10**6]})
    assert c2 == pytest.approx(published.C2, abs=1e-8)


def test_c2_extrapolation_error_shrinks_with_range():
    table = table_for(10**6)
    errors = [abs(c2_extrapolate({k: table.w(k)
                                  for k in [top // 1000, top // 100, top // 10, top]})
                  - published.C2)
              for top in (10**4, 10**5, 10**6)]
    assert errors[2] < errors[1] < errors[0]


def test_c2_extrapolation_constant_fallback():
    # a synthetic table with w(k) = 2*sqrt(k) + C exactly recovers C
    ks = np.arange(0, 10**5 + 1, dtype=np.float64)
    fake = SpiralTable(max_n=10**5, cum_angle=2.0 * np.sqrt(ks) - 1.25)
    got = c2_extrapolate({k: fake.w(k) for k in [10**2, 10**3, 10**4, 10**5]})
    assert got == pytest.approx(-1.25, abs=1e-10)


def test_c2_extrapolation_rejects_bad_spacing(table400):
    with pytest.raises(ValueError, match="spacing"):
        c2_extrapolate({k: table400.w(k) for k in [100, 150, 200, 300]})
    with pytest.raises(ValueError, match="4 sample"):
        c2_extrapolate({k: table400.w(k) for k in [10, 100, 300]})


def test_winding_distance_known_pairs(table400):
    rows = winding_distance_table(table400, probes=[2, 33])
    assert rows.n.tolist() == [2, 33] and rows.m.tolist() == [21, 79]
    assert rows.distance[0] == pytest.approx(3.16836, abs=1e-5)
    assert rows.winding[0] == 2
    assert rows.distance[1] == pytest.approx(3.1436, abs=1e-4)


FIELDS = {"n": np.int64, "m": np.int64, "distance": np.float64, "winding": np.int64}


def _one_turn_rows(table, probes):
    """Per-probe oracle: per probe ray n, a bisect bracket of n's angle plus
    2*pi over the table and the nearer of the two rays (the first of a tie); columns."""
    cum = table.cum_angle.tolist()               # ray m at cum[m - 1]
    cols = {field: [] for field in FIELDS}
    for n in probes:
        target = cum[n - 1] + TAU
        if target > cum[-1]:
            continue
        j = bisect.bisect_left(cum, target)      # rays j and j+1: cum[j-1] < target <= cum[j]
        assert j > n                             # triangle n spans less than a turn
        m = j if abs(cum[j - 1] - target) <= abs(cum[j] - target) else j + 1
        for field, value in (("n", n), ("m", m), ("distance", math.sqrt(m) - math.sqrt(n)),
                             ("winding", 1 + int(table.angle_of(m) // TAU))):
            cols[field].append(value)
    return {field: np.array(cols[field], dtype=dtype) for field, dtype in FIELDS.items()}


def _assert_same_rows(got, want):
    """Column by column: the same dtype and the same values, exactly."""
    want = want if isinstance(want, dict) else {f: getattr(want, f) for f in FIELDS}
    assert len(got) == len(want["n"])
    for field, dtype in FIELDS.items():
        column = getattr(got, field)
        assert column.dtype == dtype and want[field].dtype == dtype, field
        assert column.shape == (len(got),), field
        assert np.array_equal(column, want[field]), field


@pytest.mark.parametrize("max_n, probes", [
    (400, range(1, 402)),         # every probe, the last ones past the table end
    (30000, range(1, 26000)),
    (12000, range(1, 11000)),
])
def test_winding_rows_match_per_probe_oracle(max_n, probes):
    table = table_for(max_n)
    rows = winding_distance_table(table, probes=probes)
    _assert_same_rows(rows, _one_turn_rows(table, probes))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2001), max_size=60))
def test_winding_rows_match_oracle_on_drawn_probes(probes):
    table = table_for(2000)
    _assert_same_rows(winding_distance_table(table, probes=probes),
                      _one_turn_rows(table, probes))


def test_winding_rows_probe_defaults_and_range(table400):
    _assert_same_rows(winding_distance_table(table400, probes=[]),
                      _one_turn_rows(table400, []))
    for bad in ([0], [402], [5, 500], range(0, 10), range(500, 1, -1)):
        with pytest.raises(IndexError):
            winding_distance_table(table400, probes=bad)
        with pytest.raises(IndexError):
            constants_report(table400, probes=bad)


def _dict_loop_means(winding, distance, fold_at=None):
    """The per-winding means as a dict adds them, one row after another."""
    sums, counts = {}, {}
    for w, d in zip(winding.tolist(), distance.tolist()):
        w = w if fold_at is None else min(w, fold_at)
        sums[w] = sums.get(w, 0.0) + d
        counts[w] = counts.get(w, 0) + 1
    return {w: sums[w] / counts[w] for w in sorted(sums)}


def _assert_same_means(got, want):
    assert list(got.items()) == list(want.items())  # same keys, order and bits
    assert all(type(w) is int and type(v) is float for w, v in got.items())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2001), max_size=300),
       st.none() | st.integers(min_value=1, max_value=30))
def test_winding_means_match_dict_loop_on_drawn_probes(probes, fold_at):
    rows = winding_distance_table(table_for(2000), probes=probes)
    _assert_same_means(winding_averages(rows, fold_at=fold_at),
                       _dict_loop_means(rows.winding, rows.distance, fold_at=fold_at))


@pytest.mark.parametrize("fold_at", [None, 5, 40])
def test_winding_means_match_dict_loop(fold_at):
    rows = winding_distance_table(table_for(30000), probes=range(1, 26000))
    _assert_same_means(winding_averages(rows, fold_at=fold_at),
                       _dict_loop_means(rows.winding, rows.distance, fold_at=fold_at))


def _csv_oracle(table, probes):
    """The CSV as one f-string per row of the per-probe oracle."""
    cols = _one_turn_rows(table, probes)
    means = _dict_loop_means(cols["winding"], cols["distance"])
    lines = ["n,m,distance,winding,winding_avg"]
    for n, m, d, w in zip(*(cols[f].tolist() for f in ("n", "m", "distance", "winding"))):
        lines.append(f"{n},{m},{d:.6f},{w},{means[w]:.7f}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("probes", [range(1, 2000), range(1900, 3, -7),
                                    [5, 900, 5, 17, 1999, 2000, 2001, 3, 900] * 40, []])
@pytest.mark.parametrize("block", [1, 3, 64])
def test_csv_blocks_match_one_block(monkeypatch, probes, block):
    table = table_for(2000)
    whole = constants_report(table, probes)
    parts = list(whole.winding_csv_blocks())
    assert len(parts) == 1 + (len(probes) > 0)  # the header, one block
    assert "".join(parts) == _csv_oracle(table, probes)
    monkeypatch.setattr(constants, "CSV_BLOCK", block)
    split = constants_report(table, probes)
    blocks = list(split.winding_csv_blocks())
    assert len(blocks) == 1 + -(-len(probes) // block)
    assert "".join(blocks) == "".join(parts)
    # windings straddle the block edges; the carried sums keep every bit
    assert split.means.tobytes() == whole.means.tobytes()
    rows = winding_distance_table(table, probes)
    for w, mean in _dict_loop_means(rows.winding, rows.distance).items():
        assert split.means[w] == mean


def test_suite_constants_builds_no_large_table(monkeypatch):
    sizes = []
    build = table_mod.build_table

    def recording_build(max_n):
        sizes.append(max_n)
        return build(max_n)

    monkeypatch.setattr(table_mod, "build_table", recording_build)
    table_for.cache_clear()
    try:
        checks = verify.suite_constants()
    finally:
        table_for.cache_clear()
    assert all(c.ok for c in checks)
    assert sizes and max(sizes) <= 10**5


def test_winding_distance_skips_probes_near_table_end(table400):
    rows = winding_distance_table(table400, probes=[399])
    _assert_same_rows(rows, _one_turn_rows(table400, []))


def test_winding_distance_in_pi_band(table400):
    from sqspiral.published import TABLE1_ROWS
    rows = winding_distance_table(table400, probes=[n for n, _, _ in TABLE1_ROWS])
    assert len(rows) == len(TABLE1_ROWS)
    assert np.all((3.13 < rows.distance) & (rows.distance < 3.17) | (rows.winding < 2))


def test_winding_means_pooled():
    table = table_for(30000)
    rows = winding_distance_table(table, probes=range(1, 26000))
    pooled = rows.distance[(10 <= rows.winding) & (rows.winding <= 50)].tolist()
    assert abs(sum(pooled) / len(pooled) - math.pi) <= 2e-4
    avgs = winding_averages(rows)
    assert max(abs(avgs[w] - math.pi) for w in range(10, 51)) <= 4e-4


@pytest.mark.xfail(strict=True, reason=(
    "per-winding means carry ~2.5e-4 argmin quantization noise around "
    "windings 10-12 (measured 2.7e-4 at winding 12), so the 2e-4 bound "
    "is below the noise floor; the pooled mean meets it"))
def test_winding_means_per_winding_strict():
    table = table_for(30000)
    rows = winding_distance_table(table, probes=range(1, 26000))
    avgs = winding_averages(rows)
    assert max(abs(avgs[w] - math.pi) for w in range(10, 51)) <= 2e-4


def test_winding_fold_averaging(table400):
    from sqspiral.published import (TABLE1_FOLD_AT, TABLE1_ROWS,
                                    TABLE1_WINDING_AVGS)
    rows = winding_distance_table(table400, probes=[n for n, _, _ in TABLE1_ROWS])
    avgs = winding_averages(rows, fold_at=TABLE1_FOLD_AT)
    for w, printed in TABLE1_WINDING_AVGS.items():
        assert avgs[w] == pytest.approx(printed, abs=1e-6)


def test_archimedean_radius():
    assert archimedean_radius(0.0, published.C2) == pytest.approx(1.078891498, abs=1e-9)
    diff = archimedean_radius(2 * math.pi, published.C2) - archimedean_radius(0.0, published.C2)
    assert diff == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        archimedean_radius(-0.1, published.C2)


def test_constants_report_csv():
    table = table_for(2000)
    report = constants_report(table, probes=range(1, 500))
    lines = "".join(report.winding_csv_blocks()).splitlines()
    assert lines[0] == "n,m,distance,winding,winding_avg"
    assert lines[2].startswith("2,21,3.168362,2,")
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    every = "".join(constants_report(table, range(1, table.max_n + 1)).winding_csv_blocks())
    assert every == _csv_oracle(table, range(1, table.max_n + 1))


def test_archimedean_tracks_radii():
    table = table_for(10**6)
    c2 = c2_extrapolate({k: table.w(k) for k in [10**3, 10**4, 10**5, 10**6]})
    ns = np.arange(100, 10**4)
    pred = 0.5 * table.cum_angle[ns - 1] - 0.5 * c2
    assert float(np.max(np.abs(pred - np.sqrt(ns)))) <= 0.01
    assert abs(archimedean_radius(table.angle_of(10**4), c2) - 100.0) <= 1e-3
