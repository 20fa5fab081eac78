"""The arm and prime writers against the formatting they replace.

The oracles below are the writers as they were when every row built its
`Fraction`s and `QuadraticPoly` and the arm JSON went through
`json.dumps(indent=2, sort_keys=True)`; the writers that format from the
integer keys must give the same bytes.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sqspiral import arms as arms_mod
from sqspiral.arms import (Arm, classify_systems, enumerate_arms, parse_group,
                           report_csv_blocks, report_json,
                           report_json_blocks, verify_rule_5_2)
from sqspiral.cli import EXIT_OK, main
from sqspiral.primes import (arm_report_csv, prime_arm_report, scan_csv,
                             scan_prime_polys)
from sqspiral.ratpoly import QuadraticPoly
from sqspiral.table import table_for
from sqspiral.verify import _cached_arm_reports

from arm_packing import pack_arms


def old_report_json(report) -> str:
    def arm_json(arm):
        poly = arm.poly
        return {"members": list(arm.members), "poly": str(poly),
                "canonical": {"a": str(poly.a), "b_hat": str(poly.b), "c": str(poly.c)},
                "start_t": arm.start_t, "direction": arm.direction,
                "drifts": [round(d, 9) for d in arm.drifts]}

    rule, seen = verify_rule_5_2(report), {}
    for direction, dd in report.systems:
        seen.setdefault(direction, set()).add(dd)
    doc = {
        "group": str(report.group),
        "max_n": report.max_n,
        "arms": [arm_json(a) for a in report.arms],
        "systems": {
            d: [{"D": dd, "count": len(b2s), "b_hats": [str(Fraction(b2, 2)) for b2 in b2s]}
                for (direction, dd), b2s in report.systems.items() if direction == d]
            for d in ("N", "P")
        },
        "mixed_d": {direction: len(dds) > 1 for direction, dds in seen.items()},
        "rule_5_2": (None if rule is None else
                     {d: {str(dd): ok for dd, ok in sorted(per.items())}
                      for d, per in rule.items()}),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def old_report_csv(report) -> str:
    lines = ["direction,D,a,b_hat,c,start_t,len,members"]
    for a in report.arms:
        poly, mem = a.poly, a.members
        lines.append(
            f"{a.direction},{a.second_differential},{poly.a},{poly.b},"
            f"{poly.c},{a.start_t},{len(mem)}," + " ".join(str(m) for m in mem))
    return "\n".join(lines) + "\n"


def old_scan_csv(rows) -> str:
    lines = ["a,b_hat,c,T,prime_count,density,coprime6"]
    for r in rows:
        lines.append(f"{r.poly.a},{r.poly.b},{r.poly.c},{r.sample_count},"
                     f"{r.prime_count},{r.density:.6f},{str(r.coprime6).lower()}")
    return "\n".join(lines) + "\n"


def old_arm_report_csv(arms) -> str:
    lines = ["a,b_hat,c,len,prime_count,density,coprime6,members"]
    for a in arms:
        lines.append(f"{a.poly.a},{a.poly.b},{a.poly.c},{len(a.members)},"
                     f"{a.prime_count},{a.density:.4f},"
                     f"{str(a.coprime6).lower()},"
                     + " ".join(str(m) for m in a.members))
    return "\n".join(lines) + "\n"


def _report(spec, n):
    group, n = parse_group(spec), int(n)
    return classify_systems(enumerate_arms(table_for(max(n, 2)), group, n), group, n)


@pytest.mark.parametrize("name", ["div:2", "div:3", "div:5", "div:7", "div:11", "div:13",
                                  "div:17", "div:19", "squares", "primes/2000",
                                  "fib/5000"])       # fib/5000 has no arms
def test_arm_writers_match_the_old_encoder(name):
    report = _cached_arm_reports().get(name) or _report(*name.split("/"))
    assert report_json(report) == old_report_json(report)
    assert "".join(report_csv_blocks(report)) == old_report_csv(report)


def test_blocks_joined_are_the_reports(monkeypatch):
    report = _cached_arm_reports()["div:7"]
    whole = report_json(report), "".join(report_csv_blocks(report))
    monkeypatch.setattr(arms_mod, "REPORT_BLOCK", 97)    # many blocks
    json_blocks, csv_blocks = list(report_json_blocks(report)), list(report_csv_blocks(report))
    assert len(json_blocks) > len(report.arms) // 97 > 3
    assert ("".join(json_blocks), "".join(csv_blocks)) == whole
    assert (report_json(report), "".join(report_csv_blocks(report))) == whole


# drifts the way json's float repr is hard on them: signed zeros, magnitudes
# below 1e-4 (repr switches to e-notation), values that round to a whole
# number, and ties at the ninth digit
_drift = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 5e-10, -5e-10, 1e-4, -1e-4, 2e-4,
                     0.0009765625, 3.0000000004, 0.1234567885, -0.1234567895]),
    st.floats(-1e-4, 1e-4),
    st.floats(-3.2, 3.2),
    st.integers(-3_200_000_000, 3_200_000_000).map(lambda k: k / 1e9),
    st.integers(-3_200_000_000, 3_200_000_000).map(lambda k: (k + 0.5) / 1e9),
    st.integers(-4, 4).flatmap(lambda w: st.floats(w - 1e-9, w + 1e-9)),
)


@given(st.lists(st.one_of(_drift, st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e6, 1e16)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_drifts_are_written_as_json_writes_them(drifts):
    arm = Arm([5, 9, 14], QuadraticPoly(1, 5, 4), 1, drifts, "N")
    report = classify_systems(pack_arms([arm]), parse_group("div:7"), 1000)
    assert report_json(report) == old_report_json(report)


_doubled = st.integers(-400, 400)   # 2a, 2b or 2c of a half-integer quadratic


@st.composite
def _arms(draw):
    out = []
    for _ in range(draw(st.integers(0, 6))):
        mem = draw(st.lists(st.integers(1, 10**6), min_size=0, max_size=8))
        drifts = draw(st.lists(_drift, max_size=8))
        poly = QuadraticPoly(draw(_doubled), draw(_doubled), draw(_doubled))
        out.append(Arm(mem, poly, draw(st.integers(-5, 50)), drifts,
                       draw(st.sampled_from(arms_mod.DIRECTIONS))))
    return out


@given(_arms(), st.sampled_from(["div:7", "squares", "list:3,5"]))
@settings(max_examples=150, deadline=None)
def test_arm_writers_on_drawn_arms(arms, spec):
    report = classify_systems(pack_arms(arms), parse_group(spec), 1000)
    assert (spec == "div:7") == (verify_rule_5_2(report) is not None)
    assert report_json(report) == old_report_json(report)
    assert "".join(report_csv_blocks(report)) == old_report_csv(report)


def test_arms_of_two_walks_in_one_report(table2000):
    group = parse_group("div:7")
    arms = (enumerate_arms(table2000, group, 1200)[:50]
            + enumerate_arms(table2000, group, 2000)[7:3000:2])
    report = classify_systems(pack_arms(arms), group, 2000)
    assert report_json(report) == old_report_json(report)
    assert "".join(report_csv_blocks(report)) == old_report_csv(report)


@pytest.mark.parametrize("d,c_range,t", [(18, range(-10, 21), 100), (17, range(-3, 5), 60),
                                         (22, range(-10, 20), 100), (1, range(-2, 3), 50),
                                         (18, [7, -3, 40], 75)])
def test_scan_csv_matches_the_old_loop(d, c_range, t):
    rows = scan_prime_polys(d, c_range, t)
    assert scan_csv(rows) == old_scan_csv(rows)


@pytest.mark.parametrize("max_n", [1, 300, 2000, 5000])
def test_prime_report_csv_matches_the_old_loop(max_n):
    arms = prime_arm_report(table_for(5000), max_n)
    assert arm_report_csv(arms) == old_arm_report_csv(arms)


@pytest.fixture
def counted(monkeypatch):
    """Counts of the Fractions and QuadraticPolys built while the fixture lives."""
    counts = {"Fraction": 0, "QuadraticPoly": 0}
    raw_new, init = Fraction.__dict__["__new__"], QuadraticPoly.__post_init__

    def counting_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return raw_new.__func__(cls, *args, **kwargs)

    def counting_init(self):
        counts["QuadraticPoly"] += 1
        init(self)

    monkeypatch.setattr(QuadraticPoly, "__post_init__", counting_init)
    Fraction.__new__ = staticmethod(counting_new)
    try:
        yield counts
    finally:
        Fraction.__new__ = raw_new


@pytest.mark.parametrize("argv,rows", [
    ("arms --group div:7 --n 2000 --format json", 1000),
    ("arms --group div:7 --n 2000 --format csv", 1000),
    ("primes --scan-d 18 --t 100 --c-min -10 --c-max 200", 3000),
    ("primes --report --n 5000", 100),
])
def test_writers_build_no_fraction_per_row(argv, rows, counted, tmp_path, monkeypatch,
                                           capsys):
    """No Fraction or QuadraticPoly per written row, nor per system: a
    system's b-residue is written from its int 2b."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQSPIRAL_CACHE", raising=False)
    assert main(argv.split()) == EXIT_OK
    out = capsys.readouterr().out
    if argv.startswith("arms"):
        assert out.count('"members"' if "json" in argv else "\n") > rows
    else:
        assert out.count("\n") > rows
    assert counted == {"Fraction": 0, "QuadraticPoly": 0}
