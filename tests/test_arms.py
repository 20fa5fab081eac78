import ast
import itertools
import math
from collections import Counter
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqspiral import arms as arms_mod, verify
from sqspiral.arms import (DIRECTIONS, MIN_ARM_LEN, SEED_BLOCK, WINDOW_HI, WINDOW_LO, Arm,
                           NumberGroup, _walk,
                           arm_columns, traced_arms,
                           b_hat_lattice_ok, canonical_keys, direction_codes,
                           enumerate_arms, find_arms, in_window, members,
                           parse_group, trace_arm, verify_rule_5_2, report_csv,
                           report_json, window_seeds)
from sqspiral.primes import PRIME_DENSITY
from sqspiral.ratpoly import QuadraticPoly, newton_quadratic
from sqspiral.published import RULE52_ROWS, TABLE2
from sqspiral.table import TAU, SpiralTable, table_for, wrap_signed
from sqspiral.verify import _cached_arm_reports

import window_oracles as oracle
from arm_packing import pack_arms


def test_parse_group():
    assert parse_group("div:7") == NumberGroup("div", (7,))
    assert parse_group("squares") == NumberGroup("squares")
    assert parse_group("list:3,1,2") == NumberGroup("list", (1, 2, 3))
    for bad in ("div:0", "list:", "nonsense"):
        with pytest.raises(ValueError):
            parse_group(bad)


def test_members_examples():
    assert members(parse_group("div:11"), 60) == [11, 22, 33, 44, 55]
    assert members(parse_group("squares"), 40) == [1, 4, 9, 16, 25, 36]
    assert members(parse_group("fib"), 25) == [1, 2, 3, 5, 8, 13, 21]
    assert members(parse_group("primes"), 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert members(parse_group("primes"), 1) == []


def _trace(table, spec, seed, max_n):
    group = parse_group(spec)
    return trace_arm(table, set(members(group, max_n)), seed, max_n)


def test_trace_known_arms(table2000):
    arm = _trace(table2000, "div:11", (22, 77, 154), 600)
    assert arm.members == (22, 77, 154, 253, 374, 517)   # the whole chain
    assert arm.poly == QuadraticPoly(22, 0, -44)   # 11x^2+22x-11 shifted by -1
    assert arm.poly(arm.start_t) == arm.members[0]
    arm = _trace(table2000, "squares", (1, 16, 49), 600)
    assert arm.members[:6] == (1, 16, 49, 100, 169, 256)
    assert arm.direction == "P"
    arm = _trace(table2000, "div:19", (19, 76, 152), 600)
    assert arm.members[:6] == (19, 76, 152, 247, 361, 494)
    assert arm.direction == "N"


def test_trace_invariants(table2000):
    arm = _trace(table2000, "div:7", (14, 49, 105), 600)
    mem = arm.members
    assert {u - 2 * v + w for u, v, w in zip(mem, mem[1:], mem[2:])} == {2 * arm.poly.a} == {21}
    for i, m in enumerate(arm.members):
        assert arm.poly(arm.start_t + i) == m
    assert len(arm.drifts) == len(arm.members) - 1
    assert all(-math.pi < d < math.pi for d in arm.drifts)


def test_trace_rejections(table2000):
    # degenerate fit (zero second difference) is rejected, not an error
    assert _trace(table2000, "div:2", (2, 12, 22), 600) is None
    # first pair advances less than half a winding: outside the window
    assert _trace(table2000, "div:13", (26, 39, 65), 600) is None
    # a mid-chain seed: its chain is traced from its first triple (22, 77, 154)
    assert _trace(table2000, "div:11", (77, 154, 253), 600) is None
    # m2 = 78 is not a member: the walk stops at its first step
    assert _trace(table2000, "div:11", (22, 78, 154), 600) is None
    # a seed past max_n: no step lies inside 1..max_n
    assert _trace(table2000, "div:7", (700, 749, 805), 600) is None
    with pytest.raises(ValueError):
        _trace(table2000, "div:7", (14, 49, 105), 5000)


def _drifts(table, mem):
    return [wrap_signed(table.angle_of(b) - table.angle_of(a) - TAU)
            for a, b in zip(mem, mem[1:])]


def direction_of(drifts) -> str:
    """P/N from the median early drift (the first min(5, len) of an arm's
    per-step drifts).

    The median, not the mean: a single large transient on the innermost step
    must not outvote an otherwise one-sided early curl.  Calibrated so the
    square-number arms classify P.
    """
    if not drifts:
        raise ValueError("direction needs at least one drift")
    ds = sorted(drifts[:5])
    k = len(ds)
    med = ds[k // 2] if k % 2 else 0.5 * (ds[k // 2 - 1] + ds[k // 2])
    if med == 0.0:
        return "indeterminate"
    return "P" if med < 0 else "N"


def test_direction_codes_match_direction_of_on_every_report_arm():
    for spec, report in _cached_arm_reports().items():
        assert report.arms, spec
        for arm in report.arms:
            assert arm.direction == direction_of(arm.drifts), (spec, arm)


# zeros of both signs, ties and opposite pairs (an exact 0.0 median of two)
_DRIFTS = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.5, -1.5]),
                    st.floats(-math.pi, math.pi))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_DRIFTS, min_size=1, max_size=8), min_size=1, max_size=6),
       st.integers(0, 3))
def test_direction_codes_match_direction_of(arms, lead):
    """Arms' drifts laid end to end after `lead` slots that no arm reads, so
    that `first` need not start at 0; 4 or 5 early drifts are what arms of
    MIN_ARM_LEN give."""
    count = [len(d) for d in arms]
    first = lead + np.cumsum(count) - count
    drift = [7.0] * lead + [x for d in arms for x in d]
    got = [DIRECTIONS[c] for c in direction_codes(drift, first, count)]
    assert got == [direction_of(d) for d in arms]


@pytest.mark.parametrize("drifts, direction", [
    ([0.5, -0.5, 0.1, -0.1], "indeterminate"),      # half sum of two: exactly 0.0
    ([-0.0, 0.0, -0.0, 1.0, -1.0], "indeterminate"),
    ([-0.0, -0.0, -1.0, 0.0], "indeterminate"),
    ([0.2, 0.2, -0.3, -0.3, 0.2, -9.0], "N"),        # a sixth drift is not read
    ([-0.2, -0.2, 0.3, 0.3, -0.2, 9.0], "P"),
])
def test_direction_codes_ties_and_zeros(drifts, direction):
    assert direction_of(drifts) == direction
    assert DIRECTIONS[direction_codes(drifts, [0], [len(drifts)])[0]] == direction


def test_lazy_arm_equals_arm_from_its_fields():
    for arm in _cached_arm_reports()["div:11"].arms:
        eager = Arm(members=arm.members, poly=arm.poly, start_t=arm.start_t,
                    drifts=arm.drifts, direction=arm.direction)
        assert eager == arm and hash(eager) == hash(arm)
        assert (eager.second_differential, eager.b_hat) == \
            (arm.second_differential, arm.b_hat)
    other = Arm(arm.members, arm.poly, arm.start_t + 1, arm.drifts, arm.direction)
    assert other != arm
    with pytest.raises(TypeError):         # no polynomial but a half-integer one
        QuadraticPoly(Fr(1, 3), 0, 0)
    with pytest.raises(ValueError):
        Arm(arm.members, arm.poly, arm.start_t, arm.drifts, "S")


def test_arm_columns_reads_each_walk(table2000):
    """Arms of two walks and one built by hand, in runs that leave arms out and
    come back to a walk: each arm's columns are read from its own flat arrays."""
    walk7, walk11 = (traced_arms(table2000, np.array(members(parse_group(spec), 2000)), 2000)
                     for spec in ("div:7", "div:11"))
    hand = Arm([5, 9, 14], QuadraticPoly(1, 5, 4), 1, [0.1, -0.2], "N")
    arms = walk7[:3] + walk11[:6:2] + [hand] + walk7[10:12] + walk11[-1:]
    bitmap = np.zeros(2001, dtype=bool)
    bitmap[::11] = bitmap[5] = True
    dd, b2, c2, size, marked = arm_columns(pack_arms(arms), bitmap)
    assert [(d, b, c) for d, b, c in zip(dd.tolist(), b2.tolist(), c2.tolist())] == \
        [tuple(arm.poly) for arm in arms]
    assert size.tolist() == [len(arm.members) for arm in arms]
    assert marked.tolist() == [sum(bitmap[m] for m in arm.members) for arm in arms]
    assert marked[3:6].tolist() == size[3:6].tolist() and marked[6] == 1
    assert all(col.dtype == np.int64 and col.size == 0
               for col in arm_columns(pack_arms([]), bitmap))


def test_find_arm_by_canonical_polynomial():
    arms = _cached_arm_reports()["div:13"].arms
    found = find_arms(arms, [tuple(arm.poly) for arm in arms])
    assert len(found) == len(arms) and all(f is arm for f, arm in zip(found, arms))
    canon = tuple(newton_quadratic(26, 91, 182).canonicalize()[0])
    d, b2, c2 = arms[0].poly
    # past every row, before every row, and the D and 2b of an arm
    missing = [(2000, 0, 2), (-13, 0, 0), (d, b2, c2 - 2 * 10**6)]
    found = find_arms(arms, [missing[0], canon, missing[1], missing[2]])
    assert found[1].members[:3] == (26, 91, 182)
    assert found[0] is None
    assert found[2] is None
    assert found[3] is None
    assert find_arms(pack_arms([]), [canon]) == [None]
    assert find_arms(arms, []) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 60), st.integers(1, 20)),
                min_size=1, max_size=8))
def test_canonical_keys_are_the_canonical_fits(firsts):
    """Integer keys from three members, as arrays, equal the scalar fit's canonical keys."""
    seqs = [(m1, m1 + g1, m1 + g1 + g1 + g2) for m1, g1, g2 in firsts]  # D = g2 >= 1
    keys, shift = canonical_keys(*np.array(seqs, dtype=np.int64).T)
    fits = [newton_quadratic(*seq).canonicalize() for seq in seqs]
    assert [tuple(k) for k in keys.T.tolist()] == [tuple(poly) for poly, _ in fits]
    assert shift.tolist() == [s for _, s in fits]


def test_table2_and_rule52_build_polynomials_only_where_read(monkeypatch):
    """On a cold cache the two arm suites build the published fits' polynomials,
    not one per enumerated arm (38,758 over the nine reports)."""
    built = []
    init = QuadraticPoly.__post_init__

    def recording_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(QuadraticPoly, "__post_init__", recording_init)
    _cached_arm_reports.cache_clear()
    try:
        checks = verify.suite_table2() + verify.suite_rule52()
        arms = sum(len(r.arms) for r in _cached_arm_reports().values())
    finally:
        _cached_arm_reports.cache_clear()
    assert all(c.ok for c in checks)
    assert arms == 38758
    assert 0 < len(built) <= 300


def test_direction_examples(table2000):
    """The squares' calibration example classifies P, a div:2 one N, a div:13 one P."""
    examples = {(1, 16, 49, 100, 169, 256): "P", (2, 26, 70, 134, 218): "N",
                (26, 39, 65, 104, 156): "P"}
    drifts = [_drifts(table2000, mem) for mem in examples]
    assert [direction_of(d) for d in drifts] == list(examples.values())
    count = [len(d) for d in drifts]
    codes = direction_codes(sum(drifts, []), np.cumsum(count) - count, count)
    assert [DIRECTIONS[c] for c in codes] == list(examples.values())
    with pytest.raises(ValueError):
        direction_of([])


class _CountingTable:
    """A table whose cum_angle counts the elements read from it."""

    def __init__(self, table):
        self.angles, self.max_n, self.reads = table.cum_angle, table.max_n, 0

    @property
    def cum_angle(self):
        return self

    def __getitem__(self, index):
        out = self.angles[index]
        self.reads += np.size(out)
        return out


def test_trace_reads_each_angle_once(table2000):
    chain = (22, 77, 154, 253, 374, 517)
    counting = _CountingTable(table2000)
    arm = trace_arm(counting, set(members(parse_group("div:11"), 600)),
                    chain[:3], 600)
    assert arm.members == chain
    assert arm == _trace(table2000, "div:11", chain[:3], 600)
    enumerated = next(a for a in enumerate_arms(table2000, parse_group("div:11"), 600)
                      if a.members == chain)
    assert arm == enumerated and hash(arm) == hash(enumerated)
    assert counting.reads <= len(chain) + 3
    # a prime arm stepping over five composites (171, 501, 993, 1411, 1647)
    prime_arm = (3, 41, 97, 171, 263, 373, 501, 647, 811, 993, 1193, 1411,
                 1647, 1901)
    counting = _CountingTable(table2000)
    arm = trace_arm(counting, set(members(parse_group("primes"), 2000)),
                    prime_arm[:3], 2000, PRIME_DENSITY)
    assert arm.members == prime_arm
    assert counting.reads <= len(prime_arm) + 3


def test_prime_arm_trimmed_back_to_its_last_prime(table2000):
    """From (2, 11, 29) the prime walk steps over 56 (3/4 primes) and 92 (3/5,
    exactly PRIME_DENSITY), then over 254 (5/8); 326 would leave 5/9, so the
    walk stops there and the arm ends on its last prime, 191."""
    primeset = set(members(parse_group("primes"), 2000))
    arm = trace_arm(table2000, primeset, (2, 11, 29), 2000, PRIME_DENSITY)
    assert arm.members == (2, 11, 29, 56, 92, 137, 191)
    assert len(arm.drifts) == 6
    assert arm.poly(arm.start_t + 6) == 191
    assert trace_arm(table2000, primeset, (2, 11, 29), 2000) is None  # exact: stops at 56


def test_drift_convergence_long_arm():
    table = table_for(100000)
    group = parse_group("squares")
    arm = trace_arm(table, set(members(group, 100000)), (1, 16, 49), 100000)
    limit = wrap_signed(2 * math.sqrt(float(arm.poly.a)))
    assert abs(arm.drifts[-1] - limit) < 0.02
    # |drift - limit| settles monotonically over the tail
    gaps = [abs(d - limit) for d in arm.drifts[5:]]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


def test_enumerate_finds_published_arms():
    report = _cached_arm_reports()["div:7"]
    sequences = {(14, 49, 105, 182, 280), (7, 49, 112, 196, 301),
                 (21, 70, 140, 231, 343), (28, 49, 91, 154, 238)}
    for seq in sequences:
        assert any(set(seq) <= set(a.members) for a in report.arms)


def test_enumerate_empty_group(table2000):
    assert enumerate_arms(table2000, parse_group("list:601"), 600) == []


def test_enumerate_deterministic_order(table2000):
    group = parse_group("div:13")
    first = enumerate_arms(table2000, group, 600)
    second = enumerate_arms(table2000, group, 600)
    assert [(a.poly, a.start_t) for a in first] == [(a.poly, a.start_t) for a in second]
    keys = [(a.poly.a, a.poly.b, a.poly.c) for a in first]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def b_hats(b2s) -> tuple:
    """A system family's b-residues as Fractions, from its ints 2b."""
    return tuple(Fr(b2, 2) for b2 in b2s)


def test_classify_known_groups():
    reports = _cached_arm_reports()
    r11 = reports["div:11"].systems
    assert len(r11["N", 22]) == 2
    assert b_hats(r11["N", 22]) == (Fr(0), Fr(11))
    assert len(r11["P", 22]) == 2
    r13 = reports["div:13"].systems
    assert len(r13["N", 26]) == 2
    assert len(r13["P", 13]) == 1
    assert b_hats(r13["P", 13]) == (Fr(13, 2),)
    mixed = Counter(d for d, _ in r13)     # second differentials per direction
    assert mixed["N"] > 1 and mixed["P"] > 1
    r3 = reports["div:3"].systems
    assert b_hats(r3["N", 21]) == tuple(Fr(k, 2) for k in range(3, 42, 6))
    assert b_hats(r3["P", 18]) == tuple(Fr(k) for k in range(0, 18, 3))


def test_rule_5_2():
    reports = _cached_arm_reports()
    for p, dd_by_dir in ((7, {"N": 21, "P": 21}), (2, {"N": 20, "P": 18}),
                         (19, {"N": 19, "P": 19})):
        rule = verify_rule_5_2(reports[f"div:{p}"])
        for direction, dd in dd_by_dir.items():
            assert rule[direction][dd] is True
            assert b_hat_lattice_ok(reports[f"div:{p}"].systems[direction, dd], dd, p)
    assert verify_rule_5_2(reports["squares"]) is None


def old_lattice_ok(dd, bh, p) -> bool:
    """`b_hat_lattice_ok` as it was on Fraction b-residues."""
    expected = Fr(dd, p)
    if len(bh) != expected or expected.denominator != 1:
        return False
    steps = {b2 - b1 for b1, b2 in zip(bh, bh[1:])}
    return (not steps or steps == {Fr(p)}) and bh[0] < p


@given(st.integers(1, 13), st.integers(1, 44), st.integers(0, 7), st.integers(-3, 3),
       st.lists(st.integers(0, 90), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_b_hat_lattice_ok_on_ints_matches_the_fraction_rule(p, dd, at, shift, drawn):
    """On a lattice of step 2p from dd mod 2p, on it with one residue moved or
    the first dropped, and on any set of ints 2b."""
    lattice = list(range(dd % (2 * p), 2 * dd, 2 * p))
    moved = lattice.copy()
    moved[at % len(moved)] += shift
    for b2s in (lattice, moved, lattice[1:], drawn):
        b2s = sorted(set(b2s))
        if b2s:
            assert b_hat_lattice_ok(tuple(b2s), dd, p) == old_lattice_ok(
                dd, [Fr(b2, 2) for b2 in b2s], p), (p, dd, b2s)


def test_b_hat_lattice_ok_on_ints():
    ok = [((7, 21, 35), 21, 7), ((0, 22), 22, 11), ((13,), 13, 13)]
    bad = [((7, 21), 21, 7), ((7, 21, 37), 21, 7), ((21, 35, 49), 21, 7), ((1, 3), 5, 2)]
    for b2s, dd, p in ok + bad:
        assert b_hat_lattice_ok(b2s, dd, p) == ((b2s, dd, p) in ok)


def test_rule52_rows_are_the_printed_lines():
    """The 11 printed lines; "NP" stands for one row per direction, and so
    expanded they are the 16 per-direction rows (p, direction, count, D)."""
    assert len(RULE52_ROWS) == 11
    assert [(p, d, count, dd) for p, dirs, count, dd in RULE52_ROWS for d in dirs] == [
        (2, "N", 10, 20), (2, "P", 9, 18),
        (3, "N", 7, 21), (3, "P", 6, 18),
        (5, "N", 4, 20), (5, "P", 4, 20),
        (7, "N", 3, 21), (7, "P", 3, 21),
        (11, "N", 2, 22), (11, "P", 2, 22),
        (13, "N", 2, 26), (13, "P", 1, 13),
        (17, "N", 1, 17), (17, "P", 1, 17),
        (19, "N", 1, 19), (19, "P", 1, 19),
    ]


def test_report_serialization():
    import json
    report = _cached_arm_reports()["div:11"]
    doc = json.loads(report_json(report))
    assert doc["group"] == "div:11" and doc["max_n"] == 600
    assert any(a["members"][:4] == [22, 77, 154, 253] for a in doc["arms"])
    n22 = next(c for c in doc["systems"]["N"] if c["D"] == 22)
    assert n22["count"] == 2 and n22["b_hats"] == ["0", "11"]
    assert doc["rule_5_2"]["N"]["22"] is True
    assert doc["mixed_d"] == {"N": True, "P": True}  # other families reported too
    csv = report_csv(report)
    assert csv.splitlines()[0] == "direction,D,a,b_hat,c,start_t,len,members"
    assert any("22 77 154 253" in line for line in csv.splitlines())


def _brute_force_arms(table, group, n):
    """Every maximal run of members with a constant positive second difference
    whose steps each advance one winding, first member at most n/4, at least
    five long.  All member triples are tried, with no search structure."""
    mem = members(group, n)
    memberset = set(mem)

    def one_winding(a, b):
        return math.pi < table.angle_of(b) - table.angle_of(a) < 3 * math.pi

    runs = set()
    for m1, m2, m3 in itertools.combinations(mem, 3):
        if m1 > n // 4:
            break
        d2 = m1 - 2 * m2 + m3
        if d2 <= 0 or not (one_winding(m1, m2) and one_winding(m2, m3)):
            continue
        run = [m1, m2, m3]
        while True:
            nxt = 2 * run[-1] - run[-2] + d2
            if nxt not in memberset or not one_winding(run[-1], nxt):
                break
            run.append(nxt)
        while True:
            prv = 2 * run[0] - run[1] + d2
            if not (prv < run[0] and prv in memberset and one_winding(prv, run[0])):
                break
            run.insert(0, prv)
        if len(run) >= 5:
            runs.add(tuple(run))
    return runs


@pytest.mark.parametrize("spec, count", [("div:2", 3989), ("div:3", 1166),
                                         ("div:7", 74), ("squares", 7),
                                         ("primes", 144)])
def test_enumerate_matches_brute_force(table400, spec, count):
    group = parse_group(spec)
    expected = _brute_force_arms(table400, group, 300)
    assert len(expected) == count
    assert {a.members for a in enumerate_arms(table400, group, 300)} == expected


def _seed_list(table, mem, max_n, second_differential=None):
    """window_seeds' triples, every block's in order, as one list of tuples."""
    return [seed for seeds in window_seeds(table, mem, max_n, second_differential)
            for seed in zip(*seeds.tolist())]


def _assert_blocks(blocks, expected, block):
    """`blocks` hold the seeds `expected` in order, SEED_BLOCK = `block` each but the last."""
    assert [seed for seeds in blocks for seed in zip(*seeds.tolist())] == expected
    assert [seeds.shape[1] for seeds in blocks] == [min(block, len(expected) - s)
                                                    for s in range(0, len(expected), block)]


@st.composite
def list_groups(draw):
    """(n, group): n <= 200 and 0-40 members: n, n // 4 (the last seed start),
    their neighbours and numbers from 1..n, plus the quadratic run through one
    window seed of 1..n, with one member perhaps left out, so that arms occur."""
    n = draw(st.integers(1, 200))
    edges = [max(1, v) for v in (n, n - 1, n // 4, n // 4 + 1)]
    vals = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(1, n)),
                         max_size=32))
    seeds = _seed_list(table_for(400), range(1, n + 1), n)
    if seeds:
        m1, m2, m3 = draw(st.sampled_from(seeds))
        run = [m1 + k * (m2 - m1) + k * (k - 1) // 2 * (m1 - 2 * m2 + m3)
               for k in range(8)]
        gap = draw(st.integers(0, 8))
        vals += run[:gap] + run[gap + 1:]
    return n, NumberGroup("list", tuple(sorted(set(vals))))


@settings(max_examples=200, deadline=None)
@given(list_groups(), st.sampled_from([1, 7, SEED_BLOCK]))
def test_enumerate_matches_brute_force_on_random_lists(table400, case, block):
    """At any seed block size: with blocks of 1 or 7 seeds, chains and the
    dedupe of a polynomial's seeds cross block edges."""
    n, group = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arms_mod, "SEED_BLOCK", block)
        assert {a.members for a in enumerate_arms(table400, group, n)} == \
            _brute_force_arms(table400, group, n)


@pytest.mark.parametrize("spec", ["div:2", "div:3", "primes"])
def test_each_chain_traced_once(table400, spec):
    """The walk of every block of window seeds.  `_keep` keeps one arm per
    polynomial, so no run is walked twice when the seeds whose walk yields an
    arm are as many as the arms kept; and they are as many as the brute-force
    runs."""
    group = parse_group(spec)
    mem = members(group, 300)
    bitmap = np.isin(np.arange(301), mem)
    yielded = sum(np.count_nonzero(_walk(table400, bitmap, seeds, 1.0)[0] >= MIN_ARM_LEN)
                  for seeds in window_seeds(table400, mem, 300))   # [0]: arm lengths
    traced = [arm.members for arm in traced_arms(table400, mem, 300)]
    assert len(set(traced)) == len(traced) == yielded
    assert yielded == len(_brute_force_arms(table400, group, 300))


@pytest.mark.parametrize("d", [None, -2, 0, 1, 3, 18])
@pytest.mark.parametrize("spec", ["div:2", "primes"])
def test_window_seeds_match_brute_force(table400, spec, d, monkeypatch):
    """window_seeds' searchsorted bounds agree with in_window and with the
    second differential D = m1 - 2*m2 + m3 (>= 1, and d when given: none for
    d <= 0), triple by triple and in lexicographic order, so each chain's
    first triple is a seed; cut into blocks of SEED_BLOCK seeds, each block
    full but the last."""
    mem = members(parse_group(spec), 300)
    expected = [(m1, m2, m3) for m1, m2, m3 in itertools.combinations(mem, 3)
                if m1 <= 75 and m1 - 2 * m2 + m3 > 0 and d in (None, m1 - 2 * m2 + m3)
                and oracle.in_window(table400, m1, m2)
                and oracle.in_window(table400, m2, m3)]
    assert expected or d not in (None, 18)
    assert _seed_list(table400, mem, 300, d) == expected
    for block in (1, 7, 1000):
        monkeypatch.setattr(arms_mod, "SEED_BLOCK", block)
        _assert_blocks(list(window_seeds(table400, mem, 300, d)), expected, block)


@settings(max_examples=200, deadline=None)
@given(list_groups(), st.sampled_from([1, 7, SEED_BLOCK]), st.data())
def test_window_seeds_of_one_second_differential_on_random_lists(table400, case, block, data):
    """The seeds of one second differential D are all the window seeds with
    each block filtered to m1 - 2*m2 + m3 == D, at any seed block size; D is
    drawn from -2..20 and from the seeds' own second differentials."""
    n, group = case
    mem = members(group, n)
    full = list(window_seeds(table400, mem, n))
    own = sorted({int(dd) for seeds in full for dd in seeds[0] - 2 * seeds[1] + seeds[2]})
    d = data.draw(st.one_of(st.integers(-2, 20), st.sampled_from(own or [1])))
    expected = [seed for seeds in full
                for seed in zip(*seeds[:, seeds[0] - 2 * seeds[1] + seeds[2] == d].tolist())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arms_mod, "SEED_BLOCK", block)
        _assert_blocks(list(window_seeds(table400, mem, n, d)), expected, block)


def test_window_predicate_matches_the_scalar_oracle():
    """The vector `in_window` of an advance agrees with the scalar oracle of
    two rays that far apart: at pi and 3*pi, at their float neighbours and on
    random advances.  Both bounds are strict."""
    bounds = np.array([math.pi, 3 * math.pi])
    assert bounds.tolist() == [WINDOW_LO, WINDOW_HI]
    advances = np.concatenate([bounds, np.nextafter(bounds, -np.inf),
                               np.nextafter(bounds, np.inf),
                               np.random.default_rng(21).uniform(-TAU, 3 * TAU, 2000)])
    got = in_window(advances)
    assert got[:6].tolist() == [False, False, False, True, True, False]
    assert got.tolist() == [oracle.in_window(SpiralTable(1, np.array([0.0, d])), 1, 2)
                            for d in advances.tolist()]


def _table2_reachable():
    """The members each `table2` check counts as reachable, read from its
    expected text, in check order."""
    return [ast.literal_eval(c.expected.split(" contains ")[1])
            for c in verify.suite_table2() if " contains " in c.expected]


def test_table2_not_found_rows_print_the_canonical_fit(monkeypatch):
    monkeypatch.setattr(verify, "find_arms", lambda arms, keys: [None] * len(keys))
    rows = [c for c in verify.suite_table2() if c.measured == "not found"]
    assert [c.expected for c in rows] == [
        str(newton_quadratic(*seq[:3]).canonicalize()[0])
        for systems in TABLE2.values() for seq in systems.values()]
    assert not any(c.ok for c in rows)


def test_table2_reachable_suffix_matches_the_scalar_walk():
    reports = _cached_arm_reports()
    assert _table2_reachable() == [
        oracle.window_filtered(table_for(reports[spec].max_n), seq)
        for spec, systems in TABLE2.items() for seq in systems.values()]


@st.composite
def _broken_sequences(draw):
    """Increasing multiples of 7 up to 600, convex in their first three (a
    Newton fit with a > 0), with steps of 7 to 280 that often leave the window."""
    g1 = draw(st.integers(1, 30))
    gaps = [g1, g1 + draw(st.integers(1, 20))] + draw(st.lists(st.integers(1, 40),
                                                              min_size=1, max_size=6))
    seq = (7 * np.cumsum([draw(st.integers(1, 10))] + gaps)).tolist()
    return [m for m in seq if m <= 600]


@settings(max_examples=150, deadline=None)
@given(_broken_sequences())
@example([7, 21, 49, 70, 105, 175, 266, 364])
@example([7, 21, 49, 70, 105, 112, 175, 266])
def test_table2_reachable_suffix_restarts_after_a_middle_break(seq):
    """Sequences that leave the window after their first step, which no
    published sequence does; every lookup is given the group's first arm."""
    table = table_for(600)
    assume(len(seq) >= 4 and not all(oracle.in_window(table, a, b)
                                     for a, b in zip(seq[1:], seq[2:])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify.pub, "TABLE2", {"div:7": {"N1": tuple(seq)}})
        mp.setattr(verify, "find_arms", lambda arms, keys: [arms[0]] * len(keys))
        assert _table2_reachable() == [oracle.window_filtered(table, seq)]
