"""The kept arms as one columnar table, `arms.Arms`.

A walk's arms are int64 columns and flat member and drift arrays; an `Arm`
is built only when an index is read.  The bucketing below is
`classify_systems` as it was when it read one `Arm` at a time, the oracle for
the bucketing on columns.
"""
import dataclasses
import gc
import math
import pickle
import tracemalloc
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from sqspiral import verify
from sqspiral.arms import (Arm, Arms, classify_systems, enumerate_arms, members,
                           parse_group, traced_arms)
from sqspiral.primes import PRIME_DENSITY
from sqspiral.ratpoly import QuadraticPoly
from sqspiral.table import table_for
from sqspiral.verify import _cached_arm_reports

from arm_packing import pack_arms


def old_clusters(arms) -> list:
    """(direction, D, b_hats) per cluster, bucketed one arm at a time."""
    systems = sorted({(arm.direction, arm.second_differential, arm.b_hat) for arm in arms})
    return [(direction, dd, tuple(b_hat for *_, b_hat in rows))
            for (direction, dd), rows in groupby(systems, key=lambda s: s[:2])]


def clusters(report) -> list:
    """(direction, D, b_hats) per cluster, its b-residues read from its ints 2b."""
    return [(direction, dd, tuple(Fraction(b2, 2) for b2 in b2s))
            for (direction, dd), b2s in report.systems.items()]


def _mixed(table):
    """Arms of two walks, out of order, and one arm built by hand."""
    walk7, walk11 = (traced_arms(table, np.array(members(parse_group(spec), 2000)), 2000)
                     for spec in ("div:7", "div:11"))
    hand = Arm([5, 9, 14], QuadraticPoly(1, 5, 4), 1, [0.1, -0.2],
               "indeterminate")
    return walk11[::40] + [hand] + walk7[:30] + walk11[-3:] + walk7[5:8]


def test_a_walk_is_one_table(table2000):
    arms = enumerate_arms(table2000, parse_group("div:7"), 2000)
    n = len(arms)
    assert isinstance(arms, Arms) and arms.cols.shape == (9, n) and n > 100
    assert arms.cols.dtype == np.int64 and arms.mem.dtype == np.int64
    assert arms[0] is arms[0] and arms[-1] is arms[n - 1] and arms[-n] is arms[0]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            arms[i]
    part = arms[2:9:3]
    assert type(part) is list and [a is b for a, b in zip(part, (arms[2], arms[5], arms[8]))] \
        == [True] * 3
    assert arms[::-1][0] is arms[-1] and arms[n:] == []
    listed = list(arms)
    assert len(listed) == n and all(arm is arms[i] for i, arm in enumerate(listed))
    assert list(pack_arms(listed)) == listed and list(pack_arms(listed[::-1])) == listed[::-1]
    assert pack_arms(arms) is arms
    assert arms.member_tuples([3, 0]) == [arms[3].members, arms[0].members]
    empty = enumerate_arms(table2000, parse_group("list:601"), 600)
    assert len(empty) == 0 and list(empty) == []
    assert empty[0:5] == [] and empty.member_tuples([]) == []


def test_a_list_packs_into_one_table(table2000):
    arms = _mixed(table2000)
    packed = pack_arms(arms)
    assert len(packed) == len(arms) and list(packed) == arms
    assert [(a.members, a.drifts, a.direction) for a in packed] == \
        [(a.members, a.drifts, a.direction) for a in arms]
    assert packed.member_tuples(range(len(arms))) == [a.members for a in arms]
    assert list(pack_arms([])) == [] and pack_arms([]).cols.shape == (9, 0)


def test_an_arm_is_a_record_that_pickles_alone():
    """A row read from a table is a frozen record of its own fields: it keeps no
    reference to the table, so pickling it does not pickle the walk's arms."""
    arms = _cached_arm_reports()["div:2"].arms
    arm = arms[3]
    data = pickle.dumps(arm)
    back = pickle.loads(data)
    assert len(arms) > 1000 and len(data) < 1024
    assert back == arm and hash(back) == hash(arm)
    assert not any(isinstance(v, Arms) for v in vars(arm).values())
    with pytest.raises(dataclasses.FrozenInstanceError):
        arm.start_t = 0
    hand = Arm([5, 9, 14], QuadraticPoly(1, 5, 4), 1, [0.1, -0.2],
               "N")
    assert hand.members == (5, 9, 14) and hand.drifts == (0.1, -0.2)


def test_a_walk_holds_little_beside_its_table():
    """The seeds are walked in bounded blocks and the kept arms rebuilt in
    bounded blocks, so the walk's traced peak stays within 2.75 times the
    bytes of the table it returns (div:2 at 1200: 274,300 seeds, 84,961 arms)."""
    table = table_for(1200)
    tracemalloc.start()
    try:
        arms = enumerate_arms(table, parse_group("div:2"), 1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arms) == 84961
    assert peak <= 2.75 * (arms.cols.nbytes + arms.mem.nbytes + arms.drift.nbytes)


@pytest.mark.parametrize("spec, density", [("div:7", 1.0), ("primes", PRIME_DENSITY)])
def test_drift_spans_tile_the_drift_array(table2000, spec, density):
    """A walk's drift array holds one drift per step and nothing else: the
    drift spans (rows 7 and 8) follow one another from 0, an arm of k members
    has k - 1 drifts, and every drift lies in (-pi, pi)."""
    arms = traced_arms(table2000, np.array(members(parse_group(spec), 2000)), 2000, density)
    lo, hi, d_lo, d_hi = arms.cols[5:9]
    assert len(arms) > 100 and d_lo[0] == 0 and (d_lo[1:] == d_hi[:-1]).all()
    assert d_hi[-1] == len(arms.drift) == (hi - lo - 1).sum()
    assert ((-math.pi < arms.drift) & (arms.drift < math.pi)).all()


def test_classify_on_columns_matches_the_arm_by_arm_bucketing(table2000):
    for spec, report in _cached_arm_reports().items():
        assert clusters(report) == old_clusters(report.arms), spec
    arms = _mixed(table2000)
    report = classify_systems(pack_arms(arms), parse_group("div:7"), 2000)
    assert list(report.arms) == arms
    assert clusters(report) == old_clusters(arms)
    assert clusters(report)[-1] == ("indeterminate", 1, (Fraction(5, 2),))
    assert {direction for direction, _ in report.systems} == {"N", "P", "indeterminate"}


def test_verify_arm_suites_build_views_only_where_read():
    """The nine arm reports, `table2` and `rule52` build an `Arm` only for an
    arm they read (about sixty), not one per arm (38,758 over the reports).
    A table keeps the arms it built, so the arms built are the `Arm`s alive
    after the suites and not before."""
    def alive():
        return sum(type(obj) is Arm for obj in gc.get_objects())

    _cached_arm_reports.cache_clear()
    gc.collect()
    before = alive()
    try:
        reports = _cached_arm_reports()
        checks = verify.suite_table2() + verify.suite_rule52()
        built = alive() - before
        arms = sum(len(r.arms) for r in reports.values())
    finally:
        _cached_arm_reports.cache_clear()
    assert all(c.ok for c in checks)
    assert arms == 38758
    assert 0 < built <= 300
