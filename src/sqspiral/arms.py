"""Spiral-arm discovery: winding-to-winding tracing, direction, system counting.

An arm is a maximal run of group members whose consecutive rays advance by
one winding (angular step inside (pi, 3*pi)) and whose values follow one
quadratic polynomial.  Arms sharing (direction, a, b mod 2a) form a system;
for divisibility groups the realizable b-residues form an arithmetic
progression of step p inside [0, 2a), so a fully populated family has
exactly 2a/p systems -- the published counting rule.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .table import TAU, SpiralTable, wrap_signed
from .ratpoly import QuadraticPoly, newton_quadratic

WINDOW_LO = math.pi        # winding window: advance in (2*pi - pi, 2*pi + pi)
WINDOW_HI = 3.0 * math.pi
MIN_ARM_LEN = 5


@dataclass(frozen=True)
class NumberGroup:
    """A set of marked numbers: divisible-by-p, squares, primes, fibonacci, or
    an explicit list."""

    kind: str
    param: tuple = ()

    def __str__(self) -> str:
        if self.kind == "div":
            return f"div:{self.param[0]}"
        if self.kind == "list":
            return "list:" + ",".join(str(x) for x in self.param)
        return self.kind

    @property
    def divisor(self):
        return self.param[0] if self.kind == "div" else None


def parse_group(spec: str) -> NumberGroup:
    """Parse `div:<p>`, `squares`, `primes`, `fib`, `list:<n,n,...>`."""
    if spec in ("squares", "primes", "fib"):
        return NumberGroup(spec)
    if spec.startswith("div:"):
        p = int(spec[4:])
        if p < 1:
            raise ValueError(f"bad group spec {spec!r}: divisor must be >= 1")
        return NumberGroup("div", (p,))
    if spec.startswith("list:"):
        vals = tuple(sorted({int(x) for x in spec[5:].split(",") if x}))
        if not vals:
            raise ValueError(f"bad group spec {spec!r}: empty list")
        return NumberGroup("list", vals)
    raise ValueError(f"bad group spec {spec!r}")


def members(group: NumberGroup, max_n: int) -> list[int]:
    """Sorted group members in [1, max_n]."""
    if group.kind == "div":
        p = group.param[0]
        return list(range(p, max_n + 1, p))
    if group.kind == "squares":
        return [i * i for i in range(1, math.isqrt(max_n) + 1)]
    if group.kind == "primes":
        if max_n < 2:
            return []
        from . import primes as _primes
        bitmap = _primes.sieve(max_n).bitmap
        return [int(i) for i in np.flatnonzero(bitmap)]
    if group.kind == "fib":
        out, a, b = [], 1, 2
        while a <= max_n:
            out.append(a)
            a, b = b, a + b
        return out
    if group.kind == "list":
        return [v for v in group.param if 1 <= v <= max_n]
    raise ValueError(f"unknown group kind {group.kind!r}")


@dataclass(frozen=True)
class Arm:
    """A maximal traced arm with its canonical polynomial."""

    members: tuple
    poly: QuadraticPoly           # canonical: b in [0, 2a)
    start_t: int                  # poly(start_t + i) == members[i]
    drifts: tuple                 # per-step advance minus 2*pi, radians
    direction: str                # "P", "N", or "indeterminate"

    @property
    def second_differential(self) -> int:
        return int(2 * self.poly.a)

    @property
    def b_hat(self) -> Fraction:
        return self.poly.b


def in_window(table: SpiralTable, a: int, b: int) -> bool:
    """True when ray b lies one winding past ray a: advance in (pi, 3*pi)."""
    d = table.angle_of(b) - table.angle_of(a)
    return WINDOW_LO < d < WINDOW_HI


def step_drifts(table: SpiralTable, mem) -> tuple:
    """Signed per-step drift: angular advance minus one turn, in (-pi, pi].

    Window-valid steps land in (-pi, pi) without reduction; the wrap only
    matters when drifts are requested for raw member lists.
    """
    return tuple(wrap_signed((table.angle_of(b) - table.angle_of(a)) - TAU)
                 for a, b in zip(mem, mem[1:]))


def direction_of(table: SpiralTable, mem) -> str:
    """P/N from the median early drift (first min(5, len-1) steps).

    The median, not the mean: a single large transient on the innermost step
    must not outvote an otherwise one-sided early curl.  Calibrated so the
    square-number arms classify P.
    """
    if len(mem) < 2:
        raise ValueError("direction needs at least 2 members")
    ds = sorted(step_drifts(table, mem[: min(5, len(mem) - 1) + 1]))
    k = len(ds)
    med = ds[k // 2] if k % 2 else 0.5 * (ds[k // 2 - 1] + ds[k // 2])
    if med == 0.0:
        return "indeterminate"
    return "P" if med < 0 else "N"


def trace_arm(table: SpiralTable, memberset, seed, max_n: int):
    """Fit a quadratic through the seed triple and extend it forward.

    Returns the maximal Arm, or None when the seed is not quadratic-extendable
    to MIN_ARM_LEN members, or when it is not the first triple of its chain
    (a rejection, not an error): each chain is traced once, from the triple
    whose window-valid predecessor is missing.
    """
    m1, m2, m3 = seed
    if not (m1 < m2 < m3):
        raise ValueError("seed must be strictly increasing")
    if max_n > table.max_n:
        raise ValueError(f"table covers only {table.max_n} < max_n={max_n}")
    if not (in_window(table, m1, m2) and in_window(table, m2, m3)):
        return None
    d2 = m1 - 2 * m2 + m3
    if d2 <= 0:
        return None  # not convex: no genuine arm polynomial (a > 0 required)
    prv = 2 * m1 - m2 + d2
    if 1 <= prv < m1 and prv in memberset and in_window(table, prv, m1):
        return None  # mid-chain seed: traced from the chain's first triple
    mem = [m1, m2, m3]
    while True:  # steps grow by d2 > 0, so members rise
        nxt = 2 * mem[-1] - mem[-2] + d2
        if nxt > max_n or nxt not in memberset:
            break
        if not in_window(table, mem[-1], nxt):
            break
        mem.append(nxt)
    if len(mem) < MIN_ARM_LEN:
        return None
    canon, shift = newton_quadratic(m1, m2, m3).canonicalize()
    mem = tuple(mem)
    return Arm(members=mem, poly=canon, start_t=1 - shift,
               drifts=step_drifts(table, mem),
               direction=direction_of(table, mem))


def window_seeds(table: SpiralTable, mem, seed_bound: int):
    """Seed triples (m1, m2, m3) of the sorted members `mem`: convex
    (m1 - 2*m2 + m3 > 0), each step inside the winding window, m1 <= seed_bound.
    """
    angles = np.array([table.angle_of(m) for m in mem])

    def window_slice(i: int) -> range:
        lo = int(np.searchsorted(angles, angles[i] + WINDOW_LO, side="right"))
        hi = int(np.searchsorted(angles, angles[i] + WINDOW_HI, side="left"))
        return range(lo, hi)

    for i, m1 in enumerate(mem):
        if m1 > seed_bound:
            return
        for j in window_slice(i):
            m2 = mem[j]
            ks = window_slice(j)
            # mem is sorted, so the convex m3 > 2*m2 - m1 are a suffix of ks
            first = bisect_right(mem, 2 * m2 - m1, ks.start, ks.stop)
            for m3 in mem[first:ks.stop]:
                yield m1, m2, m3


def enumerate_arms(table: SpiralTable, group: NumberGroup, max_n: int,
                   seed_bound: int | None = None) -> list[Arm]:
    """All distinct arms reachable from window-consistent seed triples.

    Seeds run over member triples with m1 <= seed_bound (default max_n/4);
    each chain is traced once, forward from its first triple.  Arms
    deduplicate on their canonical polynomial, and the output order is by
    canonical (a, b, c), then start_t -- independent of search order.
    """
    mem = members(group, max_n)
    if seed_bound is None:
        seed_bound = max_n // 4
    memberset = set(mem)
    found: dict[tuple, Arm] = {}
    for seed in window_seeds(table, mem, seed_bound):
        arm = trace_arm(table, memberset, seed, max_n)
        if arm is None:
            continue
        key = (arm.poly.a, arm.poly.b, arm.poly.c)
        if key not in found:
            found[key] = arm
    return sorted(found.values(),
                  key=lambda a: (a.poly.a, a.poly.b, a.poly.c, a.start_t))


@dataclass(frozen=True)
class SystemCluster:
    """Systems of one rotation direction sharing one second differential."""

    direction: str
    second_differential: int
    b_hats: tuple                 # sorted distinct b-residues (the systems)
    arms: tuple

    @property
    def count(self) -> int:
        return len(self.b_hats)


@dataclass(frozen=True)
class SystemReport:
    group: NumberGroup
    max_n: int
    arms: tuple
    clusters: tuple               # SystemCluster, sorted by (direction, D)

    def cluster(self, direction: str, second_differential: int):
        for cl in self.clusters:
            if (cl.direction == direction
                    and cl.second_differential == second_differential):
                return cl
        return None

    def directions_mixed(self) -> dict[str, bool]:
        """Direction -> True when more than one second differential occurs."""
        seen: dict[str, set] = {}
        for cl in self.clusters:
            seen.setdefault(cl.direction, set()).add(cl.second_differential)
        return {d: len(s) > 1 for d, s in seen.items()}


def classify_systems(arms, group: NumberGroup, max_n: int) -> SystemReport:
    """Group arms into systems keyed by (direction, a, b mod 2a)."""
    buckets: dict[tuple, dict] = {}
    for arm in arms:
        key = (arm.direction, arm.second_differential)
        buckets.setdefault(key, {}).setdefault(arm.b_hat, []).append(arm)
    clusters = []
    for (direction, dd), by_bhat in sorted(buckets.items()):
        cluster_arms = tuple(a for bh in sorted(by_bhat) for a in by_bhat[bh])
        clusters.append(SystemCluster(direction=direction,
                                      second_differential=dd,
                                      b_hats=tuple(sorted(by_bhat)),
                                      arms=cluster_arms))
    return SystemReport(group=group, max_n=max_n, arms=tuple(arms),
                        clusters=tuple(clusters))


def b_hat_lattice_ok(cluster: SystemCluster, p: int) -> bool:
    """b-residues form an arithmetic progression of step p filling [0, 2a)."""
    bh = cluster.b_hats
    expected = Fraction(cluster.second_differential, p)
    if len(bh) != expected or expected.denominator != 1:
        return False
    steps = {b2 - b1 for b1, b2 in zip(bh, bh[1:])}
    return (not steps or steps == {Fraction(p)}) and bh[0] < p


def verify_rule_5_2(report: SystemReport):
    """Per (direction, D) check p * count == D; None for non-divisor groups."""
    p = report.group.divisor
    if p is None:
        return None
    out: dict[str, dict[int, bool]] = {"N": {}, "P": {}}
    for cl in report.clusters:
        if cl.direction in out:
            out[cl.direction][cl.second_differential] = (
                p * cl.count == cl.second_differential)
    return out


def report_json(report: SystemReport) -> str:
    rule = verify_rule_5_2(report)
    doc = {
        "group": str(report.group),
        "max_n": report.max_n,
        "arms": [
            {
                "members": list(a.members),
                "poly": str(a.poly),
                "canonical": {"a": str(a.poly.a), "b_hat": str(a.poly.b),
                              "c": str(a.poly.c)},
                "start_t": a.start_t,
                "direction": a.direction,
                "drifts": [round(d, 9) for d in a.drifts],
            }
            for a in report.arms
        ],
        "systems": {
            d: [
                {
                    "D": cl.second_differential,
                    "count": cl.count,
                    "b_hats": [str(b) for b in cl.b_hats],
                }
                for cl in report.clusters if cl.direction == d
            ]
            for d in ("N", "P")
        },
        "mixed_d": report.directions_mixed(),
        "rule_5_2": (
            None if rule is None else
            {d: {str(dd): ok for dd, ok in sorted(per.items())}
             for d, per in rule.items()}
        ),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_csv(report: SystemReport) -> str:
    lines = ["direction,D,a,b_hat,c,start_t,len,members"]
    for a in report.arms:
        lines.append(
            f"{a.direction},{a.second_differential},{a.poly.a},{a.poly.b},"
            f"{a.poly.c},{a.start_t},{len(a.members)},"
            + " ".join(str(m) for m in a.members))
    return "\n".join(lines) + "\n"
