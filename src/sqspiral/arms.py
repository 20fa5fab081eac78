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

from .table import TAU, SpiralTable
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
    """A maximal traced arm with its canonical polynomial; its drifts and
    direction come from the steps of the walk that traced it."""

    members: tuple
    poly: QuadraticPoly           # canonical: b in [0, 2a)
    start_t: int                  # poly(start_t + i) == members[i]
    drifts: tuple                 # per traced step: advance - 2*pi, in (-pi, pi)
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


def trace_arm(table: SpiralTable, memberset, seed, max_n: int,
              density: float = 1.0):
    """Fit a quadratic through the seed triple and extend it forward.

    A member is always stepped to; a non-member only while members /
    (length + 1) stays >= `density` -- never at the exact arms' 1.0, at
    `primes.PRIME_DENSITY` for prime arms -- and the arm ends on its last
    member.  Each visited angle is read once; the window-valid steps give the
    drifts and direction.  Returns None (a rejection, not an error) when the
    seed does not extend to MIN_ARM_LEN members -- including an m2 or m3 that
    is not a member, is past max_n or steps outside the window, which
    `window_seeds` never yields -- or is not its chain's first triple: each
    chain is traced once, from the triple with no window-valid member before.
    """
    m1, m2, m3 = seed
    if not (m1 < m2 < m3):
        raise ValueError("seed must be strictly increasing")
    if max_n > table.max_n:
        raise ValueError(f"table covers only {table.max_n} < max_n={max_n}")
    d2 = m1 - 2 * m2 + m3
    if d2 <= 0:
        return None  # not convex: no genuine arm polynomial (a > 0 required)
    prv = 2 * m1 - m2 + d2
    if 1 <= prv < m1 and prv in memberset and in_window(table, prv, m1):
        return None  # mid-chain seed: traced from the chain's first triple
    mem, drifts, misses = [m1], [], 0
    angle, nxt = table.angle_of(m1), m2
    while nxt <= max_n:  # steps grow by d2 > 0
        if nxt not in memberset:
            if (len(mem) - misses) / (len(mem) + 1) < density:
                break
            misses += 1
        nxt_angle = table.angle_of(nxt)
        step = nxt_angle - angle
        if not WINDOW_LO < step < WINDOW_HI:
            break
        mem.append(nxt)
        drifts.append(step - TAU)  # inside the window: already in (-pi, pi)
        angle, nxt = nxt_angle, 2 * nxt - mem[-2] + d2
    while len(mem) >= MIN_ARM_LEN and mem[-1] not in memberset:
        mem.pop()
        drifts.pop()
    if len(mem) < MIN_ARM_LEN:
        return None
    canon, shift = newton_quadratic(m1, m2, m3).canonicalize()
    return Arm(members=tuple(mem), poly=canon, start_t=1 - shift,
               drifts=tuple(drifts), direction=direction_of(drifts))


def window_seeds(table: SpiralTable, mem, max_n: int):
    """Seed triples (m1, m2, m3) of the sorted members `mem`: convex
    (m1 - 2*m2 + m3 > 0), each step inside the winding window, m1 <= max_n/4.
    """
    angles = table.cum_angle[np.asarray(mem, dtype=np.intp) - 1]
    seed_bound = max_n // 4

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


def enumerate_arms(table: SpiralTable, group: NumberGroup, max_n: int) -> list[Arm]:
    """All distinct exact arms reachable from window-consistent seed triples.

    Seeds run over member triples with m1 <= max_n/4; each chain is traced
    once, forward from its first triple.  Arms deduplicate on their canonical
    polynomial and are ordered by canonical (a, b, c) -- independent of
    search order.
    """
    mem = members(group, max_n)
    memberset = set(mem)
    found: dict[tuple, Arm] = {}
    for seed in window_seeds(table, mem, max_n):
        arm = trace_arm(table, memberset, seed, max_n)
        if arm is None:
            continue
        key = (arm.poly.a, arm.poly.b, arm.poly.c)
        if key not in found:
            found[key] = arm
    return [found[key] for key in sorted(found)]


@dataclass(frozen=True)
class SystemCluster:
    """Systems of one rotation direction sharing one second differential."""

    direction: str
    second_differential: int
    b_hats: tuple                 # sorted distinct b-residues (the systems)

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
    buckets: dict[tuple, set] = {}
    for arm in arms:
        key = (arm.direction, arm.second_differential)
        buckets.setdefault(key, set()).add(arm.b_hat)
    clusters = [SystemCluster(direction=direction, second_differential=dd,
                              b_hats=tuple(sorted(b_hats)))
                for (direction, dd), b_hats in sorted(buckets.items())]
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
