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
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, groupby
from fractions import Fraction

import numpy as np

from .table import TAU, SpiralTable
from .ratpoly import QuadraticPoly, half_strs, poly_str

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


#: Direction names by code, in the order the names sort.
DIRECTIONS = ("N", "P", "indeterminate")


@dataclass(frozen=True)
class Arm:
    """A maximal traced arm, as a record of its fields: what a row of an `Arms`
    table reads as, and what `pack_arms` packs into one."""

    members: tuple
    poly: QuadraticPoly           # canonical: b in [0, 2a); poly(start_t + i) == members[i]
    start_t: int
    drifts: tuple                 # per traced step: advance - 2*pi, in (-pi, pi)
    direction: str                # "P", "N", or "indeterminate"

    def __post_init__(self):
        if any(q.denominator > 2 for q in (self.poly.a, self.poly.b, self.poly.c)):
            raise ValueError(f"{self.poly} has a coefficient that is not a half-integer")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction {self.direction!r} is not one of {DIRECTIONS}")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "drifts", tuple(self.drifts))

    @property
    def second_differential(self) -> int:
        return int(2 * self.poly.a)

    @property
    def b_hat(self) -> Fraction:
        return self.poly.b


def _span_values(values: np.ndarray, lo, hi, read) -> list:
    """read(values[lo[i]:hi[i]] for every i) in one call, cut into one list per span."""
    cells, ends = read(values[_ranges(lo, hi)[1]]), np.cumsum(hi - lo).tolist()
    return [cells[a:b] for a, b in zip([0] + ends, ends)]


class Arms(Sequence):
    """Arms as one table.  `cols`, int64 of shape (9, arms), holds per arm D,
    2b, 2c (D = 2a), start_t, the index of its direction in DIRECTIONS, and
    its spans [lo, hi) of the flat arrays `mem` and `drift`; each array's spans
    tile it.  Index i gives row i's `Arm`, built on the first read and kept; a
    slice gives a list of them.  A table equals a list or tuple of equal arms."""

    def __init__(self, cols: np.ndarray, mem: np.ndarray, drift: np.ndarray):
        self.cols, self.mem, self.drift, self._arms = cols, mem, drift, {}

    def __len__(self) -> int:
        return self.cols.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        if i not in self._arms:
            dd, b2, c2, start_t, code, lo, hi, d_lo, d_hi = self.cols[:, i].tolist()
            self._arms[i] = Arm(self.mem[lo:hi].tolist(), QuadraticPoly.halves(dd, b2, c2),
                                start_t, self.drift[d_lo:d_hi].tolist(), DIRECTIONS[code])
        return self._arms[i]

    def __eq__(self, other):
        return (isinstance(other, (Arms, list, tuple)) and len(self) == len(other)
                and all(map(operator.eq, self, other)))

    def member_tuples(self, rows) -> list[tuple]:
        """The members of the arms at `rows`, one tuple each, in that order."""
        return list(map(tuple, _span_values(self.mem, *self.cols[5:7, rows], np.ndarray.tolist)))


def pack_arms(arms) -> Arms:
    """`arms` as one table: itself if it is an Arms, else a table of its arms in order."""
    if isinstance(arms, Arms):
        return arms
    arms = list(arms)
    heads = [(*arm.poly.doubled(), arm.start_t, DIRECTIONS.index(arm.direction))
             for arm in arms]
    members, drifts = [arm.members for arm in arms], [arm.drifts for arm in arms]
    m, d = (np.cumsum([0] + [len(x) for x in lists]) for lists in (members, drifts))
    cols = np.vstack([np.array(heads, dtype=np.int64).reshape(-1, 5).T, m[:-1], m[1:],
                      d[:-1], d[1:]])
    return Arms(cols, np.fromiter(chain.from_iterable(members), np.int64, m[-1]),
                np.fromiter(chain.from_iterable(drifts), float, d[-1]))


def in_window(advance):
    """True where an advance (the angle of one ray less that of an earlier
    ray) is one winding: inside (pi, 3*pi), both bounds strict."""
    return (WINDOW_LO < advance) & (advance < WINDOW_HI)


def direction_codes(drift, first, count):
    """Rotation directions of many arms, as indices into DIRECTIONS: arm i's
    drifts are drift[first[i]:first[i] + count[i]], count[i] >= 1.

    An arm's direction is read from the median of its first min(5, count)
    drifts (the middle one sorted, or the half sum of the middle two): P if
    it is negative, N if positive, indeterminate if it is 0.0.  The median,
    not the mean: a single large transient on the innermost step must not
    outvote an otherwise one-sided early curl.  Calibrated so the
    square-number arms classify P.
    """
    drift = np.asarray(drift, dtype=np.float64)
    first, k = np.asarray(first, dtype=np.int64), np.minimum(count, 5)
    j = np.arange(5)
    at = np.minimum(first[:, None] + j, len(drift) - 1)
    early = np.sort(np.where(j < k[:, None], drift[at], np.inf), axis=1)
    hi = np.take_along_axis(early, (k // 2)[:, None], 1)[:, 0]
    lo = np.take_along_axis(early, ((k - 1) // 2)[:, None], 1)[:, 0]
    med = np.where(k % 2 == 1, hi, 0.5 * (lo + hi))
    return np.where(med == 0.0, 2, np.where(med < 0, 1, 0))


def trace_arm(table: SpiralTable, memberset, seed, max_n: int,
              density: float = 1.0):
    """The walk of one seed, as `traced_arms` walks every seed; None (a
    rejection) if mid-chain or shorter than MIN_ARM_LEN."""
    m1, m2, m3 = seed
    if not (m1 < m2 < m3):
        raise ValueError("seed must be strictly increasing")
    if max_n > table.max_n:
        raise ValueError(f"table covers only {table.max_n} < max_n={max_n}")
    arms = _keep(_walk(table, list(memberset),
                       np.array([[m1], [m2], [m3]], dtype=np.int64), max_n, density))
    return arms[0] if arms else None


def _ranges(start, stop):
    """(i, value) for every value of range(start[i], stop[i]), in order."""
    count = np.maximum(stop - start, 0)
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - (np.cumsum(count) - count)[owner] + start[owner]


def window_seeds(table: SpiralTable, mem, max_n: int):
    """Seed triples (m1, m2, m3) of the sorted members `mem`, the columns of an
    int64 array of shape (3, seeds) in lexicographic order: convex
    (m1 - 2*m2 + m3 > 0), each step inside the winding window, m1 <= max_n/4."""
    if max_n > table.max_n:
        raise ValueError(f"table covers only {table.max_n} < max_n={max_n}")
    mem = np.asarray(mem, dtype=np.int64)
    angles = table.cum_angle[mem - 1]
    lo = np.searchsorted(angles, angles + WINDOW_LO, side="right")
    hi = np.searchsorted(angles, angles + WINDOW_HI, side="left")
    n1 = np.searchsorted(mem, max_n // 4, side="right")
    i, j = _ranges(lo[:n1], hi[:n1])
    # mem is sorted, so the convex m3 > 2*m2 - m1 are a suffix of j's window
    first = np.clip(np.searchsorted(mem, 2 * mem[j] - mem[i], side="right"),
                    lo[j], hi[j])
    pair, k = _ranges(first, hi[j])
    return np.stack([mem[i[pair]], mem[j[pair]], mem[k]])


def _walk(table: SpiralTable, mem, seeds, max_n: int, density: float):
    """Walk every seed (a column of `seeds`) at once over the members `mem`
    up to max_n, one step at a time over the live ones.

    Mid-chain seeds (a window-valid member before m1) are dropped, so each
    chain is walked once.  The walk steps to 2*cur - prev + D: to a member
    always, to a non-member while members / (length + 1) >= `density`, only
    inside the winding window; arms end on their last member.  Each visited
    angle is read once, as `table.cum_angle[n - 1]`.  Returns (seeds, each
    seed's arm length, columns), column i the (seed index, ray, step) of the
    seeds that took step i.
    """
    bitmap = np.isin(np.arange(max_n + 1), mem)
    cum = table.cum_angle
    m1, m2, m3 = seeds
    d1, dd = m2 - m1, m1 - 2 * m2 + m3
    prv = m1 - d1 + dd                     # the polynomial's value at t = 0
    live = (dd > 0) & (m1 <= max_n)        # a seed past max_n takes no step
    mid = np.flatnonzero(live & (prv >= 1) & (prv < m1) & bitmap[np.clip(prv, 0, max_n)])
    adv = cum[m1[mid] - 1] - cum[prv[mid] - 1]
    live[mid[in_window(adv)]] = False
    sid = np.flatnonzero(live)
    cur, gap, angle = m1[sid], d1[sid], cum[m1[sid] - 1]
    hits, length, columns = np.ones(len(sid), dtype=np.int64), live.astype(np.int64), []
    while len(sid):                        # a live arm has len(columns) + 1 rays
        nxt = cur + gap
        inside = nxt <= max_n
        member = inside & bitmap[np.minimum(nxt, max_n)]
        go = np.flatnonzero(inside & (member | (hits / (len(columns) + 2) >= density)))
        nxt_angle = cum[nxt[go] - 1]
        step = nxt_angle - angle[go]
        win = in_window(step)
        go = go[win]
        sid, cur, angle, member = sid[go], nxt[go], nxt_angle[win], member[go]
        columns.append((sid, cur, step[win]))
        length[sid[member]] = len(columns) + 1
        gap, hits = gap[go] + dd[sid], hits[go] + member
    return seeds, length, columns


def _firsts(key: np.ndarray) -> np.ndarray:
    """True at each column of the sorted rows `key` unlike the column before."""
    return np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)][:key.shape[1]]


def _keep(walk, longest: bool = False) -> Arms:
    """The arms of a `_walk` with at least MIN_ARM_LEN members, one per
    canonical (D, 2b, 2c), D = 2a, in that order: the first in seed order, or
    with `longest` the longest, the first on a tie.

    Direction codes are `direction_codes` of the steps' drifts, one per step,
    so an arm of k members has k - 1.  The walk's columns are emptied as read.
    """
    seeds, length, columns = walk
    kept = np.flatnonzero(length >= MIN_ARM_LEN)
    m1, m2, m3 = seeds[:, kept]
    d1, dd = m2 - m1, m1 - 2 * m2 + m3
    prv = m1 - d1 + dd                     # the polynomial's value at t = 0
    b2 = 2 * d1 - 3 * dd                   # newton_quadratic's 2b
    shift = -(b2 // (2 * dd))              # QuadraticPoly.canonicalize's s
    key = np.stack([dd, b2 + 2 * dd * shift, 2 * prv + dd * shift * shift + b2 * shift])
    order = np.lexsort(((-length[kept],) if longest else ()) + tuple(key[::-1]))
    key = key[:, order]                    # lexsort is stable: seed order on ties
    first = _firsts(key)
    (dd, b2, c2), pick = key[:, first], order[first]
    kept, shift, size = kept[pick], shift[pick], length[kept[pick]]
    start = np.cumsum(size) - size
    d_lo = start - np.arange(len(size))    # an arm's first drift: one per step
    at, span, d_at = np.zeros((3, len(length)), dtype=np.int64)   # per seed
    at[kept], span[kept], d_at[kept] = start, size, d_lo - 1
    mem, drift = np.empty(size.sum(), dtype=np.int64), np.empty(size.sum() - size.size)
    mem[start] = m1[pick]
    for col in range(len(columns), 0, -1):    # peak memory: free each column once read
        sid, ray, step = columns.pop()
        use = col < span[sid]
        sid = sid[use]
        mem[at[sid] + col], drift[d_at[sid] + col] = ray[use], step[use] - TAU
    code = direction_codes(drift, d_lo, size - 1)
    return Arms(np.stack([dd, b2, c2, 1 - shift, code, start, start + size, d_lo,
                          d_lo + size - 1]), mem, drift)


def traced_arms(table: SpiralTable, mem, max_n: int, density: float = 1.0,
                second_differential=None, longest: bool = False) -> Arms:
    """Arms traced at `density` from `window_seeds(table, mem, max_n)` (of
    one second differential, when given), as `_keep` dedupes and orders them."""
    seeds = window_seeds(table, mem, max_n)
    if second_differential is not None:
        seeds = seeds[:, seeds[0] - 2 * seeds[1] + seeds[2] == second_differential]
    return _keep(_walk(table, mem, seeds, max_n, density), longest)


def arm_columns(arms, bitmap: np.ndarray):
    """The arms as int64 columns: D, 2b, 2c, the length, and the count of
    members that `bitmap` marks (from one prefix sum over the flat members)."""
    arms = pack_arms(arms)
    dd, b2, c2, _, _, lo, hi = arms.cols[:7]
    hits = np.r_[0, np.cumsum(bitmap[arms.mem], dtype=np.int64)]
    return dd, b2, c2, hi - lo, hits[hi] - hits[lo]


def enumerate_arms(table: SpiralTable, group: NumberGroup, max_n: int) -> Arms:
    """All distinct exact arms reachable from window seeds, in canonical
    (a, b, c) order; a shared polynomial keeps the first in seed order."""
    return traced_arms(table, members(group, max_n), max_n)


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
    arms: Arms
    clusters: tuple               # SystemCluster, sorted by (direction, D)

    def cluster(self, direction: str, second_differential: int):
        return next((cl for cl in self.clusters if (cl.direction, cl.second_differential)
                     == (direction, second_differential)), None)

    def directions_mixed(self) -> dict[str, bool]:
        """Direction -> True when more than one second differential occurs."""
        seen: dict[str, set] = {}
        for cl in self.clusters:
            seen.setdefault(cl.direction, set()).add(cl.second_differential)
        return {d: len(s) > 1 for d, s in seen.items()}


def classify_systems(arms, group: NumberGroup, max_n: int) -> SystemReport:
    """Group arms into systems keyed by (direction, a, b mod 2a): on the
    integers (direction code, D, 2b), as canonical b is a half-integer."""
    arms = pack_arms(arms)
    dd, b2, _, _, code = arms.cols[:5]
    key = np.stack([code, dd, b2])[:, np.lexsort((b2, dd, code))]
    systems = key[:, _firsts(key)].T.tolist()
    clusters = [SystemCluster(direction=DIRECTIONS[code], second_differential=dd,
                              b_hats=tuple(Fraction(b2, 2) for *_, b2 in rows))
                for (code, dd), rows in groupby(systems, key=lambda s: s[:2])]
    return SystemReport(group=group, max_n=max_n, arms=arms, clusters=tuple(clusters))


def find_arms(arms, polys) -> list:
    """Per canonical polynomial of `polys`, the arm with it among `arms` in
    canonical (a, b, c) order, as `enumerate_arms` returns them, or None; one
    search of the (D, 2b, 2c) rows as records, which compare field by field."""
    arms, key = pack_arms(arms), np.dtype([("D", "i8"), ("b2", "i8"), ("c2", "i8")])
    rows = np.ascontiguousarray(arms.cols[:3].T).view(key).ravel()
    keys = [poly.doubled() or (0, 0, 0) for poly in polys]  # no arm has D = 0
    at = np.searchsorted(rows, np.array(keys, dtype=key)).tolist()
    return [arms[i] if i < len(rows) and rows[i].item() == k else None for i, k in zip(at, keys)]


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
    return {d: {cl.second_differential: p * cl.count == cl.second_differential
                for cl in report.clusters if cl.direction == d} for d in ("N", "P")}


#: Arms per block when an arm report is written.
REPORT_BLOCK = 1 << 12

_ARM_JSON = ('    {{\n      "canonical": {{\n        "a": "{}",\n        "b_hat": "{}",\n'
             '        "c": "{}"\n      }},\n      "direction": "{}",\n      "drifts": {},\n'
             '      "members": {},\n      "poly": "{}",\n      "start_t": {}\n    }}').format


def _json_list(cells) -> str:
    """A list of JSON values as json.dumps(indent=2) writes it six spaces in."""
    return "[\n        " + ",\n        ".join(cells) + "\n      ]" if cells else "[]"


def _arm_blocks(arms, drifts: bool):
    """The arms in blocks of at most REPORT_BLOCK arms, as columns: D, then
    a, b_hat and c as text, start_t, direction, and per arm the list of its
    members as str and, with `drifts`, (that, the list of its drifts as JSON:
    repr(round(d, 9)), since drifts are finite)."""
    arms = pack_arms(arms)
    for i in range(0, len(arms), REPORT_BLOCK):
        dd, b2, c2, start_t, code, lo, hi, d_lo, d_hi = arms.cols[:, i:i + REPORT_BLOCK]
        cells = _span_values(arms.mem, lo, hi, lambda v: list(map(str, v.tolist())))
        if drifts:
            cells = cells, _span_values(arms.drift, d_lo, d_hi,
                                        lambda v: [repr(round(d, 9)) for d in v.tolist()])
        dd = dd.tolist()
        yield (dd, *map(half_strs, (dd, b2.tolist(), c2.tolist())), start_t.tolist(),
               [DIRECTIONS[c] for c in code.tolist()], cells)


def report_json_blocks(report: SystemReport):
    """The report as json.dumps(indent=2, sort_keys=True) writes its document,
    in blocks: the arms' are written here, the small tail by json."""
    rule = verify_rule_5_2(report)
    tail = json.dumps({
        "group": str(report.group),
        "max_n": report.max_n,
        "systems": {
            d: [{"D": cl.second_differential, "count": cl.count,
                 "b_hats": [str(b) for b in cl.b_hats]}
                for cl in report.clusters if cl.direction == d]
            for d in ("N", "P")
        },
        "mixed_d": report.directions_mixed(),
        "rule_5_2": (None if rule is None else
                     {d: {str(dd): ok for dd, ok in sorted(per.items())}
                      for d, per in rule.items()}),
    }, indent=2, sort_keys=True)
    first = True
    for _, a, b, c, start_t, direction, (members, drifts) in _arm_blocks(report.arms, True):
        yield ('{\n  "arms": [\n' if first else ",\n") + ",\n".join(map(
            _ARM_JSON, a, b, c, direction, map(_json_list, drifts),
            map(_json_list, members), map(poly_str, a, b, c), start_t))
        first = False
    yield ('{\n  "arms": [],' if first else "\n  ],") + tail[1:] + "\n"


def report_csv_blocks(report: SystemReport):
    yield "direction,D,a,b_hat,c,start_t,len,members\n"
    for dd, a, b, c, start_t, direction, members in _arm_blocks(report.arms, False):
        yield "".join(map("{},{},{},{},{},{},{},{}\n".format, direction, dd, a, b, c,
                          start_t, map(len, members), map(" ".join, members)))


def report_json(report: SystemReport) -> str:
    return "".join(report_json_blocks(report))


def report_csv(report: SystemReport) -> str:
    return "".join(report_csv_blocks(report))
