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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

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
    table reads as."""

    members: tuple
    poly: QuadraticPoly           # canonical: b in [0, 2a); poly(start_t + i) == members[i]
    start_t: int
    drifts: tuple                 # per traced step: advance - 2*pi, in (-pi, pi)
    direction: str                # "P", "N", or "indeterminate"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction {self.direction!r} is not one of {DIRECTIONS}")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "drifts", tuple(self.drifts))

    @property
    def second_differential(self) -> int:
        return self.poly.a2

    @property
    def b_hat(self):
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
    slice gives a list of them."""

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
            self._arms[i] = Arm(self.mem[lo:hi].tolist(), QuadraticPoly(dd, b2, c2),
                                start_t, self.drift[d_lo:d_hi].tolist(), DIRECTIONS[code])
        return self._arms[i]

    def member_tuples(self, rows) -> list[tuple]:
        """The members of the arms at `rows`, one tuple each, in that order."""
        return list(map(tuple, _span_values(self.mem, *self.cols[5:7, rows], np.ndarray.tolist)))


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
    """The walk of one seed, as a block of one seed that `traced_arms` walks;
    None (a rejection) if mid-chain or shorter than MIN_ARM_LEN."""
    m1, m2, m3 = seed
    if not (m1 < m2 < m3):
        raise ValueError("seed must be strictly increasing")
    if max_n > table.max_n:
        raise ValueError(f"table covers only {table.max_n} < max_n={max_n}")
    arms = _trace_blocks(table, list(memberset), max_n,
                         [np.array([[m1], [m2], [m3]], dtype=np.int64)], density)
    return arms[0] if arms else None


def _ranges(start, stop):
    """(i, value) for every value of range(start[i], stop[i]), in order."""
    count = np.maximum(stop - start, 0)
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - (np.cumsum(count) - count)[owner] + start[owner]


#: Seeds per block of a walk: what bounds the engine's transient memory.
SEED_BLOCK = 1 << 16


def window_seeds(table: SpiralTable, mem, max_n: int, second_differential=None):
    """Seed triples (m1, m2, m3) of the sorted members `mem`, in lexicographic
    order: steps in the winding window, m1 <= max_n/4, D = m1 - 2*m2 + m3 >= 1
    or, when given, D = second_differential.  Yields them in blocks of at most
    SEED_BLOCK, each the columns of an int64 array of shape (3, seeds); the
    (m1, m2) pairs with a seed are found once, a block's m3s when asked for."""
    if max_n > table.max_n:
        raise ValueError(f"table covers only {table.max_n} < max_n={max_n}")
    mem, d = np.asarray(mem, dtype=np.int64), second_differential
    angles = table.cum_angle[mem - 1]
    lo = np.searchsorted(angles, angles + WINDOW_LO, side="right")
    hi = np.searchsorted(angles, angles + WINDOW_HI, side="left")
    n1 = np.searchsorted(mem, max_n // 4, side="right")
    i, j = _ranges(lo[:n1], hi[:n1])
    # mem is sorted, so j's m3 = 2*m2 - m1 + D of a D in bounds are one run [first, stop)
    base = 2 * mem[j] - mem[i]
    first = np.clip(np.searchsorted(mem, base + max(d or 1, 1)), lo[j], hi[j])
    stop = hi[j] if d is None else np.clip(np.searchsorted(mem, base + d, "right"), lo[j], hi[j])
    seeded = stop > first                  # the pairs with a seed
    del base                               # else held while the blocks are walked
    i, j, first, stop = i[seeded], j[seeded], first[seeded], stop[seeded]
    ends = np.cumsum(stop - first)         # seed positions: pair k's are [before, ends)
    before, m1, m2 = ends - (stop - first), mem[i], mem[j]
    m3_at = first - before                 # + a seed's position: its m3's index in mem
    for s in range(0, int(ends[-1]) if len(ends) else 0, SEED_BLOCK):
        p = slice(np.searchsorted(ends, s, side="right"), np.searchsorted(before, s + SEED_BLOCK))
        pair, at = _ranges(np.maximum(before[p], s), np.minimum(ends[p], s + SEED_BLOCK))
        yield np.stack([m1[p][pair], m2[p][pair], mem[m3_at[p][pair] + at]])


def _walk(table: SpiralTable, bitmap: np.ndarray, seeds, density: float):
    """Walk every seed (a column of `seeds`) at once over the members `bitmap`
    marks on 0..max_n, one step at a time over the live ones.

    Mid-chain seeds (a window-valid member before m1) are dropped, so each
    chain is walked once.  The walk steps to 2*cur - prev + D: to a member
    always, to a non-member while members / (length + 1) >= `density`, only
    inside the winding window; arms end on their last member.  Each visited
    angle is read once, as `table.cum_angle[n - 1]`.  Returns each seed's
    arm length (0 if rejected) and the drifts (advance - TAU, one per step)
    of the seeds of an arm of at least MIN_ARM_LEN members, in seed order.
    """
    max_n, cum = len(bitmap) - 1, table.cum_angle
    m1, m2, m3 = seeds
    d1, dd = m2 - m1, m1 - 2 * m2 + m3
    prv = m1 - d1 + dd                     # the polynomial's value at t = 0
    live = (dd > 0) & (m1 <= max_n)        # a seed past max_n takes no step
    mid = np.flatnonzero(live & (prv >= 1) & (prv < m1) & bitmap[np.clip(prv, 0, max_n)])
    adv = cum[m1[mid] - 1] - cum[prv[mid] - 1]
    live[mid[in_window(adv)]] = False
    sid = np.flatnonzero(live)
    cur, gap, angle = m1[sid], d1[sid], cum[m1[sid] - 1]
    hits, length, steps = np.ones(len(sid), dtype=np.int64), live.astype(np.int64), []
    while len(sid):                        # a live arm has len(steps) + 1 rays
        nxt = cur + gap
        inside = nxt <= max_n
        member = inside & bitmap[np.minimum(nxt, max_n)]
        go = np.flatnonzero(inside & (member | (hits / (len(steps) + 2) >= density)))
        nxt_angle = cum[nxt[go] - 1]
        step = nxt_angle - angle[go]
        win = in_window(step)
        go = go[win]
        sid, cur, angle, member = sid[go], nxt[go], nxt_angle[win], member[go]
        steps.append((sid, step[win]))
        length[sid[member]] = len(steps) + 1
        gap, hits = gap[go] + dd[sid], hits[go] + member
    span = np.where(length >= MIN_ARM_LEN, length - 1, 0)
    at, drift = np.cumsum(span) - span - 1, np.empty(span.sum())
    for col, (sid, step) in enumerate(steps, 1):
        use = col <= span[sid]
        drift[at[sid[use]] + col] = step[use] - TAU
    return length, drift


def _firsts(key: np.ndarray) -> np.ndarray:
    """True at each column of the sorted rows `key` unlike the column before."""
    return np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)][:key.shape[1]]


def canonical_keys(m1, m2, m3):
    """The canonical (D, 2b, 2c), D = 2a, of the quadratics through (1, m1),
    (2, m2), (3, m3) for int64 arrays m1, m2, m3 of D > 0, as a (3, n) array,
    and each one's canonicalizing shift s, as `newton_quadratic(m1, m2,
    m3).canonicalize()` gives them for one seed."""
    d1, dd = m2 - m1, m1 - 2 * m2 + m3
    prv = m1 - d1 + dd                     # the polynomial's value at t = 0
    b2 = 2 * d1 - 3 * dd                   # newton_quadratic's 2b
    shift = -(b2 // (2 * dd))              # QuadraticPoly.canonicalize's s
    return np.stack([dd, b2 + 2 * dd * shift,
                     2 * prv + dd * shift * shift + b2 * shift]), shift


def _keep(found: np.ndarray, drifts: np.ndarray, longest: bool = False) -> Arms:
    """The arms of the walked seeds `found`, an int64 array of rows m1, m2,
    m3 and arm length, in seed order, with their drifts `drifts` (one per
    step, in the same order): one per canonical (D, 2b, 2c), D = 2a, in that
    order, the first in seed order, or with `longest` the longest, the first
    on a tie.

    Member i of an arm is its polynomial's m1 + i*d1 + D*i*(i - 1)/2; an arm
    of k members has k - 1 drifts, and its direction code is
    `direction_codes` of them.  Rebuilt about SEED_BLOCK members at a time.
    """
    m1, m2, m3, length = found
    key, shift = canonical_keys(m1, m2, m3)
    order = np.lexsort(((-length,) if longest else ()) + tuple(key[::-1]))
    key = key[:, order]                    # lexsort is stable: seed order on ties
    first = _firsts(key)
    cols, pick = np.empty((9, np.count_nonzero(first)), dtype=np.int64), order[first]
    cols[:3], cols[3] = key[:, first], 1 - shift[pick]
    del key, shift, order, first           # peak memory: freed before the members are made
    dd, _, _, _, code, start, stop, d_lo, d_hi = cols
    size, m1, d1 = length[pick], m1[pick], m2[pick] - m1[pick]
    d_at = (np.cumsum(length - 1) - length)[pick]   # its drifts, less one, in `drifts`
    stop[:] = np.cumsum(size)
    start[:] = stop - size
    d_lo[:] = start - np.arange(len(size))     # an arm's first drift: one per step
    d_hi[:] = d_lo + size - 1
    mem, drift = np.empty(size.sum(), dtype=np.int64), np.empty(size.sum() - size.size)
    # the arms whose first member is the first in a new run of SEED_BLOCK members
    cut = np.r_[np.flatnonzero(np.diff(start // SEED_BLOCK, prepend=-1)), len(size)].tolist()
    for a, b in zip(cut, cut[1:]):         # arms a..b-1
        arm, i = _ranges(np.zeros(b - a, dtype=np.int64), size[a:b])
        mem[start[a]:stop[b - 1]] = (m1[a:b][arm] + i * d1[a:b][arm]
                                     + dd[a:b][arm] * (i * (i - 1) // 2))
        part = drift[d_lo[a]:d_hi[b - 1]]
        part[:] = drifts[(d_at[a:b][arm] + i)[i > 0]]
        code[a:b] = direction_codes(part, d_lo[a:b] - d_lo[a], size[a:b] - 1)
    return Arms(cols, mem, drift)


def _trace_blocks(table: SpiralTable, mem, max_n: int, blocks, density: float,
                 longest: bool = False) -> Arms:
    """`_keep` of the seeds of `blocks`, walked a block at a time over the
    members `mem` up to max_n; of each block only the seeds of an arm of at
    least MIN_ARM_LEN members are kept, with their lengths and drifts."""
    bitmap = np.isin(np.arange(max_n + 1), mem)
    found, drifts = [np.empty((4, 0), dtype=np.int64)], [np.empty(0)]
    for seeds in blocks:
        length, drift = _walk(table, bitmap, seeds, density)
        found.append(np.vstack([seeds, length])[:, length >= MIN_ARM_LEN])
        drifts.append(drift)
    found, drifts = np.hstack(found), np.concatenate(drifts)   # the pieces freed
    return _keep(found, drifts, longest)


def traced_arms(table: SpiralTable, mem, max_n: int, density: float = 1.0,
                second_differential=None, longest: bool = False) -> Arms:
    """Arms traced at `density` from `window_seeds`' blocks, as `_keep` dedupes and orders them."""
    seeds = window_seeds(table, mem, max_n, second_differential)
    return _trace_blocks(table, mem, max_n, seeds, density, longest)


def arm_columns(arms: Arms, bitmap: np.ndarray):
    """The arms as int64 columns: D, 2b, 2c, the length, and the count of
    members that `bitmap` marks (from one prefix sum over the flat members)."""
    dd, b2, c2, _, _, lo, hi = arms.cols[:7]
    hits = np.r_[0, np.cumsum(bitmap[arms.mem], dtype=np.int64)]
    return dd, b2, c2, hi - lo, hits[hi] - hits[lo]


def enumerate_arms(table: SpiralTable, group: NumberGroup, max_n: int) -> Arms:
    """All distinct exact arms reachable from window seeds, in canonical
    (a, b, c) order; a shared polynomial keeps the first in seed order."""
    return traced_arms(table, members(group, max_n), max_n)


@dataclass(frozen=True)
class SystemReport:
    group: NumberGroup
    max_n: int
    arms: Arms
    systems: dict                 # (direction, D) -> sorted distinct ints 2b, one per system


def classify_systems(arms: Arms, group: NumberGroup, max_n: int) -> SystemReport:
    """Group arms into systems keyed by (direction, a, b mod 2a): on the
    integers (direction code, D, 2b), as canonical b is a half-integer."""
    dd, b2, _, _, code = arms.cols[:5]
    key = np.stack([code, dd, b2])[:, np.lexsort((b2, dd, code))]
    systems = {(DIRECTIONS[code], dd): tuple(b2 for *_, b2 in rows)
               for (code, dd), rows in groupby(key[:, _firsts(key)].T.tolist(),
                                               key=lambda s: s[:2])}
    return SystemReport(group=group, max_n=max_n, arms=arms, systems=systems)


def find_arms(arms: Arms, keys) -> list:
    """Per canonical (D, 2b, 2c) tuple of `keys`, the arm with it among `arms`
    in canonical (a, b, c) order, as `enumerate_arms` returns them, or None;
    one search of the (D, 2b, 2c) rows as records, which compare field by field."""
    key = np.dtype([("D", "i8"), ("b2", "i8"), ("c2", "i8")])
    rows = np.ascontiguousarray(arms.cols[:3].T).view(key).ravel()
    at = np.searchsorted(rows, np.array(keys, dtype=key)).tolist()
    return [arms[i] if i < len(rows) and rows[i].item() == k else None for i, k in zip(at, keys)]


def b_hat_lattice_ok(b2s, dd: int, p: int) -> bool:
    """b-residues form an arithmetic progression of step p filling [0, 2a):
    on the ints 2b of second differential dd, dd / p of them, the first
    below 2p, each step 2p."""
    return (dd % p == 0 and len(b2s) == dd // p and b2s[0] < 2 * p
            and all(hi - lo == 2 * p for lo, hi in zip(b2s, b2s[1:])))


def verify_rule_5_2(report: SystemReport):
    """Per (direction, D) check p * count == D; None for non-divisor groups."""
    p = report.group.divisor
    if p is None:
        return None
    return {d: {dd: p * len(b2s) == dd
                for (direction, dd), b2s in report.systems.items() if direction == d}
            for d in ("N", "P")}


#: Arms per block when an arm report is written.
REPORT_BLOCK = 1 << 12

_ARM_JSON = ('    {{\n      "canonical": {{\n        "a": "{}",\n        "b_hat": "{}",\n'
             '        "c": "{}"\n      }},\n      "direction": "{}",\n      "drifts": {},\n'
             '      "members": {},\n      "poly": "{}",\n      "start_t": {}\n    }}').format


def _json_list(cells) -> str:
    """A list of JSON values as json.dumps(indent=2) writes it six spaces in."""
    return "[\n        " + ",\n        ".join(cells) + "\n      ]" if cells else "[]"


def _arm_blocks(arms: Arms, drifts: bool):
    """The arms in blocks of at most REPORT_BLOCK arms, as columns: D, then
    a, b_hat and c as text, start_t, direction, and per arm the list of its
    members as str and, with `drifts`, (that, the list of its drifts as JSON:
    repr(round(d, 9)), since drifts are finite)."""
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
            d: [{"D": dd, "count": len(b2s), "b_hats": half_strs(b2s)}
                for (direction, dd), b2s in report.systems.items() if direction == d]
            for d in ("N", "P")
        },
        "mixed_d": {d: n > 1 for d, n in Counter(d for d, _ in report.systems).items()},
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
