"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output is
correct.  The checks recompute what they compare against with `oracles`
and never call into sqspiral.
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import oracles as orc

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DEG = 180.0 / math.pi

# The paper's Table 2 system counts per divisor: (direction, systems, D),
# where D = 2a is the second differential and systems = D / p.
PAPER_SYSTEMS = {
    2: (("N", 10, 20), ("P", 9, 18)),
    3: (("N", 7, 21), ("P", 6, 18)),
    5: (("N", 4, 20), ("P", 4, 20)),
    7: (("N", 3, 21), ("P", 3, 21)),
    11: (("N", 2, 22), ("P", 2, 22)),
    13: (("N", 2, 26), ("P", 1, 13)),
}
# Square numbers: three positive systems of second differential 18, no
# negative one.
PAPER_SQUARE_SYSTEMS = ("P", 3, 18)


def doubled(a, b, c) -> tuple:
    """(2a, 2b, 2c) of Fractions as integers; None unless all are half-integers."""
    if any(x.denominator not in (1, 2) for x in (a, b, c)):
        return None
    return tuple(x.numerator * (2 // x.denominator) for x in (a, b, c))


def canonical_poly(members) -> tuple:
    """(2a, 2b, 2c, t0) with b in [0, 2a) and (2a*t^2 + 2b*t + 2c)/2 equal to
    members[i] at t = t0 + i, fitted through the first three members."""
    m1, m2, m3 = members[:3]
    a2 = m1 - 2 * m2 + m3
    b2 = 2 * (m2 - m1) - 3 * a2    # fit at t = 1, 2, 3
    c2 = 2 * m1 - a2 - b2
    s = -(b2 // (2 * a2))          # shift t -> t + s puts b in [0, 2a)
    return a2, b2 + 2 * a2 * s, c2 + a2 * s * s + b2 * s, 1 - s


# --------------------------------------------------------------------------
def arm_problems(spec: str, n: int, arms) -> list[str]:
    """Arms as (members, a, b_hat, c, start_t): group, polynomial, window,
    maximality.  `arms` must not repeat a run."""
    out = []
    runs = [tuple(m) for m, *_ in arms]
    if len(set(runs)) != len(runs):
        out.append(f"{spec} n={n}: an arm is listed twice")
    need = set()
    for mem in runs:
        need.update(mem)
        if len(mem) >= 3:
            d2 = mem[0] - 2 * mem[1] + mem[2]
            for cand in (2 * mem[-1] - mem[-2] + d2, 2 * mem[0] - mem[1] + d2):
                if 1 <= cand <= n and orc.in_group(spec, cand):
                    need.add(cand)
    angle = orc.angles_of(need)
    for mem, a, b, c, start_t in arms:
        label = f"{spec} n={n} arm {list(mem[:3])}"
        if len(mem) < orc.MIN_ARM_LEN:
            out.append(f"{label}: only {len(mem)} members")
            continue
        if not all(1 <= m <= n and orc.in_group(spec, m) for m in mem):
            out.append(f"{label}: a member is outside the group")
        d2s = {x - 2 * y + z for x, y, z in zip(mem, mem[1:], mem[2:])}
        if len(d2s) != 1 or min(d2s) <= 0:
            out.append(f"{label}: second differences {sorted(d2s)} are not "
                       f"one positive constant")
            continue
        fit = canonical_poly(mem)
        if doubled(a, b, c) != fit[:3] or start_t != fit[3]:
            out.append(f"{label}: polynomial {a}, {b}, {c} from t={start_t} "
                       f"is not the canonical fit")
        a2, b2, c2, _ = fit
        if any(a2 * t * t + b2 * t + c2 != 2 * m for t, m in enumerate(mem, fit[3])):
            out.append(f"{label}: members do not follow the polynomial")
        if not all(orc.window_ok(angle, u, v) for u, v in zip(mem, mem[1:])):
            out.append(f"{label}: a step leaves the (pi, 3pi) window")
        nxt = 2 * mem[-1] - mem[-2] + a2
        prv = 2 * mem[0] - mem[1] + a2
        if nxt <= n and nxt in angle and orc.window_ok(angle, mem[-1], nxt):
            out.append(f"{label}: extends forward to {nxt}")
        if 1 <= prv < mem[0] and prv in angle and orc.window_ok(angle, prv, mem[0]):
            out.append(f"{label}: extends backward to {prv}")
    return out


def system_problems(spec: str, n: int, directed) -> list[str]:
    """Paper's Table 2 counts from arms as (direction, a, b_hat)."""
    systems = {}
    for direction, a, b in directed:
        systems.setdefault((direction, int(2 * a)), set()).add(b)
    if spec == "squares":
        want = (PAPER_SQUARE_SYSTEMS,)
        if ("N", PAPER_SQUARE_SYSTEMS[2]) in systems:
            return [f"squares n={n}: a negative system with D=18"]
    elif spec.startswith("div:") and int(spec[4:]) in PAPER_SYSTEMS:
        want = PAPER_SYSTEMS[int(spec[4:])]
    else:
        return []
    out = []
    for direction, count, dd in want:
        got = len(systems.get((direction, dd), ()))
        if got != count:
            out.append(f"{spec} n={n}: {got} {direction} systems with D={dd}, "
                       f"paper has {count}")
    return out


def brute_force_problems(spec: str, n: int, runs) -> list[str]:
    """The traced arms are exactly the brute-force runs."""
    want = orc.brute_force_arms(spec, n)
    got = {tuple(r) for r in runs}
    if got == want:
        return []
    return [f"{spec} n={n}: {len(want - got)} brute-force arms missing, "
            f"{len(got - want)} extra"]


def prime_arm_problems(n: int, rows, threshold: float) -> list[str]:
    """Prime arms as (members, a, b_hat, c, prime_count, density)."""
    out = []
    angle = orc.angles_of({m for row in rows for m in row[0]})
    for mem, a, b, c, count, density in rows:
        label = f"prime arm n={n} {list(mem[:3])}"
        if len(mem) < orc.MIN_ARM_LEN or max(mem) > n:
            out.append(f"{label}: {len(mem)} members up to {max(mem)}")
            continue
        d2s = {x - 2 * y + z for x, y, z in zip(mem, mem[1:], mem[2:])}
        if d2s != {18} or 2 * a != 18:
            out.append(f"{label}: second differences {sorted(d2s)}, not D=18")
            continue
        if doubled(a, b, c) != canonical_poly(mem)[:3]:
            out.append(f"{label}: polynomial is not the canonical fit")
        if not (orc.is_prime(mem[0]) and orc.is_prime(mem[-1])):
            out.append(f"{label}: does not start and end on a prime")
        primes = sum(1 for m in mem if orc.is_prime(m))
        if primes != count or abs(density - primes / len(mem)) > 1e-4:
            out.append(f"{label}: {count} primes claimed, {primes} by trial division")
        if primes / len(mem) < threshold:
            out.append(f"{label}: density {primes / len(mem):.3f} below {threshold}")
        if not all(orc.window_ok(angle, u, v) for u, v in zip(mem, mem[1:])):
            out.append(f"{label}: a step leaves the (pi, 3pi) window")
    return out


# --------------------------------------------------------------------------
# CLI outputs.  `code` is the exit code and `text` the captured stdout.

def csv_rows(text: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def series_terms(text: str) -> dict[int, float]:
    return {int(i): float(v) for i, v in csv_rows(text)}


def exit_problems(label: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{label}: exit code {code}"]


def band_problems(terms: dict) -> list[str]:
    """Square-band ratios against the closed form and an fsum recount."""
    out = []
    for m, v in terms.items():
        if m >= 10:
            closed = (3 * m * m + 9 * m + 7) / (3 * m * m + 3 * m + 1)
            if abs(v - closed) > 1e-3:
                out.append(f"band ratio M={m}: {v} is not near {closed}")

    def band(m):
        return math.fsum(math.sqrt(j) for j in range(m * m, m * m + 2 * m + 1))

    for m in (1, 2, max(terms)):
        if abs(terms[m] - band(m + 1) / band(m)) > 2e-9:
            out.append(f"band ratio M={m}: {terms[m]} differs from the fsum recount")
    return out


def square_angle_problems(terms: dict) -> list[str]:
    """Angles between rays k^2 and (k+1)^2 fall monotonically toward 2."""
    out = []
    ks = sorted(terms)
    gaps = [abs(terms[k] - 2.0) for k in ks if k >= 5]
    if any(b > a + 1e-9 for a, b in zip(gaps, gaps[1:])):
        out.append("square angles do not approach 2 monotonically")
    if gaps[-1] > 1e-3:
        out.append(f"square angle at k={ks[-1]} is {terms[ks[-1]]}, not near 2")
    probe = (1, 2, ks[len(ks) // 2], ks[-1])
    angle = orc.angles_of(r for k in probe for r in (k * k, (k + 1) ** 2))
    for k in probe:
        want = angle[(k + 1) ** 2] - angle[k * k]
        if abs(terms[k] - want) > 1e-8:
            out.append(f"square angle k={k}: {terms[k]}, oracle {want}")
    return out


def same_arm_problems(terms: dict) -> list[str]:
    """Wrapped angle between rays r^2 and (r+3)^2 in degrees -> 360 - 1080/pi."""
    out = []
    limit = 360.0 - 3 * (360.0 / math.pi)
    last = max(terms)
    if abs(terms[last] - limit) > 1e-3:
        out.append(f"same-arm angle at r={last} is {terms[last]}, not near {limit}")
    probe = (1, 5, last)
    angle = orc.angles_of(q for r in probe for q in (r * r, (r + 3) ** 2))
    for r in probe:
        d = math.remainder(angle[(r + 3) ** 2] - angle[r * r], 2 * math.pi)
        if abs(terms[r] - abs(d) * DEG) > 1e-6:
            out.append(f"same-arm angle r={r}: {terms[r]}, oracle {abs(d) * DEG}")
    return out


def crossing_problems(doc: dict) -> list[str]:
    """Axis crossings: each ray is nearest its axis, second differences constant."""
    out = []
    cross = doc["crossings"]
    diffs = [x - 2 * y + z for x, y, z in zip(cross, cross[1:], cross[2:])]
    if doc["second_diffs"] != diffs or len(set(diffs)) != 1:
        out.append(f"crossings {cross}: second differences {doc['second_diffs']} "
                   f"are not one constant")
    angle = orc.angles_of(m for n in cross[1:] for m in (n - 1, n, n + 1))
    for w, n in enumerate(cross[1:], 2):
        axis = (w - 1) * 2 * math.pi
        if min((n - 1, n, n + 1), key=lambda m: abs(angle[m] - axis)) != n:
            out.append(f"winding {w}: ray {n} is not the nearest to the axis")
    return out


def winding_distance_problems(text: str) -> list[str]:
    """Rows n,m,distance: m is one turn past n and the distances tend to pi."""
    rows = [(int(n), int(m), float(d), int(w)) for n, m, d, w, _ in csv_rows(text)]
    out = []
    for n, m, d, _ in rows:
        if abs(d - (math.sqrt(m) - math.sqrt(n))) > 1e-6:
            out.append(f"winding distance {n},{m}: {d}")
            break
    probe = rows[:: max(1, len(rows) // 8)]
    angle = orc.angles_of(q for n, m, _, _ in probe for q in (n, m - 1, m, m + 1))
    for n, m, _, _ in probe:
        gap = {q: abs(angle[q] - angle[n] - 2 * math.pi) for q in (m - 1, m, m + 1)}
        if min(gap, key=gap.get) != m:
            out.append(f"winding distance row {n}: ray {m} is not one turn past")
    top = max(w for *_, w in rows)
    last = [d for *_, d, w in rows if w == top - 1]
    if abs(sum(last) / len(last) - math.pi) > 0.01:
        out.append(f"winding {top - 1}: mean distance {sum(last) / len(last)}, not near pi")
    return out


def fib_numbers(count: int) -> list[int]:
    out = [1, 2]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def fib_angle_problems(terms: dict, table_top: int) -> list[str]:
    """Angles between Fibonacci rays: oracle values where the oracle reaches,
    and step ratios tending to sqrt(golden)."""
    out = []
    count = max(terms)
    fibs = fib_numbers(count + 1)
    reach = [k for k in range(1, count + 1) if fibs[k] <= table_top]
    angle = orc.angles_of(fibs[: len(reach) + 1])
    for k in reach:
        want = (angle[fibs[k]] - angle[fibs[k - 1]]) * DEG
        if abs(terms[k] - want) > 1e-7:
            out.append(f"fib angle {k}: {terms[k]}, oracle {want}")
    ratio = terms[count] / terms[count - 1]
    if abs(ratio - math.sqrt(GOLDEN)) > 1e-5:
        out.append(f"fib angle ratio at {count}: {ratio}, not near sqrt(golden)")
    return out


def fib_area_problems(terms: dict) -> list[str]:
    """Area ratios of Fibonacci bands tend to golden^1.5; early ones by fsum."""
    out = []
    count = max(terms)
    if abs(terms[count] - GOLDEN ** 1.5) > 1e-5:
        out.append(f"fib area ratio at {count}: {terms[count]}, not near golden^1.5")
    fibs = fib_numbers(12)

    def band(k):
        return math.fsum(math.sqrt(j) for j in range(fibs[k], fibs[k + 1]))

    for k in range(1, 10):
        if abs(terms[k] - band(k) / band(k - 1)) > 2e-9:
            out.append(f"fib area ratio {k}: {terms[k]} differs from the fsum recount")
    return out


def scan_problems(text: str, dd: int, c_min: int, c_max: int, t_max: int) -> list[str]:
    """Every scanned polynomial's prime count, recounted by trial division."""
    out = []
    seen = []
    prime = {}
    for a, b, c, t, count, density, coprime in csv_rows(text):
        a2, b2, c2 = doubled(Fraction(a), Fraction(b), Fraction(c)) or (0, 0, 0)
        if a2 != dd or not c_min <= c2 / 2 <= c_max or int(t) != t_max:
            out.append(f"scan row {a},{b},{c}: outside the requested scan")
            continue
        vals = [(a2 * x * x + b2 * x + c2) // 2 for x in range(1, t_max + 1)]
        hits = 0
        for v in vals:
            if v not in prime:
                prime[v] = orc.is_prime(v)
            hits += prime[v]
        if hits != int(count) or abs(float(density) - hits / t_max) > 1e-6:
            out.append(f"scan row {a},{b},{c}: {count} primes claimed, {hits} counted")
        if (coprime == "true") != all(v % 2 and v % 3 for v in vals[:12]):
            out.append(f"scan row {a},{b},{c}: coprime6={coprime} is wrong")
        seen.append((-hits, a2, b2, c2))
    if seen != sorted(seen):
        out.append("scan rows are not ranked by prime count")
    # Integer-valued canonical polynomials: b in [0, 2a) on the half-integer
    # lattice with a + b whole, c whole, and a positive value at t = 1.
    want = {(b2, 2 * c) for b2 in range(2 * dd) if (dd + b2) % 2 == 0
            for c in range(c_min, c_max + 1) if dd + b2 + 2 * c >= 2}
    got = {(b2, c2) for _, _, b2, c2 in seen}
    if got != want or len(got) != len(seen):
        out.append(f"scan lists {len(seen)} polynomials, want the {len(want)} "
                   f"of the requested range once each")
    return out


def prime_report_rows(text: str) -> list[tuple]:
    rows = []
    for a, b, c, _len, count, density, _cop, members in csv_rows(text):
        rows.append((tuple(int(m) for m in members.split()), Fraction(a),
                     Fraction(b), Fraction(c), int(count), float(density)))
    return rows


def arms_json_rows(doc: dict) -> list[tuple]:
    return [(tuple(arm["members"]), Fraction(arm["canonical"]["a"]),
             Fraction(arm["canonical"]["b_hat"]), Fraction(arm["canonical"]["c"]),
             arm["start_t"]) for arm in doc["arms"]]


def xml_problems(doc: str):
    """(parsed root, problems) of an SVG document."""
    try:
        return ET.fromstring(doc.encode("utf-8")), []
    except ET.ParseError as exc:
        return None, [f"SVG does not parse: {exc}"]


def svg_problems(first: str, second: str, markers: int) -> list[str]:
    """Two renders of one spiral figure: identical, valid, one marker per member."""
    root, out = xml_problems(first)
    if first != second:
        out.append("two renders of one figure differ")
    if root is not None:
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        if len(circles) != markers:
            out.append(f"SVG has {len(circles)} markers, want {markers}")
    return out


def build_problems(text: str, n: int) -> list[str]:
    fields = dict(line.split("=", 1) for line in text.strip().splitlines())
    want = orc.w_many([n])[n]
    out = []
    if int(fields["max_n"]) != n:
        out.append(f"build: max_n={fields['max_n']}, want {n}")
    if abs(float(fields["final_angle"]) - want) > 1e-9:
        out.append(f"build: final_angle={fields['final_angle']}, fsum gives {want:.12f}")
    return out


def verify_report_problems(code: int, text: str) -> list[str]:
    lines = text.strip().splitlines()
    bad = [line for line in lines[:-1] if not line.startswith("PASS  ")]
    out = exit_problems("verify all", code)
    if bad or not lines[:-1]:
        out.append(f"verify all: {len(bad)} lines are not PASS, e.g. {bad[:1]}")
    return out
