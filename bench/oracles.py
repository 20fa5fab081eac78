"""Slow reference computations the benchmark checks sqspiral's outputs against.

Nothing here imports sqspiral: each oracle recomputes its answer from the
definitions, so a fault in the program cannot hide in the check.
"""
from __future__ import annotations

import math

WINDOW_LO = math.pi
WINDOW_HI = 3.0 * math.pi
MIN_ARM_LEN = 5

# Every double atan(1/sqrt(j)) with j <= 7e16 is an integer multiple of
# 2**-80, so sums in this fixed point are exact.
_SCALE = 1 << 80


def term(j: int) -> float:
    """Angle of triangle j: arctan(1/sqrt(j))."""
    return math.atan(1.0 / math.sqrt(j))


def w_fsum(k: int) -> float:
    """w(k) = sum of arctan(1/sqrt(j)) for j = 1..k, correctly rounded."""
    return math.fsum(term(j) for j in range(1, k + 1))


def _exact_sum(lo: int, hi: int) -> int:
    """Terms lo+1..hi summed exactly, in units of 2**-80."""
    return sum(int(term(j) * _SCALE) for j in range(lo + 1, hi + 1))


# _marks[i] is the exact sum of the terms 1..i*_STEP; it grows on demand so
# that later calls resume from the nearest mark instead of from j = 1.
_STEP = 1 << 16
_marks = [0]


def w_many(ks) -> dict[int, float]:
    """w(k) for many k; equal to `w_fsum` bit for bit.

    The terms are summed exactly as integers and rounded once by the integer
    division, which is what math.fsum returns for the same doubles.
    """
    out = {}
    done = acc = 0
    for k in sorted(set(ks)):
        base = k // _STEP
        while len(_marks) <= base:
            i = len(_marks)
            _marks.append(_marks[-1] + _exact_sum((i - 1) * _STEP, i * _STEP))
        if base * _STEP > done:
            done, acc = base * _STEP, _marks[base]
        acc += _exact_sum(done, k)
        done = k
        out[k] = acc / _SCALE
    return out


def angles_of(ns) -> dict[int, float]:
    """Total angle of the ray of length sqrt(n), which is w(n - 1)."""
    ns = list(ns)
    w = w_many(n - 1 for n in ns)
    return {n: w[n - 1] for n in ns}


def is_prime(n: int) -> bool:
    """Primality by trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def in_group(spec: str, n: int) -> bool:
    """Membership of n >= 1 in a group spec: div:<p>, squares or primes."""
    if spec.startswith("div:"):
        return n % int(spec[4:]) == 0
    if spec == "squares":
        return math.isqrt(n) ** 2 == n
    if spec == "primes":
        return is_prime(n)
    raise ValueError(f"no oracle for group {spec!r}")


def window_ok(angle: dict, u: int, v: int) -> bool:
    """Ray v lies one winding past ray u: the advance is in (pi, 3pi)."""
    return WINDOW_LO < angle[v] - angle[u] < WINDOW_HI


def brute_force_arms(spec: str, n: int, seed_bound: int | None = None,
                     min_len: int = MIN_ARM_LEN) -> set[tuple]:
    """Every maximal window-consistent quadratic run in the group up to n.

    A run has a constant positive second difference, each step advances one
    winding, it cannot be extended at either end, it has at least `min_len`
    members, and its first member is at most `seed_bound` (default n/4).
    All member triples are tried; no search structure is shared with the
    program.
    """
    if seed_bound is None:
        seed_bound = n // 4
    mem = [m for m in range(1, n + 1) if in_group(spec, m)]
    memset = set(mem)
    angle = angles_of(mem)
    runs = set()
    for i, x0 in enumerate(mem):
        if x0 > seed_bound:
            break
        for j in range(i + 1, len(mem)):
            x1 = mem[j]
            if not window_ok(angle, x0, x1):
                continue
            for x2 in mem[j + 1:]:
                d2 = x0 - 2 * x1 + x2
                if d2 <= 0 or not window_ok(angle, x1, x2):
                    continue
                prv = 2 * x0 - x1 + d2
                if 1 <= prv < x0 and prv in memset and window_ok(angle, prv, x0):
                    continue  # not maximal: the run starts earlier
                run = [x0, x1, x2]
                while True:
                    nxt = 2 * run[-1] - run[-2] + d2
                    if nxt > n or nxt not in memset or not window_ok(angle, run[-1], nxt):
                        break
                    run.append(nxt)
                if len(run) >= min_len:
                    runs.add(tuple(run))
    return runs
