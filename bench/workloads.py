"""Seeded inputs and output checks for the three benchmark workloads.

Every workload turns a seed into an endless stream of rounds, each a list of
operations; one operation is one ``divprime`` command line.  The expected
values each check compares against are derived here from the generated
prime exponents (or, for ``sweep``, from a divisor-count sieve), never from
``divprime.formulas``, so a wrong closed form cannot hide behind itself.

Why each workload exists:

* ``sweep``: many small graphs (D <= 288), where fixed per-call
  cost in the oracle, verify and CSV rendering matters; it is
  ``divprime verify``.
* ``dense``: large graphs (D 384..1152), where the oracle's BFS dominates.
* ``factor``: Pollard rho on two 10-digit primes dominates and the oracle
  never runs, so oracle changes must leave it unchanged.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterator

PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: Integers per ``verify`` call in the sweep workload.
SWEEP_BLOCK = 100

#: Exponent signatures of the dense workload, one round is one N of each.
#: D = 384, 432, 480, 512, 576, 768, 864, 1024, 1152.  The count is odd so
#: that the median operation falls inside the D = 576 group, not in the gap
#: between two groups, where it would swing with single slow operations.
DENSE_SIGNATURES = (
    (5, 3, 1, 1, 1, 1),
    (2, 2, 2, 1, 1, 1, 1),
    (4, 2, 1, 1, 1, 1, 1),
    (3, 3, 1, 1, 1, 1, 1),
    (3, 2, 2, 1, 1, 1, 1),
    (3, 2, 1, 1, 1, 1, 1, 1),
    (5, 2, 2, 1, 1, 1, 1),
    (1,) * 10,
    (5, 3, 2, 1, 1, 1, 1),
)

#: Exponent signatures of the smooth part of the factor workload's N.  Cycling
#: through a fixed set keeps the divisor counts of a run the same across seeds.
FACTOR_SMOOTH_SIGNATURES = ((3,), (2, 1), (1, 1, 1), (4, 2))


@dataclass(frozen=True)
class Op:
    """One CLI call, what it covers and what its output must show."""

    argv: tuple[str, ...]
    integers: int  # integers the call reports on
    pairs: int  # sum of D(D-1)/2 over those integers
    expected: dict
    record: dict  # logged in the run's output so the inputs can be traced back


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[list[Op]]]
    check: Callable[[Op, str], str | None]  # returns None or why the output is wrong


def _pairs(d: int) -> int:
    return d * (d - 1) // 2


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    if n < 2:
        return False
    for p in PRIMES_BELOW_50[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIMES_BELOW_50[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisor_counts(lo: int, hi: int) -> list[int]:
    """D(m) for every m in [lo, hi], counting each divisor pair (d, m/d)
    with d*d <= m once per d."""
    counts = [0] * (hi - lo + 1)
    d = 1
    while d * d <= hi:
        first = max(d * d, -(-lo // d) * d)
        for m in range(first, hi + 1, d):
            counts[m - lo] += 1 if m == d * d else 2
        d += 1
    return counts


def _factored_op(argv_tail: tuple[str, ...], factors: list[tuple[int, int]]) -> Op:
    n = prod(p**e for p, e in factors)
    d = prod(e + 1 for _, e in factors)
    edges = (prod(2 * e + 1 for _, e in factors) - 1) // 2
    return Op(
        argv=("compute", str(n), *argv_tail),
        integers=1,
        pairs=_pairs(d),
        expected={"D": d, "edges": edges, "wiener": d * (d - 1) - edges},
        record={"n": str(n), "factors": sorted(factors), "D": d, "pairs": _pairs(d)},
    )


# ---------------------------------------------------------------------------
# sweep


def sweep_rounds(seed: int) -> Iterator[list[Op]]:
    # Each block starts at its own seeded point, so every run samples the
    # whole range: one contiguous stretch would make the divisor counts, and
    # with them the work per integer, depend on where the seed lands.
    rng = random.Random(seed)
    while True:
        lo = rng.randrange(10**6, 2 * 10**6 - SWEEP_BLOCK + 1)
        hi = lo + SWEEP_BLOCK - 1
        counts = divisor_counts(lo, hi)
        pairs = sum(map(_pairs, counts))
        yield [
            Op(
                argv=("verify", str(lo), str(hi), "--format", "csv"),
                integers=len(counts),
                pairs=pairs,
                expected={"lo": lo, "D": counts},
                record={"lo": lo, "hi": hi, "D": counts, "pairs": pairs},
            )
        ]


def check_sweep(op: Op, out: str) -> str | None:
    rows = list(csv.reader(out.splitlines()))
    if not rows or not {"n", "D", "status"} <= set(rows[0]):
        return "missing CSV header"
    n_col, d_col, status_col = (rows[0].index(c) for c in ("n", "D", "status"))
    body = rows[1:]
    expected = op.expected["D"]
    if len(body) != len(expected):
        return f"{len(body)} rows for {len(expected)} integers"
    for offset, (row, d) in enumerate(zip(body, expected)):
        n = op.expected["lo"] + offset
        if len(row) != len(rows[0]) or row[n_col] != str(n):
            return f"row {offset} is not n = {n}"
        if row[d_col] != str(d):
            return f"n = {n}: D {row[d_col]}, expected {d}"
        if row[status_col] != "verified":
            return f"n = {n}: status {row[status_col]}"
    return None


# ---------------------------------------------------------------------------
# dense


def dense_rounds(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    while True:
        yield [
            _factored_op(
                ("--with-oracle", "--format", "json"),
                list(zip(rng.sample(PRIMES_BELOW_50, len(sig)), sig)),
            )
            for sig in DENSE_SIGNATURES
        ]


def check_dense(op: Op, out: str) -> str | None:
    try:
        data = json.loads(out)
        if data["status"] != "verified":
            return f"status {data['status']}"
        if data["mismatches"] != []:
            return f"mismatches {data['mismatches']}"
        for side in (data, data["oracle"]):
            if int(side["D"]) != op.expected["D"]:
                return f"D {side['D']}, expected {op.expected['D']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


# ---------------------------------------------------------------------------
# factor


def _ten_digit_prime(rng: random.Random, avoid: int) -> int:
    while True:
        p = rng.randrange(10**9, 10**10) | 1
        if p != avoid and is_prime(p):
            return p


def factor_rounds(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    while True:
        ops = []
        for sig in FACTOR_SMOOTH_SIGNATURES:
            p = _ten_digit_prime(rng, avoid=0)
            q = _ten_digit_prime(rng, avoid=p)
            smooth = zip(rng.sample(PRIMES_BELOW_50, len(sig)), sig)
            ops.append(_factored_op(("--format", "json"), [*smooth, (p, 1), (q, 1)]))
        yield ops


def check_factor(op: Op, out: str) -> str | None:
    try:
        data = json.loads(out)
        for key, want in op.expected.items():
            if int(data[key]) != want:
                return f"{key} {data[key]}, expected {want}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_rounds, check_sweep),
        Workload("dense", dense_rounds, check_dense),
        Workload("factor", factor_rounds, check_factor),
    )
}
