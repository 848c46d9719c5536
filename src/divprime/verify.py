"""Reconciliation of the closed-form and brute-force paths.

``verify_n`` computes both reports for one integer and compares all eight
indices plus the edge count and degree sum once, exactly (rationals are
already in lowest terms, so equality is equality), recording the names of
the fields that differ.  ``verify_range`` sweeps an interval and
aggregates.  A mismatch is data to be reported, never an exception, so a
sweep always yields its complete mismatch census.

Each verification is pure and independent, so distinct n may be evaluated
concurrently; the sweep summary is a commutative merge and does not depend
on evaluation order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from time import perf_counter

from .arithmetic import Factorization, factorize
from .formulas import cf_report
from .oracle import DEFAULT_CAP, CapExceededError, build_graph, oracle_report
from .report import COMPARED_FIELDS, _compared

__all__ = [
    "MISMATCH",
    "ORACLE_SKIPPED",
    "VERIFIED",
    "SweepSummary",
    "VerificationResult",
    "verify_n",
    "verify_range",
    "verify_results",
]

VERIFIED = "verified"
MISMATCH = "mismatch"
ORACLE_SKIPPED = "oracle_skipped"


class VerificationResult(
    namedtuple(
        "VerificationResult",
        "n status closed_form oracle oracle_skipped_reason "
        "elapsed_closed_form elapsed_oracle mismatches",
    )
):
    """Outcome of comparing both paths for a single int n.

    ``closed_form`` and ``oracle`` are IndexReports, the elapsed times float
    seconds, and ``mismatches`` the tuple of ``COMPARED_FIELDS`` on which
    the two reports differ, in that order.  ``status`` is "verified" when it
    is empty, "mismatch" when it is not, and "oracle_skipped" when the
    divisor count exceeded the cap: the closed form is still present,
    ``oracle`` and ``elapsed_oracle`` are None, ``oracle_skipped_reason``
    says why (it is None otherwise) and ``mismatches`` is empty.
    """

    __slots__ = ()


class SweepSummary(
    namedtuple("SweepSummary", "lo hi cap counts mismatching_n max_divisor_count total_elapsed")
):
    """Aggregate of a verification sweep over the ints [lo, hi]: the int cap
    or None, a dict of counts by status, the tuple of mismatching ints, the
    largest divisor count seen, and the float seconds taken.  The
    constructor and ``_replace`` check that the counts cover the range."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if sum(self.counts.values()) != self.hi - self.lo + 1:
            raise ValueError("status counts do not cover the full range")
        return self

    # namedtuple's own _make, behind _replace, bypasses __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def verify_n(n: int | Factorization, cap: int | None = DEFAULT_CAP) -> VerificationResult:
    """Compare closed form against brute force for one integer.

    n may be given already factorized.  The oracle side is skipped (not
    failed) when n has more than ``cap`` divisors; pass cap=None to force
    the oracle regardless of size.
    """
    f = n if isinstance(n, Factorization) else factorize(n)
    start = perf_counter()
    closed = cf_report(f)
    elapsed_closed = perf_counter() - start

    oracle = elapsed_oracle = reason = None
    mismatches: tuple[str, ...] = ()
    start = perf_counter()
    try:
        graph = build_graph(f, cap=cap)
    except CapExceededError as exc:
        status = ORACLE_SKIPPED
        reason = f"divisor count {exc.divisor_count} exceeds cap {exc.cap}"
    else:
        oracle = oracle_report(graph)
        elapsed_oracle = perf_counter() - start
        expected, found = _compared(closed), _compared(oracle)
        if expected != found:  # one tuple compare; the names only on a mismatch
            mismatches = tuple(k for k, a, b in zip(COMPARED_FIELDS, expected, found) if a != b)
        status = MISMATCH if mismatches else VERIFIED
    return VerificationResult(
        f.n, status, closed, oracle, reason, elapsed_closed, elapsed_oracle, mismatches
    )


def verify_results(lo: int, hi: int, cap: int | None = DEFAULT_CAP) -> Iterator[VerificationResult]:
    """Yield verify_n(n) for every n in [lo, hi], in order."""
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]: need 1 <= lo <= hi")
    for n in range(lo, hi + 1):
        yield verify_n(n, cap=cap)


def verify_range(lo: int, hi: int, cap: int | None = DEFAULT_CAP) -> SweepSummary:
    """Verify every n in [lo, hi] and summarize by status."""
    start = perf_counter()
    counts = {VERIFIED: 0, MISMATCH: 0, ORACLE_SKIPPED: 0}
    mismatching: list[int] = []
    max_count = 0
    for result in verify_results(lo, hi, cap=cap):
        counts[result.status] += 1
        if result.status == MISMATCH:
            mismatching.append(result.n)
        max_count = max(max_count, result.closed_form.divisor_count)
    return SweepSummary(
        lo=lo,
        hi=hi,
        cap=cap,
        counts=counts,
        mismatching_n=tuple(mismatching),
        max_divisor_count=max_count,
        total_elapsed=perf_counter() - start,
    )
