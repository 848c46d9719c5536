"""Reconciliation of the closed-form and brute-force paths.

``verify_n`` computes both reports for one integer and compares all eight
indices plus the edge count and degree sum once, exactly (rationals are
already in lowest terms, so equality is equality), recording the names of
the fields that differ.  ``verify_range`` sweeps an interval and aggregates.  A mismatch is data to be reported, never an
exception, so a sweep always yields its complete mismatch census.

Each verification is pure and independent, so distinct n may be evaluated
concurrently; the sweep summary is a commutative merge and does not depend
on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

from .arithmetic import DEFAULT_CAP, Factorization, factorize
from .formulas import cf_report
from .oracle import build_graph, oracle_report
from .report import COMPARED_FIELDS, IndexReport

__all__ = [
    "COMPARED_FIELDS",
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


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of comparing both paths for a single n.

    ``mismatches`` names the ``COMPARED_FIELDS`` on which the two reports
    differ, in that order.  ``status`` is "verified" when it is empty,
    "mismatch" when it is not, and "oracle_skipped" when the divisor count
    exceeded the cap (closed-form values are still present, ``oracle`` is
    None and ``mismatches`` is empty).
    """

    n: int
    status: str
    closed_form: IndexReport
    oracle: IndexReport | None
    oracle_skipped_reason: str | None
    elapsed_closed_form: float
    elapsed_oracle: float | None
    mismatches: tuple[str, ...]


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate of a verification sweep over [lo, hi]."""

    lo: int
    hi: int
    cap: int | None
    counts: dict[str, int]
    mismatching_n: tuple[int, ...]
    max_divisor_count: int
    total_elapsed: float

    def __post_init__(self):
        if sum(self.counts.values()) != self.hi - self.lo + 1:
            raise ValueError("status counts do not cover the full range")

    @property
    def mismatch_free(self) -> bool:
        return not self.mismatching_n


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

    count = closed.divisor_count
    oracle = elapsed_oracle = reason = None
    mismatches: tuple[str, ...] = ()
    if cap is not None and count > cap:
        status = ORACLE_SKIPPED
        reason = f"divisor count {count} exceeds cap {cap}"
    else:
        start = perf_counter()
        oracle = oracle_report(build_graph(f, cap=cap))
        elapsed_oracle = perf_counter() - start
        mismatches = tuple(k for k in COMPARED_FIELDS if getattr(closed, k) != getattr(oracle, k))
        status = MISMATCH if mismatches else VERIFIED
    return VerificationResult(
        n=f.n,
        status=status,
        closed_form=closed,
        oracle=oracle,
        oracle_skipped_reason=reason,
        elapsed_closed_form=elapsed_closed,
        elapsed_oracle=elapsed_oracle,
        mismatches=mismatches,
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
