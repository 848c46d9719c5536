"""Topological indices of divisor prime graphs.

The divisor prime graph of a positive integer n has the positive divisors
of n as vertices, two distinct divisors adjacent exactly when they are
coprime.  This package evaluates eight classical topological indices of
that graph (Wiener, Harary, hyper-Wiener, first and second Zagreb, Gutman,
Schultz, eccentric connectivity) two independent ways:

* :mod:`divprime.formulas` evaluates closed-form expressions straight from
  the prime factorization, in time linear in the number of distinct primes;
* :mod:`divprime.oracle` builds the graph explicitly and computes every
  index from its defining sum, serving as brute-force ground truth.

:mod:`divprime.verify` reconciles the two paths, and :mod:`divprime.cli`
exposes computing, sweeping, and graph export on the command line.  The
package itself re-exports only the main entry points and the types they
return; every other name is imported from its own module.
"""

from .arithmetic import FactorBudgetError, Factorization, factorize
from .formulas import cf_report
from .oracle import DEFAULT_CAP, CapExceededError, DivisorGraph, build_graph, oracle_report
from .report import IndexReport
from .verify import SweepSummary, VerificationResult, verify_n, verify_range

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "DivisorGraph",
    "FactorBudgetError",
    "Factorization",
    "IndexReport",
    "SweepSummary",
    "VerificationResult",
    "build_graph",
    "cf_report",
    "factorize",
    "oracle_report",
    "verify_n",
    "verify_range",
]
