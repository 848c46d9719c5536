"""Closed-form index evaluation from the prime factorization alone.

Every divisor prime graph has diameter at most 2 (divisor 1 is adjacent to
everything), so each index is fixed by the edges and the degrees at their
ends.  For the exponents e of n, four products over the primes count it all:

* D  = prod(e + 1):         divisors, i.e. vertices
* P2 = prod(2e + 1):        ordered pairs of coprime divisors (per prime,
  exponents (a, b) with min(a, b) = 0); (1, 1) is the only self-pair
* P3 = prod(3e + 1):        ordered triples of pairwise coprime divisors
* PZ = prod((e + 1)^2 + e): sum over divisors d of c(d)^2, where c(d), the
  number of divisors coprime to d, is the degree of d except c(1) = D

Each index is then a field of the ``IndexReport`` that ``cf_report`` returns:

* edge_count:             (P2 - 1) / 2
* wiener:                 D(D-1) - |E|
* harary:                 (D(D-1) + P2 - 1) / 4, reduced
* hyper_wiener:           3D(D-1)/2 - P2 + 1
* zagreb1 (M1):           PZ - 2D + 1
* zagreb2 (M2):           (D * P3 - 2 * P2 - D^2 + 2D) / 2
* gutman:                 (P2 - 1)^2 - M1 - M2
* schultz:                2(D-1) * P2 - PZ + 1
* eccentric_connectivity: P2 - 1 if D <= 2, else 2 * P2 - D - 1

``cf_report`` builds the four products in one pass over the primes, in time
linear in the number of distinct primes however many divisors n has.  The
brute-force counterpart in :mod:`divprime.oracle` computes the same
quantities definitionally, and never reads this module's arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .arithmetic import Factorization, divisor_count, exact_half
from .report import CLOSED_FORM, IndexReport

__all__ = ["cf_degree", "cf_report"]


def cf_report(f: Factorization) -> IndexReport:
    """Evaluate all eight indices plus the structural counts in one go."""
    count = p2 = p3 = pz = 1
    for _, e in f.factors:
        count *= e + 1
        p2 *= 2 * e + 1
        p3 *= 3 * e + 1
        pz *= (e + 1) ** 2 + e
    degree_sum = p2 - 1
    # P2 is odd, since its only self-pair is (1, 1): the halving is exact.
    edge_count = exact_half(degree_sum)
    # Non-adjacent pairs are at distance 2; there are C(D, 2) - |E| of them.
    non_edges = exact_half(count * (count - 1)) - edge_count
    # Each vertex has degree c(d) except divisor 1, whose D^2 becomes (D-1)^2.
    zagreb1 = pz - 2 * count + 1
    # D * P3 sums c(u) c(v) over ordered coprime pairs (per prime (e+1)(3e+1));
    # less the excess at divisor 1, it is M2 over edges in both directions.
    zagreb2 = exact_half(count * p3 - count * count - 2 * (p2 - count))
    # Non-edges count twice: twice the all-pairs sum (degree_sum^2 - M1)/2, less M2.
    gutman = degree_sum**2 - zagreb1 - zagreb2
    # All pairs hold each degree D - 1 times; doubled, less M1 over the edges.
    schultz = 2 * (count - 1) * degree_sum - zagreb1
    # Divisor 1 has eccentricity 1 and degree D - 1; from D = 3 on every
    # other vertex has eccentricity 2.  At D <= 2 the diameter is at most 1,
    # so the index is just the degree sum (0 for n = 1, 2 for prime n).
    eccentric_connectivity = degree_sum if count <= 2 else 2 * degree_sum - (count - 1)
    # Positional, in field order, as keywords cost about 2 us per report.
    return IndexReport(
        f.n, count, edge_count, degree_sum,
        edge_count + 2 * non_edges,  # wiener
        Fraction(2 * edge_count + non_edges, 2),  # harary
        edge_count + 3 * non_edges,  # hyper_wiener: (d + d^2) / 2 is 1 on an edge, 3 at distance 2
        zagreb1, zagreb2, gutman, schultz, eccentric_connectivity, CLOSED_FORM, None,
    )


def cf_degree(f: Factorization, d: int) -> int:
    """Degree of the vertex for divisor d: the number of divisors coprime
    to d, i.e. prod of (e+1) over the primes of n not dividing d.  Divisor 1
    is coprime to everything but itself, giving D - 1."""
    if d < 1 or f.n % d:
        raise ValueError(f"{d} does not divide {f.n}")
    if d == 1:
        return divisor_count(f) - 1
    return prod(e + 1 for p, e in f.factors if d % p)
