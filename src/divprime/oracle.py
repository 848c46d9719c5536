"""Brute-force ground truth on the explicitly built divisor prime graph.

Vertices are the divisors of n in ascending order; two distinct divisors
are adjacent exactly when their gcd is 1 (the loop at divisor 1 is
dropped).  Two divisors of n are coprime exactly when no prime of n
divides both, so the adjacency row of a divisor is the AND, over the primes
dividing it, of one mask per prime marking the divisors that prime does not
divide.  That row depends only on the divisor's prime support, so it is
built once per support and shared by every divisor with that support.
Every index is computed from its defining sum over the graph, with
distances found by breadth-first search from every vertex.  Nothing here
assumes the diameter bound or any other closed-form shortcut, which is
what makes this module usable as an independent check.

Adjacency rows are stored as int bitmasks, one bit per vertex.  One loop
runs the BFS from every vertex for both ``oracle_report`` and
``distance_summary``: frontier masks, level by level from the source's own
row until every vertex is seen, each level's rows ORed only until they
reach every unseen vertex.  Each level's vertices above the source are
counted by popcount into a list indexed by distance, so each pair is
counted once, and level 1 gives the edge count without walking the edge
list (``edges`` is for export only).  The degree-weighted indices are
sums over ordered pairs instead: expanding a level adds up all its
degrees, and the last level, never expanded, has the total degree less
every earlier level.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .arithmetic import Factorization, divisor_count, divisors, exact_half
from .report import ORACLE, IndexReport, _check_handshake

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "DistanceSummary",
    "DivisorGraph",
    "build_graph",
    "distance_summary",
    "edges",
    "oracle_report",
]

#: Largest divisor count for which explicit divisor enumeration (and hence
#: graph construction) is allowed unless the caller overrides it.  Measured on
#: a 2-core Xeon with Python 3.11, exponents (5,3,2,1^5) and (5,3,2,1^6), six
#: runs each: at D = 2304 build_graph takes 2.5-2.7 ms and oracle_report
#: 40-44 ms; at D = 4608 they take 5.6-5.9 ms and 0.17-0.20 s.  The BFS from
#: every vertex in oracle_report dominates.
DEFAULT_CAP = 5000


class CapExceededError(ValueError):
    """Divisor count too large for explicit enumeration."""

    def __init__(self, n: int, count: int, cap: int):
        super().__init__(
            f"n = {n} has {count} divisors, above the configured cap of {cap}"
        )
        self.n = n
        self.divisor_count = count
        self.cap = cap


class DivisorGraph(namedtuple("DivisorGraph", "n vertices adjacency")):
    """Explicit divisor prime graph of the int n: the tuple of its divisors
    in ascending order, and a symmetric adjacency tuple, row i an int
    bitmask over vertex indices.  Divisors with the same prime support
    share one row object, so there are 2^omega(n) rows in memory."""

    __slots__ = ()


class DistanceSummary(namedtuple("DistanceSummary", "pairs_at_distance eccentricities diameter")):
    """All-pairs distance histogram (a dict from distance to the count of
    unordered pairs), per-vertex eccentricities (a tuple of ints), and the
    int diameter."""

    __slots__ = ()


def build_graph(f: Factorization, cap: int | None = DEFAULT_CAP) -> DivisorGraph:
    """Construct the graph for f.n, refusing with CapExceededError, before
    enumerating anything, when the divisor count exceeds ``cap`` (pass None
    to lift the limit).  This is the one place the cap is checked."""
    if cap is not None and (count := divisor_count(f)) > cap:
        raise CapExceededError(f.n, count, cap)
    verts = divisors(f)
    # One row per squarefree divisor s of n, shared by every divisor with
    # s's prime support.  Bit i of ``free`` is set when p does not divide
    # verts[i]; base 2 is exempt from the int/str digit limit.
    row_of = {1: (1 << len(verts)) - 1}
    for p, _ in f.factors:
        free = int("".join(["1" if v % p else "0" for v in reversed(verts)]), 2)
        row_of |= {s * p: row & free for s, row in row_of.items()}
    radical = max(row_of)
    rows = [row_of[gcd(v, radical)] for v in verts]
    rows[0] ^= 1  # divisor 1 is coprime to itself; drop the loop
    return DivisorGraph(f.n, tuple(verts), tuple(rows))


def edges(g: DivisorGraph) -> Iterator[tuple[int, int]]:
    """Adjacent divisor pairs (u, v) with u < v, ascending; for export."""
    for i, row in enumerate(g.adjacency):
        upper = row >> (i + 1)
        while upper:
            low = upper & -upper
            yield g.vertices[i], g.vertices[i + low.bit_length()]
            upper ^= low


def _bfs_sums(g: DivisorGraph) -> tuple[DistanceSummary, list[int], int, int, int]:
    """One BFS from every vertex: the distance summary, the degrees, and the
    second Zagreb, Gutman and Schultz sums over ordered pairs, which are
    twice the first two indices and the Schultz index itself.  With D_l the
    degree sum of level l, source s adds deg(s)*D_1, deg(s)*W and W, where
    W = sum(l*D_l) sums deg(t)*d(s, t) over every t; over all s it is the
    sum of deg(t) times the transmission of t, the Schultz index.  Once a
    level's ORed rows reach every unseen vertex, its other vertices add only
    their degrees; on a divisor graph, divisor 1 saturates level 1 at once."""
    adjacency = g.adjacency
    everything = (1 << len(adjacency)) - 1
    degrees = [row.bit_count() for row in adjacency]
    total = sum(degrees)
    pairs = [0] * (len(adjacency) + 1)  # pair counts by distance; a level never passes D
    eccentricities = []
    zagreb2 = gutman = schultz = 0
    for source, deg_s in enumerate(degrees):
        above = source + 1  # shifting a level right by this keeps its later vertices
        frontier = adjacency[source] & ~(1 << source)
        seen = frontier | 1 << source
        level = 1 if frontier else 0  # 0 only on a one-vertex graph
        weighted = 0
        rest = total - deg_s  # degree sum of the vertices not yet expanded
        pairs[1] += (frontier >> above).bit_count()
        while seen != everything:
            if not frontier:
                raise ValueError("divisor prime graph is disconnected")
            reach = dsum = 0
            while frontier:
                low = frontier & -frontier
                i = low.bit_length() - 1
                reach |= adjacency[i]
                dsum += degrees[i]
                frontier ^= low
                if reach | seen == everything:
                    break  # saturated: the next level is every unseen vertex
            while frontier:
                low = frontier & -frontier
                dsum += degrees[low.bit_length() - 1]
                frontier ^= low
            weighted += level * dsum
            rest -= dsum
            if level == 1:
                zagreb2 += deg_s * dsum
            frontier = reach & ~seen
            seen |= frontier
            level += 1
            pairs[level] += (frontier >> above).bit_count()
        weighted += level * rest  # the last level
        if level == 1:
            zagreb2 += deg_s * rest
        gutman += deg_s * weighted
        schultz += weighted
        eccentricities.append(level)
    histogram = {d: count for d, count in enumerate(pairs) if count}
    summary = DistanceSummary(histogram, tuple(eccentricities), max(eccentricities, default=0))
    return summary, degrees, zagreb2, gutman, schultz


def distance_summary(g: DivisorGraph) -> DistanceSummary:
    """Exact distance histogram and eccentricities via BFS from every vertex."""
    return _bfs_sums(g)[0]


def oracle_report(g: DivisorGraph) -> IndexReport:
    """Compute all eight indices from their definitions on the explicit graph.

    Distance-based sums run over unordered vertex pairs with BFS distances,
    and the Harary index is one exact rational over the lcm of the
    distances, never a float.  The second Zagreb and Gutman indices are
    halves of sums over ordered pairs, so the rows must be symmetric and
    loop-free, as ``build_graph`` makes them: an adjacency that passes the
    handshake check without being so may raise ``ArithmeticError`` from
    ``exact_half`` or give meaningless values.
    """
    summary, degrees, zagreb2, gutman, schultz = _bfs_sums(g)
    pairs = summary.pairs_at_distance
    edge_count, degree_sum = pairs.get(1, 0), sum(degrees)
    # Before halving: an adjacency the handshake rejects gets its ValueError.
    _check_handshake(degree_sum, edge_count)
    common = lcm(*pairs)
    return IndexReport(
        n=g.n,
        divisor_count=len(g.vertices),
        edge_count=edge_count,
        degree_sum=degree_sum,
        wiener=sum(d * c for d, c in pairs.items()),
        harary=Fraction(sum(c * (common // d) for d, c in pairs.items()), common),
        hyper_wiener=exact_half(sum((d + d * d) * c for d, c in pairs.items())),
        zagreb1=sum(map(mul, degrees, degrees)),
        zagreb2=exact_half(zagreb2),
        gutman=exact_half(gutman),
        schultz=schultz,
        eccentric_connectivity=sum(map(mul, degrees, summary.eccentricities)),
        source=ORACLE,
        diameter=summary.diameter,
    )
