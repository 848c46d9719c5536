"""Brute-force ground truth on the explicitly built divisor prime graph.

Vertices are the divisors of n in ascending order; two distinct divisors
are adjacent exactly when their gcd is 1 (the loop at divisor 1 is
dropped).  The graph is built explicitly, with one adjacency row (an int
bitmask over the vertices) per prime support, shared by every divisor with
that support: the AND, over the support's primes, of one mask per prime
marking the divisors that prime does not divide.  Every index is computed
from its defining sum, with distances found by breadth-first search from
every vertex (``_bfs_sums`` states how).  Nothing here reads
``formulas.py`` or assumes a diameter bound or any other closed-form
shortcut, which is what makes this module usable as an independent check,
and ``build_graph`` refuses graphs above the cap.
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
#: a 2-core Xeon with Python 3.11, six runs each, build_graph and then
#: oracle_report: exponents (5,3,2,1^5), D = 2304, 1.9-3.2 ms and 6.2-10 ms;
#: (5,3,2,1^6), D = 4608, 4.1-6.3 ms and 21-29 ms; the squarefree
#: 2*3*...*37, D = 4096, 5.7-14 ms and 27-50 ms.  Squarefree graphs, with no
#: twins to share a first BFS level, are the slowest near the cap.  The BFS
#: from every vertex in oracle_report dominates.
DEFAULT_CAP = 5000

#: Fewest vertices a graph needs for ``_bfs_sums`` to take its levels' degree
#: sums from degree planes rather than by walking their bits.  Measured on the
#: same machine, per-graph minimum BFS time against a per-level rule (planes
#: for a missed level of 32 or more vertices): at 64, as at 96 or 128, 1500
#: graphs from [10^6, 2*10^6) take 0.95-0.97x, two rounds of D 384..1152
#: 0.94-0.96x and D 48..256 0.92-0.95x; at 48 the 1500 take 0.98-1.00x, and
#: at 256 D 48..256 takes 1.05x.
_PLANE_MIN = 64


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


def _degree_planes(degrees: list[int]) -> list[int]:
    """Bit-sliced degrees: mask b marks the vertices whose degree has bit b set."""
    by_degree = {}
    for i, d in enumerate(degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    return [
        sum(mask for d, mask in by_degree.items() if d >> b & 1)
        for b in range(max(degrees).bit_length())
    ]


def _bfs_sums(g: DivisorGraph) -> tuple[DistanceSummary, list[int], int, int, int]:
    """One BFS from every vertex: the distance summary, the degrees, and the
    second Zagreb, Gutman and Schultz sums over ordered pairs, which are
    twice the first two indices and the Schultz index itself.

    Each source starts at its own row, less any loop, as level 1, and the
    levels are frontier masks, expanded until every vertex is seen; an
    empty level before then means the graph is disconnected.  A level's
    rows are ORed only until they reach every unseen vertex, since the next
    level is then all of them; on a divisor graph, divisor 1 saturates
    level 1 at once.  Each level's vertices above the source are counted by
    popcount, so each unordered pair is counted once, and level 1 gives the
    edge count.  With D_l the degree sum of level l, source s adds
    deg(s)*D_1, deg(s)*W and W, where W = sum(l*D_l) sums deg(t)*d(s, t)
    over every t; over all s it is the sum of deg(t) times the transmission
    of t, the Schultz index.  The last level, never expanded, has the total
    degree less every earlier level.  Every other D_l is looked up by its
    mask in a dict kept for the call, before the level is expanded, at
    level 1 keyed by the source's own row object if it has no loop: false
    twins, which share a row, sum their first level once, and a graph
    without twins pays one probe per source.  On a miss, a graph of fewer
    than ``_PLANE_MIN`` vertices walks the level's bits; a larger one builds
    its degree planes (Biham 1997) before the first source, plane b marking
    the vertices whose degree has bit b set, and takes every missed D_l as
    the sum of popcount(level & plane_b) << b over b."""
    adjacency = g.adjacency
    everything = (1 << len(adjacency)) - 1
    degrees = [row.bit_count() for row in adjacency]
    total = sum(degrees)
    pairs = [0] * (len(adjacency) + 1)  # pair counts by distance; a level never passes D
    eccentricities = []
    zagreb2 = gutman = schultz = 0
    dsum_of = {}  # degree sum of every level met, keyed by its mask
    planes = _degree_planes(degrees) if len(adjacency) >= _PLANE_MIN else None
    for source, deg_s in enumerate(degrees):
        above = source + 1  # shifting a level right by this keeps its later vertices
        bit = 1 << source
        frontier = adjacency[source]
        if frontier & bit:
            frontier ^= bit  # drop a loop; without one the row itself is the key
        seen = frontier | bit
        level = 1 if frontier else 0  # 0 only on a one-vertex graph
        weighted = 0
        rest = total - deg_s  # degree sum of the vertices not yet expanded
        pairs[1] += (frontier >> above).bit_count()
        while seen != everything:
            if not frontier:
                raise ValueError("divisor prime graph is disconnected")
            if (dsum := dsum_of.get(frontier)) is None:
                if planes is None:
                    dsum, bits = 0, frontier
                    while bits:
                        low = bits & -bits
                        dsum += degrees[low.bit_length() - 1]
                        bits ^= low
                else:
                    dsum = sum((frontier & plane).bit_count() << b for b, plane in enumerate(planes))
                dsum_of[frontier] = dsum
            reach, bits = 0, frontier
            while bits:
                low = bits & -bits
                reach |= adjacency[low.bit_length() - 1]
                bits ^= low
                if reach | seen == everything:
                    break  # saturated: the next level is every unseen vertex
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
    # Positional, in field order, as keywords cost about 2 us per report: n,
    # divisor_count, edge_count, degree_sum, wiener, harary, hyper_wiener,
    # zagreb1, zagreb2, gutman, schultz, eccentric_connectivity, source,
    # diameter.
    return IndexReport(
        g.n,
        len(g.vertices),
        edge_count,
        degree_sum,
        sum(d * c for d, c in pairs.items()),
        Fraction(sum(c * (common // d) for d, c in pairs.items()), common),
        exact_half(sum((d + d * d) * c for d, c in pairs.items())),
        sum(map(mul, degrees, degrees)),
        exact_half(zagreb2),
        exact_half(gutman),
        schultz,
        sum(map(mul, degrees, summary.eccentricities)),
        ORACLE,
        summary.diameter,
    )
