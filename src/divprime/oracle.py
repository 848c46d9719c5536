"""Brute-force ground truth on the explicitly built divisor prime graph.

Vertices are the divisors of n in ascending order; two distinct divisors
are adjacent exactly when their gcd is 1 (the loop at divisor 1 is
dropped).  Two divisors of n are coprime exactly when no prime of n
divides both, so the adjacency row of a divisor is the AND, over the primes
dividing it, of one mask per prime marking the divisors that prime does not
divide.  Every index is computed from its defining sum over the graph, with
distances found by breadth-first search from every vertex.  Nothing here
assumes the diameter bound or any other closed-form shortcut, which is
what makes this module usable as an independent check.

Adjacency rows are stored as int bitmasks, one bit per vertex.  One loop
runs the BFS from every vertex for both ``oracle_report`` and
``distance_summary``, walking whole frontier masks level by level and
stopping once every vertex has been seen.  Pair sums are taken per level:
the level's vertices above the source are counted by popcount, and their
degree sum is the popcount against one mask per distinct degree, times
that degree.  Level 1 is the source's neighbourhood, so the edge count and
the second Zagreb index come off it and the oracle never walks the edge
list; ``edges`` is for export only.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import lcm

from .arithmetic import Factorization, divisor_count, divisors, exact_half
from .report import ORACLE, IndexReport

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "DistanceSummary",
    "DivisorGraph",
    "build_graph",
    "degree_of",
    "distance_summary",
    "edges",
    "oracle_report",
]

#: Largest divisor count for which explicit divisor enumeration (and hence
#: graph construction) is allowed unless the caller overrides it.  Measured on
#: a 2-core Xeon with Python 3.11, exponents (5,3,2,1^5) and (5,3,2,1^6), six
#: runs each: at D = 2304 build_graph takes 3-4 ms and oracle_report 58-70 ms;
#: at D = 4608 they take 8-13 ms and 0.24-0.31 s.  The BFS from every vertex
#: in oracle_report dominates.
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
    bitmask over vertex indices."""

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
    everything = (1 << len(verts)) - 1
    # Bit i of p's mask is set when p does not divide verts[i].  Base 2 is
    # exempt from the int/str digit limit, so any divisor count parses.
    free_of = [
        (p, int("".join("1" if v % p else "0" for v in reversed(verts)), 2))
        for p, _ in f.factors
    ]
    rows = []
    for v in verts:
        row = everything
        for p, mask in free_of:
            if v % p == 0:
                row &= mask
        rows.append(row)
    rows[0] ^= 1  # divisor 1 is coprime to itself; drop the loop
    return DivisorGraph(n=f.n, vertices=tuple(verts), adjacency=tuple(rows))


def degree_of(g: DivisorGraph, index: int) -> int:
    """Number of vertices adjacent to the vertex at ``index``."""
    if not 0 <= index < len(g.vertices):
        raise IndexError(f"vertex index {index} out of range for {len(g.vertices)} vertices")
    return g.adjacency[index].bit_count()


def edges(g: DivisorGraph) -> Iterator[tuple[int, int]]:
    """Adjacent divisor pairs (u, v) with u < v, ascending; for export."""
    for i, row in enumerate(g.adjacency):
        upper = row >> (i + 1)
        while upper:
            low = upper & -upper
            yield g.vertices[i], g.vertices[i + low.bit_length()]
            upper ^= low


def _bfs_sums(g: DivisorGraph) -> tuple[DistanceSummary, list[int], int, int, int]:
    """One BFS from every vertex, summed per level: the distance summary,
    the degrees, and the second Zagreb, Gutman and Schultz sums."""
    adjacency = g.adjacency
    everything = (1 << len(adjacency)) - 1
    degrees = [row.bit_count() for row in adjacency]
    degree_classes: dict[int, int] = {}
    for i, d in enumerate(degrees):
        degree_classes[d] = degree_classes.get(d, 0) | 1 << i
    pairs: Counter[int] = Counter()
    eccentricities = []
    zagreb2 = gutman = schultz = 0
    for source, deg_s in enumerate(degrees):
        above = -1 << (source + 1)
        seen = frontier = 1 << source
        level = 0
        while seen != everything:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                raise ValueError("divisor prime graph is disconnected")
            seen |= frontier
            level += 1
            targets = frontier & above
            if not targets:
                continue
            k = targets.bit_count()
            dsum = sum(d * (targets & mask).bit_count() for d, mask in degree_classes.items())
            pairs[level] += k
            if level == 1:  # targets are the source's neighbours above it
                zagreb2 += deg_s * dsum
            gutman += deg_s * dsum * level
            schultz += (deg_s * k + dsum) * level
        eccentricities.append(level)
    summary = DistanceSummary(dict(pairs), tuple(eccentricities), max(eccentricities, default=0))
    return summary, degrees, zagreb2, gutman, schultz


def distance_summary(g: DivisorGraph) -> DistanceSummary:
    """Exact distance histogram and eccentricities via BFS from every vertex."""
    return _bfs_sums(g)[0]


def oracle_report(g: DivisorGraph) -> IndexReport:
    """Compute all eight indices from their definitions on the explicit graph.

    Distance-based sums run over unordered vertex pairs with BFS distances,
    degree-based sums over vertices or edges, and the Harary index is one
    exact rational over the lcm of the distances, never a float.
    """
    summary, degrees, zagreb2, gutman, schultz = _bfs_sums(g)
    pairs = summary.pairs_at_distance
    common = lcm(*pairs)
    return IndexReport(
        n=g.n,
        divisor_count=len(g.vertices),
        edge_count=pairs.get(1, 0),
        degree_sum=sum(degrees),
        wiener=sum(d * c for d, c in pairs.items()),
        harary=Fraction(sum(c * (common // d) for d, c in pairs.items()), common),
        hyper_wiener=exact_half(sum((d + d * d) * c for d, c in pairs.items())),
        zagreb1=sum(d * d for d in degrees),
        zagreb2=zagreb2,
        gutman=gutman,
        schultz=schultz,
        eccentric_connectivity=sum(d * e for d, e in zip(degrees, summary.eccentricities)),
        source=ORACLE,
        diameter=summary.diameter,
    )
