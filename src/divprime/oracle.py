"""Brute-force ground truth on the explicitly built divisor prime graph.

Vertices are the divisors of n in the mixed-radix order of
``arithmetic.divisors``; two distinct divisors are adjacent exactly when
their gcd is 1 (the loop at divisor 1 is dropped).  The graph is built
explicitly, with one adjacency row (an int bitmask over the vertices) per
prime support, shared by every divisor with that support: the AND, over
the support's primes, of one mask per prime marking the divisors that
prime does not divide, which in that order are periodic runs of ones.
``edges`` lists the edges by ascending value.  Every index is computed
from its defining sum, with distances found by breadth-first search from
every vertex (``_bfs_sums`` states how).  Nothing here reads
``formulas.py`` or assumes a diameter bound or any other closed-form
shortcut, which is what makes this module usable as an independent check,
and ``build_graph`` refuses graphs above the cap.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import and_, mul, rshift
from struct import pack

from .arithmetic import Factorization, _radix_factors, divisor_count, divisors, exact_half
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
#: a 2-core Xeon with Python 3.11, median of twelve runs, build_graph and then
#: oracle_report: the squarefree 2*3*...*37, D = 4096, 1.1 ms and 16.4 ms;
#: exponents (5,3,2,1^6), D = 4608, 0.5 ms and 4.6 ms; (3^6), D = 4096,
#: 0.4 ms and 2.8 ms.  Squarefree graphs, whose rows are all distinct, so that
#: every divisor's first BFS level is summed on its own, are the slowest.
DEFAULT_CAP = 5000

#: Fewest vertices a graph needs for ``_bfs_sums`` to take its per-row pass,
#: which serves each covering row once and sums its first level from degree
#: planes; a smaller graph serves its sources one at a time and walks the
#: bits of every level it sums.  Measured on the same machine, oracle_report
#: on the 2000 graphs from 1.5*10^6, 1941 with D < 64, median of 30
#: interleaved rounds: the per-row pass on every graph takes 1.15x as long
#: (IQR 1.09-1.20), as it costs a few passes over the rows per graph, and
#: planes on every graph, for the per-source sums too, 1.04x (IQR 1.02-1.08).
_PLANE_MIN = 64


#: For ``_bit_planes``: table k maps a byte to b"1" if its bit k is set, else b"0".
_BIT_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


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
    in the mixed-radix order of ``arithmetic.divisors`` (1 first, n last,
    not ascending), and a symmetric adjacency tuple, row i an int bitmask
    over vertex indices.  Divisors with the same prime support share one
    row object, so there are 2^omega(n) rows in memory."""

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
    count = len(verts)
    everything = (1 << count) - 1
    # Vertex i's exponent of the j-th prime of _radix_factors(f) is digit j of
    # i in the mixed radix of ``divisors``, so the vertices that prime does not
    # divide are runs of `size` ones, one run every size * (e + 1) bits: one
    # run doubled out to D bits or past, and cut to D by the AND with
    # row_of[0].  A divisor's support id (sid) has bit j set when the j-th
    # prime divides it, made by the same doubling, and ANDing mask j into each
    # row so far appends the rows of the sids with bit j set.
    sids, row_of, size, bit = [0], [everything], 1, 1
    for _, e in _radix_factors(f):
        mask, width = (1 << size) - 1, size * (e + 1)
        while width < count:
            mask |= mask << width
            width += width
        row_of += [mask & row for row in row_of]
        sids += [s | bit for s in sids] * e
        size *= e + 1
        bit += bit
    # A list first: a tuple of a map grows by resizing, +1.25 MiB peak RSS.
    rows = list(map(row_of.__getitem__, sids))
    rows[0] ^= 1  # divisor 1 is coprime to itself; drop the loop
    return DivisorGraph(f.n, tuple(verts), tuple(rows))


def edges(g: DivisorGraph) -> Iterator[tuple[int, int]]:
    """Adjacent divisor pairs (u, v) with u < v, ascending; for export.
    Lazy: the vertices by value, each with its higher neighbours sorted."""
    vertices = g.vertices
    for i in sorted(range(len(vertices)), key=vertices.__getitem__):
        u, row, above = vertices[i], g.adjacency[i], []
        while row:
            low = row & -row
            if u < (v := vertices[low.bit_length() - 1]):
                above.append(v)
            row ^= low
        yield from zip(repeat(u), sorted(above))


def _bit_planes(values: list[int]) -> list[int]:
    """Bit-sliced values, the degree planes of ``_bfs_sums``: plane b marks
    the indices i where values[i] has bit b set.  Packed once, one byte a
    value below 256 and eight little-endian bytes otherwise, plane b is byte
    b // 8 of every value, last index first, in one strided slice, translated
    to b"1" where bit b % 8 is set and b"0" elsewhere and read by
    ``int(..., 2)`` (base 2 has no digit limit).  Every value must be below
    2^64, as degrees are, or ``pack`` raises ``struct.error``."""
    top = max(values)
    width = 1 if top < 256 else 8
    packed = bytes(values) if width == 1 else pack(f"<{len(values)}Q", *values)
    return [
        int(packed[b // 8 - width :: -width].translate(_BIT_DIGITS[b % 8]), 2)
        for b in range(top.bit_length())
    ]


def _walk_sum(mask: int, degrees: list[int]) -> int:
    """The sum of degrees[i] over the set bits i of mask, one bit at a time."""
    dsum = 0
    while mask:
        low = mask & -mask
        dsum += degrees[low.bit_length() - 1]
        mask ^= low
    return dsum


def _bfs_sums(g: DivisorGraph) -> tuple[DistanceSummary, list[int], int, int, int]:
    """One BFS from every vertex: the distance summary, the degrees, and the
    second Zagreb, Gutman and Schultz sums over ordered pairs, which are
    twice the first two indices and the Schultz index itself.

    Each source starts at its own row, less any loop, as level 1, and the
    levels are frontier masks.  A level that leaves some vertex unseen ORs
    all of its rows into the next one, and the level that leaves none is
    the last; an empty next level before then means the graph is
    disconnected.  Each level's vertices above the source are counted by
    popcount, so each unordered pair is counted once.  With D_l the degree
    sum of level l, source s adds deg(s)*D_1, deg(s)*W and W, where
    W = sum(l*D_l) sums deg(t)*d(s, t) over every t; over all s it is the
    sum of deg(t) times the transmission of t, the Schultz index.  The last
    level, never expanded, has the total degree less every earlier level,
    and every other level's degrees are summed by ``_walk_sum``.

    A loop-free row R with 0 < deg(R) < D - 1 covers when R ORed with the
    row of its lowest vertex is every vertex, its sources included.  Each
    source of such a row reaches every vertex within two levels, so it
    takes eccentricity 2 and adds deg(R)*D_1, deg(R)*W and W, where
    W = D_1 + 2*(total - deg(R) - D_1), without expanding a level.  Every
    other source runs the BFS; on a divisor graph those are the divisors
    adjacent to every other one, 1 and, for n = p, p, whose first level
    is their last and is never summed.  The pairs at distance 1 come from
    one pass over every row shifted right past its source, and those at
    distance 2 are the pairs not otherwise counted, as the BFS raises on a
    source that misses a vertex.

    A graph of ``_PLANE_MIN`` or more vertices with no loop, as every one
    from ``build_graph`` is, first takes the per-row pass: it groups its
    rows by value in a ``Counter``, sums each covering row's D_1 once, from
    degree planes (Biham 1997) built by ``_bit_planes``, plane b marking the
    vertices whose degree has bit b set, so that D_1 is the sum of
    popcount(R & plane_b) << b over b, and adds its sums times the number of
    sources that share it.  Each source of every other row is found by
    ``tuple.index`` and left to the per-source path.

    The per-source path takes every source of a smaller graph or of a graph
    with a loop, in order, and those the per-row pass leaves.  A loop-free
    source whose row R may cover looks R up in a memo kept for the call and
    filled by R's first source, D_1 if R covers, else -1, so false twins,
    which share R, pay one lookup each; every other source runs the BFS."""
    adjacency = g.adjacency
    count = len(adjacency)
    everything = (1 << count) - 1
    degrees = list(map(int.bit_count, adjacency))
    total = sum(degrees)
    pairs = [0] * max(count + 1, 3)  # pair counts by distance, to D and to 2 at least
    eccentricities = [2] * count  # a covering row's sources keep this
    zagreb2 = gutman = schultz = 0
    memo = {}  # the per-source path's: a loop-free row's D_1 if it covers, else -1
    sources = enumerate(degrees)

    if count >= _PLANE_MIN and not any(
        map(and_, map(rshift, adjacency, range(count)), repeat(1))  # any loop
    ):
        planes = _bit_planes(degrees)[::-1]
        sources = []
        for row, size in Counter(adjacency).items():
            deg_r = row.bit_count()
            if (
                0 < deg_r < count - 1
                and row | adjacency[(row & -row).bit_length() - 1] == everything
            ):
                dsum = 0
                for plane in planes:  # the top plane first, doubling the sum so far
                    dsum += dsum + (row & plane).bit_count()
                zagreb2 += size * deg_r * dsum
                weighted = dsum + 2 * (total - deg_r - dsum)
                gutman += size * deg_r * weighted
                schultz += size * weighted
                continue
            source = -1
            for _ in range(size):
                source = adjacency.index(row, source + 1)
                sources.append((source, deg_r))

    for source, deg_s in sources:
        frontier = adjacency[source]
        looped = frontier >> source & 1
        if not looped and 0 < deg_s < count - 1:
            if (dsum := memo.get(frontier)) is None:
                covers = frontier | adjacency[(frontier & -frontier).bit_length() - 1] == everything
                dsum = memo[frontier] = _walk_sum(frontier, degrees) if covers else -1
            if dsum >= 0:
                zagreb2 += deg_s * dsum
                weighted = dsum + 2 * (total - deg_s - dsum)
                gutman += deg_s * weighted
                schultz += weighted
                continue
        above = source + 1  # shifting a level right by this keeps its later vertices
        bit = 1 << source
        if looped:
            frontier ^= bit  # drop a loop
        seen = frontier | bit
        level = weighted = 0
        rest = total - deg_s  # degree sum of the vertices not yet summed
        while frontier:
            level += 1
            pairs[level] += (frontier >> above).bit_count()
            dsum = rest if seen == everything else _walk_sum(frontier, degrees)
            weighted += level * dsum
            rest -= dsum
            if level == 1:
                zagreb2 += deg_s * dsum
            if seen == everything:  # no vertex is left for a next level
                break
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if seen != everything:
            raise ValueError("divisor prime graph is disconnected")
        gutman += deg_s * weighted
        schultz += weighted
        eccentricities[source] = level
    # Level 1 of every source, the BFS sources' again; then the rest at distance 2.
    pairs[1] = sum(map(int.bit_count, map(rshift, adjacency, range(1, count + 1))))
    pairs[2] += count * (count - 1) // 2 - sum(pairs)
    diameter = max(eccentricities, default=0)
    histogram = {d: count for d, count in enumerate(pairs[: diameter + 1]) if count}
    summary = DistanceSummary(histogram, tuple(eccentricities), diameter)
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
    wiener = harary = hyper_wiener = 0  # the last two before their division
    for d, c in pairs.items():
        wiener += d * c
        harary += c * (common // d)
        hyper_wiener += (d + d * d) * c
    # Positional, in field order, as keywords cost about 2 us per report.
    return IndexReport(
        g.n, len(g.vertices), edge_count, degree_sum, wiener,
        Fraction(harary, common),
        exact_half(hyper_wiener),
        sum(map(mul, degrees, degrees)),  # zagreb1
        exact_half(zagreb2), exact_half(gutman), schultz,
        sum(map(mul, degrees, summary.eccentricities)),  # eccentric_connectivity
        ORACLE, summary.diameter,
    )
