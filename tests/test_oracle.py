import re
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divprime.oracle
from divprime.arithmetic import factorize
from divprime.formulas import cf_report
from divprime.oracle import (
    CapExceededError,
    DistanceSummary,
    DivisorGraph,
    build_graph,
    distance_summary,
    edges,
    oracle_report,
)
from divprime.report import COMPARED_FIELDS, IndexReport


def graph_of(n, cap=None):
    return build_graph(factorize(n), cap=cap)


class TestBuildGraph:
    def test_twelve(self):
        g = graph_of(12)
        assert g.vertices == (1, 2, 3, 4, 6, 12)
        assert sum(1 for _ in edges(g)) == 7

    def test_one(self):
        g = graph_of(1)
        assert g.vertices == (1,)
        assert list(edges(g)) == []

    def test_fifteen(self):
        g = graph_of(15)
        assert len(g.vertices) == 4
        assert list(edges(g)) == [(1, 3), (1, 5), (1, 15), (3, 5)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_graph(factorize(720720), cap=100)

    @pytest.mark.parametrize(("n", "count"), [(12, 6), (720720, 240)])
    def test_cap_refuses_above_the_divisor_count(self, monkeypatch, n, count):
        enumerated = []
        real = divprime.oracle.divisors
        monkeypatch.setattr(divprime.oracle, "divisors", lambda f: enumerated.append(f) or real(f))
        with pytest.raises(CapExceededError) as err:
            build_graph(factorize(n), cap=count - 1)
        assert (err.value.n, err.value.divisor_count, err.value.cap) == (n, count, count - 1)
        assert str(err.value) == f"n = {n} has {count} divisors, above the configured cap of {count - 1}"
        assert enumerated == []  # refused before any divisor was enumerated
        assert len(build_graph(factorize(n), cap=count).vertices) == count

    @given(st.integers(min_value=2, max_value=4000))
    @settings(max_examples=60)
    def test_adjacency_is_the_coprimality_relation(self, n):
        g = graph_of(n)
        count = len(g.vertices)
        for i in range(count):
            assert not g.adjacency[i] >> i & 1  # no self-loops
            for j in range(count):
                expected = i != j and gcd(g.vertices[i], g.vertices[j]) == 1
                assert bool(g.adjacency[i] >> j & 1) == expected

    def test_central_vertex_adjacent_to_all(self):
        for n in (2, 12, 30, 360):
            g = graph_of(n)
            assert g.adjacency[0].bit_count() == len(g.vertices) - 1


class TestDegrees:
    def test_twenty(self):
        g = graph_of(20)
        assert g.vertices == (1, 2, 4, 5, 10, 20)
        assert g.adjacency[g.vertices.index(1)].bit_count() == 5
        assert g.adjacency[g.vertices.index(5)].bit_count() == 3
        assert g.adjacency[g.vertices.index(10)].bit_count() == 1

    def test_one(self):
        assert graph_of(1).adjacency[0].bit_count() == 0


class TestDistanceSummary:
    def test_twelve(self):
        s = distance_summary(graph_of(12))
        assert s.pairs_at_distance == {1: 7, 2: 8}
        assert s.diameter == 2
        assert s.eccentricities == (1, 2, 2, 2, 2, 2)

    def test_one(self):
        s = distance_summary(graph_of(1))
        assert s.pairs_at_distance == {}
        assert s.diameter == 0
        assert s.eccentricities == (0,)

    def test_prime_is_single_edge(self):
        s = distance_summary(graph_of(7))
        assert s.pairs_at_distance == {1: 1}
        assert s.diameter == 1

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=80)
    def test_pair_counts_cover_all_pairs(self, n):
        g = graph_of(n)
        s = distance_summary(g)
        count = len(g.vertices)
        assert sum(s.pairs_at_distance.values()) == count * (count - 1) // 2
        assert s.diameter == max(s.eccentricities)


class TestOracleReport:
    def test_twelve_wiener(self):
        assert oracle_report(graph_of(12)).wiener == 23

    def test_thirty(self):
        r = oracle_report(graph_of(30))
        assert r.gutman == 361
        assert r.zagreb1 == 110
        assert r.zagreb2 == 205

    def test_forty_five_schultz(self):
        assert oracle_report(graph_of(45)).schultz == 96

    def test_report_is_definitional(self):
        # Recompute everything pairwise with a dense distance matrix and
        # plain loops, then insist the report agrees.
        g = graph_of(60)
        count = len(g.vertices)
        adj = [[bool(g.adjacency[i] >> j & 1) for j in range(count)] for i in range(count)]
        dist = [[0 if i == j else (1 if adj[i][j] else 2) for j in range(count)] for i in range(count)]
        # (distance 2 is legitimate here only because vertex 1 joins all
        # pairs; asserted by the adjacency of row 0)
        assert all(adj[0][j] for j in range(1, count))
        degs = [sum(adj[i]) for i in range(count)]
        r = oracle_report(g)
        assert r.wiener == sum(dist[i][j] for i in range(count) for j in range(i + 1, count))
        assert r.harary == sum(
            (Fraction(1, dist[i][j]) for i in range(count) for j in range(i + 1, count)),
            Fraction(0),
        )
        assert r.hyper_wiener * 2 == sum(
            dist[i][j] + dist[i][j] ** 2 for i in range(count) for j in range(i + 1, count)
        )
        assert r.zagreb1 == sum(d * d for d in degs)
        assert r.zagreb2 == sum(
            degs[i] * degs[j] for i in range(count) for j in range(i + 1, count) if adj[i][j]
        )
        assert r.gutman == sum(
            degs[i] * degs[j] * dist[i][j] for i in range(count) for j in range(i + 1, count)
        )
        assert r.schultz == sum(
            (degs[i] + degs[j]) * dist[i][j] for i in range(count) for j in range(i + 1, count)
        )
        assert r.eccentric_connectivity == sum(
            degs[i] * max(dist[i]) for i in range(count)
        )


def graph_from_edges(count, edge_list):
    """A DivisorGraph over vertices 0..count-1 with the given edges; used for
    graphs that are not divisor prime graphs."""
    rows = [0] * count
    for i, j in edge_list:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return DivisorGraph(n=0, vertices=tuple(range(count)), adjacency=tuple(rows))


# The spider S(2,2,2): legs 0-1-2, 0-3-4 and 0-5-6.  Diameter 4 and three
# degree classes, so nothing here can lean on the divisor graphs' diameter 2.
SPIDER_EDGES = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]

# Graphs with no universal vertex, so the first BFS level of a source is
# never the whole graph.  The double broom is the path 0-1-2-3 with five
# leaves on 0 and three on 3: diameter 5, with 9 pairs at distance 3 and 15
# at distance 5, so its Harary index is 61/2 (the plain paths P1-P8 are in
# TestNetworkxReference).  Its leaves and the two parts of K(2,3) are false
# twins.
NO_UNIVERSAL_VERTEX = {
    "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "double_broom": (
        12,
        [(0, 1), (1, 2), (2, 3), *((0, v) for v in range(4, 9)), *((3, v) for v in range(9, 12))],
    ),
    "K2_3": (5, [(i, j) for i in range(2) for j in range(2, 5)]),
}


class TestNonDivisorGraphs:
    def test_spider_distance_summary(self):
        s = distance_summary(graph_from_edges(7, SPIDER_EDGES))
        assert s.pairs_at_distance == {1: 6, 2: 6, 3: 6, 4: 3}
        assert s.eccentricities == (2, 3, 4, 3, 4, 3, 4)
        assert s.diameter == 4

    def test_spider_oracle_report(self):
        r = oracle_report(graph_from_edges(7, SPIDER_EDGES))
        assert r.wiener == 48
        assert r.harary == Fraction(47, 4)
        assert r.hyper_wiener == 90
        assert r.gutman == 114
        assert r.schultz == 150
        assert r.eccentric_connectivity == 36
        assert r.diameter == 4

    def test_disconnected_is_rejected(self):
        g = DivisorGraph(n=0, vertices=(1, 2, 3), adjacency=(2, 1, 0))
        with pytest.raises(ValueError, match="disconnected"):
            oracle_report(g)
        with pytest.raises(ValueError, match="disconnected"):
            distance_summary(g)

    def test_asymmetric_adjacency_is_rejected(self):
        # Row 2 lacks vertex 1: the degree sum is 5 against 3 distance-1
        # pairs, so the handshake check in the report catches it, while the
        # distance summary alone has nothing to check it against.
        g = DivisorGraph(n=0, vertices=(0, 1, 2), adjacency=(0b110, 0b101, 0b001))
        with pytest.raises(ValueError, match="degree sum 5 != twice edge count 3"):
            oracle_report(g)
        assert distance_summary(g) == DistanceSummary({1: 3}, (1, 1, 2), 2)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda count: st.lists(
                st.integers(min_value=0, max_value=(1 << count) - 1),
                min_size=count,
                max_size=count,
            )
        )
    )
    @settings(max_examples=300)
    def test_handshake_is_checked_before_any_halving(self, rows):
        # Random directed rows: the oracle halves ordered degree-weighted
        # sums, which are odd on many of these, but an adjacency the
        # handshake rejects must fail with the handshake's ValueError (or
        # as disconnected, found first), never with an ArithmeticError.
        count = len(rows)
        degree_sum = sum(row.bit_count() for row in rows)
        edge_count = sum((row >> (i + 1)).bit_count() for i, row in enumerate(rows))
        assume(degree_sum != 2 * edge_count)
        everything = (1 << count) - 1
        reaches_all = True
        for source in range(count):
            seen = frontier = 1 << source
            while frontier:
                reach = 0
                for i in range(count):
                    if frontier >> i & 1:
                        reach |= rows[i]
                frontier = reach & ~seen
                seen |= frontier
            reaches_all &= seen == everything
        expected = (
            f"degree sum {degree_sum} != twice edge count {edge_count}"
            if reaches_all
            else "divisor prime graph is disconnected"
        )
        g = DivisorGraph(n=0, vertices=tuple(range(count)), adjacency=tuple(rows))
        with pytest.raises(ValueError, match=re.escape(expected)):
            oracle_report(g)


def assert_matches_networkx(nx, g, nx_graph):
    """Compare the oracle with networkx on the same graph; ``nx_graph`` has
    the values of ``g.vertices`` as its nodes."""
    r = oracle_report(g)
    assert nx_graph.number_of_edges() == r.edge_count
    assert sum(d for _, d in nx_graph.degree) == r.degree_sum
    assert int(nx.wiener_index(nx_graph)) == r.wiener
    # networkx sums the hyper-Wiener terms over ordered pairs, so its value
    # is twice the unordered-pair definition used here.
    assert int(nx.hyper_wiener_index(nx_graph)) == 2 * r.hyper_wiener
    assert int(nx.gutman_index(nx_graph)) == r.gutman
    assert int(nx.schultz_index(nx_graph)) == r.schultz
    eccentricity = nx.eccentricity(nx_graph)
    s = distance_summary(g)
    assert s.eccentricities == tuple(eccentricity[v] for v in g.vertices)
    assert r.diameter == s.diameter == max(eccentricity.values())
    # networkx has no Harary index: sum 1/d over ordered pairs, then halve.
    lengths = list(nx.all_pairs_shortest_path_length(nx_graph))
    harary = sum(
        (Fraction(1, d) for _, row in lengths for d in row.values() if d), Fraction(0)
    )
    assert harary / 2 == r.harary
    # The distance histogram, likewise over ordered pairs and then halved.
    histogram = Counter(d for _, row in lengths for d in row.values() if d)
    assert s.pairs_at_distance == {d: c // 2 for d, c in histogram.items()}
    degree = dict(nx_graph.degree)
    assert sum(d * d for d in degree.values()) == r.zagreb1
    assert sum(degree[u] * degree[v] for u, v in nx_graph.edges) == r.zagreb2
    assert sum(degree[v] * eccentricity[v] for v in nx_graph) == r.eccentric_connectivity


class TestNetworkxReference:
    def test_spider(self):
        nx = pytest.importorskip("networkx")
        assert_matches_networkx(nx, graph_from_edges(7, SPIDER_EDGES), nx.Graph(SPIDER_EDGES))

    @pytest.mark.parametrize("name", NO_UNIVERSAL_VERTEX)
    def test_graphs_without_a_universal_vertex(self, name):
        nx = pytest.importorskip("networkx")
        count, edge_list = NO_UNIVERSAL_VERTEX[name]
        assert_matches_networkx(nx, graph_from_edges(count, edge_list), nx.Graph(edge_list))

    @pytest.mark.parametrize("count", range(1, 9))
    def test_paths(self, count):
        # Diameter count - 1, so the Harary denominators reach lcm(1..7).
        nx = pytest.importorskip("networkx")
        edge_list = [(i, i + 1) for i in range(count - 1)]
        assert_matches_networkx(nx, graph_from_edges(count, edge_list), nx.path_graph(count))

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=60, deadline=None)
    def test_divisor_graphs(self, n):
        nx = pytest.importorskip("networkx")
        # Built from plain trial division and math.gcd, independently of
        # build_graph.
        divs = [d for d in range(1, n + 1) if n % d == 0]
        reference = nx.Graph()
        reference.add_nodes_from(divs)
        reference.add_edges_from(
            (a, b) for i, a in enumerate(divs) for b in divs[i + 1 :] if gcd(a, b) == 1
        )
        assert_matches_networkx(nx, graph_of(n), reference)


def naive_indices(count, edge_list):
    """Every compared index of a connected graph from its definition: a
    dict-of-sets adjacency, one queue BFS per vertex, and sums over
    unordered pairs.  Shares no code with the oracle."""
    neighbours = {v: set() for v in range(count)}
    for u, v in edge_list:
        neighbours[u].add(v)
        neighbours[v].add(u)
    dist = {}
    for source in neighbours:
        reached = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in neighbours[u]:
                if w not in reached:
                    reached[w] = reached[u] + 1
                    queue.append(w)
        assert len(reached) == count, "the reference takes connected graphs only"
        dist[source] = reached
    deg = {v: len(neighbours[v]) for v in neighbours}
    pairs = [(u, v, dist[u][v]) for u in range(count) for v in range(u + 1, count)]
    adjacent = [(u, v) for u, v, d in pairs if d == 1]
    return {
        "edge_count": len(adjacent),
        "degree_sum": sum(deg.values()),
        "wiener": sum(d for _, _, d in pairs),
        "harary": sum((Fraction(1, d) for _, _, d in pairs), Fraction(0)),
        "hyper_wiener": sum(d + d * d for _, _, d in pairs) / Fraction(2),
        "zagreb1": sum(d * d for d in deg.values()),
        "zagreb2": sum(deg[u] * deg[v] for u, v in adjacent),
        "gutman": sum(deg[u] * deg[v] * d for u, v, d in pairs),
        "schultz": sum((deg[u] + deg[v]) * d for u, v, d in pairs),
        "eccentric_connectivity": sum(deg[v] * max(dist[v].values()) for v in neighbours),
        "diameter": max((d for _, _, d in pairs), default=0),
    }


def assert_matches_naive(count, edge_list):
    r = oracle_report(graph_from_edges(count, edge_list))
    expected = naive_indices(count, edge_list)
    assert {name: getattr(r, name) for name in expected} == expected


@st.composite
def connected_graphs(draw, max_vertices=12):
    """A connected graph on 0..count-1: a random spanning tree over a
    shuffled vertex order, plus any set of further edges."""
    count = draw(st.integers(min_value=1, max_value=max_vertices))
    order = draw(st.permutations(range(count)))
    edge_set = {
        tuple(sorted((order[i], order[draw(st.integers(min_value=0, max_value=i - 1))])))
        for i in range(1, count)
    }
    all_pairs = [(u, v) for u in range(count) for v in range(u + 1, count)]
    if all_pairs:
        edge_set |= draw(st.sets(st.sampled_from(all_pairs)))
    return count, sorted(edge_set)


def complete_graph(count):
    return count, [(u, v) for u in range(count) for v in range(u + 1, count)]


# The last vertex has no vertex above it, so its last BFS level adds no
# pair; in the reversed path vertex 3 has such a level too, though 4 lies
# above it.
NAMED_GRAPHS = {
    "spider": (7, SPIDER_EDGES),
    **NO_UNIVERSAL_VERTEX,
    "star": (6, [(0, v) for v in range(1, 6)]),
    "path_reversed": (5, [(4, 3), (3, 2), (2, 1), (1, 0)]),
}


class TestNaiveReference:
    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named_graphs(self, name):
        assert_matches_naive(*NAMED_GRAPHS[name])

    @given(connected_graphs())
    @settings(max_examples=200, deadline=None)
    def test_connected_graphs(self, graph):
        assert_matches_naive(*graph)

    @pytest.mark.parametrize("count", range(1, 13))
    def test_complete_graphs(self, count):
        # Every source has eccentricity 1, so its only level is the last
        # one, whose degree sum the oracle takes by subtraction.
        s = distance_summary(graph_from_edges(*complete_graph(count)))
        assert s.eccentricities == (min(count - 1, 1),) * count
        assert_matches_naive(*complete_graph(count))


# Vertex 0 is adjacent to every other vertex, and 1-2, 1-3, 3-4 are the
# other edges.  From vertex 1 the first level is {0, 2, 3}: row 0 alone
# reaches every vertex, so the BFS stops OR-ing there, while 2 and 3, of
# degrees 2 and 3, still add to the level's degree sum.  The last level,
# {4, 5}, holds vertices of degrees 2 and 1.
FAN_EDGES = [*((0, v) for v in range(1, 6)), (1, 2), (1, 3), (3, 4)]


class RecordedRows(tuple):
    """Adjacency rows that log the index of every row read by subscript."""

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def rows_read(g):
    rows = RecordedRows(g.adjacency)
    rows.read = []
    distance_summary(g._replace(adjacency=rows))
    return rows.read


class TestSaturationStop:
    """The BFS ORs a level's rows only until they reach every unseen
    vertex; the rest of the level then adds its degrees alone."""

    @pytest.mark.parametrize(
        ("count", "edge_list"),
        [
            # Each level is one vertex (two on C9) and the reach covers
            # every vertex only on the last level expanded, if at all.
            (8, [(i, i + 1) for i in range(7)]),
            (9, [(i, (i + 1) % 9) for i in range(9)]),
            (6, FAN_EDGES),
        ],
        ids=["P8", "C9", "fan"],
    )
    def test_matches_naive(self, count, edge_list):
        assert_matches_naive(count, edge_list)

    def test_a_saturated_level_reads_one_row(self):
        # Each source reads its own row, then row 0, which saturates its
        # first level; its last level is never expanded.
        assert rows_read(graph_from_edges(6, FAN_EDGES)) == [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0]
        # On a divisor graph divisor 1 is adjacent to every other divisor.
        g = graph_of(720)
        assert rows_read(g) == [0, *(i for s in range(1, len(g.vertices)) for i in (s, 0))]

    @pytest.mark.parametrize(
        "rows",
        [
            (0b000, 0b100, 0b010),  # vertex 0 isolated
            (0b010, 0b001, 0b000),  # vertex 2 isolated, found from vertex 0
            (0b001, 0b100, 0b010),  # vertex 0 holds only its own loop
            (0b010, 0b001, 0b100),  # vertex 2 likewise
        ],
    )
    def test_unreachable_vertex_is_disconnected(self, rows):
        g = DivisorGraph(n=0, vertices=(0, 1, 2), adjacency=rows)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            distance_summary(g)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            oracle_report(g)

    def test_one_vertex_with_a_loop_is_connected(self):
        g = DivisorGraph(n=0, vertices=(0,), adjacency=(0b1,))
        assert distance_summary(g) == DistanceSummary({}, (0,), 0)


_PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def same_signature_pairs(draw):
    """Two n with the same exponent multiset over disjoint primes below 50,
    each with at most 256 divisors."""
    # At most seven primes per side: two disjoint sets of eight need 16.
    r = draw(st.integers(min_value=0, max_value=7))
    exponents: list[int] = []
    for i in range(r):
        # Leave a factor of at least 2 in the divisor count for each prime
        # still to come.
        room = 256 // (prod(e + 1 for e in exponents) * 2 ** (r - i - 1))
        exponents.append(draw(st.integers(min_value=1, max_value=room - 1)))
    primes = draw(st.permutations(_PRIMES_BELOW_50))
    first = prod(p**e for p, e in zip(primes[:r], exponents))
    second = prod(p**e for p, e in zip(primes[r : 2 * r], exponents))
    return first, second


class TestSignatureInvariance:
    @given(same_signature_pairs())
    @settings(max_examples=40, deadline=None)
    def test_same_signature_same_report(self, pair):
        # The oracle never assumes the closed form's premise that only the
        # exponent signature matters; relabelling the primes is a graph
        # isomorphism, so every index, the diameter and the distance
        # histogram must still agree.
        first, second = (graph_of(n) for n in pair)
        a, b = oracle_report(first), oracle_report(second)
        for name in (*COMPARED_FIELDS, "divisor_count", "diameter"):
            assert getattr(a, name) == getattr(b, name), name
        assert distance_summary(first) == distance_summary(second)


def gcd_adjacency(vertices):
    """Reference adjacency rows from one math.gcd call per unordered pair."""
    rows = [0] * len(vertices)
    for i, v in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            if gcd(v, vertices[j]) == 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


@st.composite
def many_divisor_n(draw):
    """An n over primes below 50 with at most 1200 divisors."""
    r = draw(st.integers(min_value=1, max_value=10))
    exponents: list[int] = []
    for i in range(r):
        room = 1200 // (prod(e + 1 for e in exponents) * 2 ** (r - i - 1))
        exponents.append(draw(st.integers(min_value=1, max_value=room - 1)))
    primes = draw(st.permutations(_PRIMES_BELOW_50))
    return prod(p**e for p, e in zip(primes, exponents))


class TestAdjacencyAtLargeD:
    @given(many_divisor_n())
    @settings(max_examples=25, deadline=None)
    def test_masks_equal_pairwise_gcd(self, n):
        g = graph_of(n)
        assert g.adjacency == gcd_adjacency(g.vertices)

    def test_one_has_no_self_loop(self):
        g = graph_of(1)
        assert g.adjacency == (0,) == gcd_adjacency(g.vertices)

    def test_prime(self):
        g = graph_of(1_000_003)
        assert g.adjacency == (0b10, 0b01) == gcd_adjacency(g.vertices)

    def test_prime_power(self):
        g = graph_of(3**1199)
        everything = (1 << 1200) - 1
        assert g.adjacency == (everything ^ 1, *[1] * 1199) == gcd_adjacency(g.vertices)


class TestSharedRows:
    """Rows are built once per prime support of a divisor and shared."""

    F = factorize(prod(p**3 for p in (2, 3, 5, 7, 11, 13)))  # D = 4096

    def test_one_row_object_per_prime_support(self):
        g = build_graph(self.F)
        assert len(g.vertices) == 4096
        assert len({id(row) for row in g.adjacency}) == 2**6
        radical = prod(p for p, _ in self.F.factors)
        first: dict[int, int] = {}
        for v, row in zip(g.vertices, g.adjacency):
            assert row is first.setdefault(gcd(v, radical), row)

    def test_build_memory_grows_with_the_supports(self):
        # One D-bit int per vertex would peak near 1.3 MiB here; 2^6 shared
        # rows stay under 0.3 MiB.
        tracemalloc.start()
        try:
            build_graph(self.F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 2**20


class TestStructuralInvariants:
    @pytest.mark.parametrize("n", range(1, 301))
    def test_small_n(self, n):
        f = factorize(n)
        g = build_graph(f)
        r = oracle_report(g)
        count = len(g.vertices)

        # diameter trichotomy
        assert r.diameter <= 2
        assert (r.diameter == 0) == (n == 1)
        assert (r.diameter == 1) == (len(f.factors) == 1 and f.factors[0][1] == 1)

        # edge count and handshake
        assert r.edge_count == (prod(2 * e + 1 for _, e in f.factors) - 1) // 2
        assert r.degree_sum == 2 * r.edge_count

        if n >= 2:
            assert g.adjacency[0].bit_count() == count - 1
            # diameter-2 identities on pure oracle values
            assert r.gutman == r.degree_sum**2 - r.zagreb1 - r.zagreb2
            assert r.schultz == 2 * (count - 1) * r.degree_sum - r.zagreb1
        assert 2 * r.wiener + 4 * r.harary == 3 * count * (count - 1)


class TestPathEquivalence:
    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_equals_oracle(self, n):
        f = factorize(n)
        closed = cf_report(f)
        oracle = oracle_report(build_graph(f))
        for name in COMPARED_FIELDS:
            assert getattr(closed, name) == getattr(oracle, name), name
        assert closed.n == oracle.n
        assert closed.divisor_count == oracle.divisor_count


def test_report_type_rejects_broken_invariants():
    good = oracle_report(graph_of(12))
    with pytest.raises(ValueError):
        IndexReport(
            n=good.n,
            divisor_count=good.divisor_count,
            edge_count=good.edge_count,
            degree_sum=good.degree_sum + 1,  # handshake broken
            wiener=good.wiener,
            harary=good.harary,
            hyper_wiener=good.hyper_wiener,
            zagreb1=good.zagreb1,
            zagreb2=good.zagreb2,
            gutman=good.gutman,
            schultz=good.schultz,
            eccentric_connectivity=good.eccentric_connectivity,
            source=good.source,
            diameter=good.diameter,
        )
    with pytest.raises(ValueError):
        IndexReport(
            n=good.n,
            divisor_count=good.divisor_count,
            edge_count=good.edge_count,
            degree_sum=good.degree_sum,
            wiener=good.wiener,
            harary=Fraction(1, 3),  # denominator must divide lcm(1, 2) at diameter 2
            hyper_wiener=good.hyper_wiener,
            zagreb1=good.zagreb1,
            zagreb2=good.zagreb2,
            gutman=good.gutman,
            schultz=good.schultz,
            eccentric_connectivity=good.eccentric_connectivity,
            source=good.source,
            diameter=good.diameter,
        )
    with pytest.raises(ValueError):
        # The denominator divides lcm(1, 2); only the sign is wrong.
        good._replace(harary=Fraction(-1, 2))


def test_harary_denominator_bound_follows_the_diameter():
    # Sum of 1/d over pairs: P4 has one pair at distance 3, P6 reaches 5.
    path = [(i, i + 1) for i in range(5)]
    assert oracle_report(graph_from_edges(4, path[:3])).harary == Fraction(13, 3)
    assert oracle_report(graph_from_edges(6, path)).harary == Fraction(87, 10)
    # Closed-form reports carry no diameter; their graphs have diameter <= 2.
    closed = cf_report(factorize(12))
    with pytest.raises(ValueError, match="must divide 2"):
        closed._replace(harary=Fraction(1, 3))
    assert closed._replace(harary=Fraction(1, 2)).harary == Fraction(1, 2)


@pytest.mark.parametrize(
    ("diameter", "denominator", "accepted"),
    [(1, 2, False), (2, 3, False), (3, 3, True), (5, 7, False), (0, 1, True), (1, 1, True), (2, 2, True)],
)
def test_harary_denominator_edge_cases(diameter, denominator, accepted):
    # The denominator must divide lcm(1..diameter), checked on every report.
    good = oracle_report(graph_of(12))
    harary = Fraction(1, denominator)
    if accepted:
        assert good._replace(diameter=diameter, harary=harary).harary == harary
    else:
        bound = lcm(*range(1, diameter + 1))
        with pytest.raises(ValueError, match=f"harary denominator must divide {bound}: "):
            good._replace(diameter=diameter, harary=harary)


def _negative(field):
    return Fraction(-1, 2) if field == "harary" else -1


@pytest.mark.parametrize("field", COMPARED_FIELDS)
def test_report_names_the_first_negative_field(field):
    good = oracle_report(graph_of(12))
    if field == "degree_sum":
        # With the handshake intact a negative degree sum means a negative
        # edge count, which comes first in COMPARED_FIELDS.
        bad = {"degree_sum": -2, "edge_count": -1}
        expected = "edge_count must be nonnegative"
    else:
        bad = {field: _negative(field)}
        if field == "edge_count":
            bad["degree_sum"] = -2
        expected = f"{field} must be nonnegative"
    with pytest.raises(ValueError, match=f"^{expected}$"):
        good._replace(**bad)
    # Every later field negative too: the first in COMPARED_FIELDS is named.
    later = COMPARED_FIELDS[COMPARED_FIELDS.index(field) + 1 :]
    with pytest.raises(ValueError, match=f"^{expected}$"):
        good._replace(**bad, **{name: _negative(name) for name in later if name != "degree_sum"})


def test_report_validation_messages():
    good = oracle_report(graph_of(12))
    handshake = f"degree sum {good.degree_sum + 1} != twice edge count {good.edge_count}"
    with pytest.raises(ValueError, match=f"^{re.escape(handshake)}$"):
        good._replace(degree_sum=good.degree_sum + 1)
    # The handshake is checked before the signs.
    with pytest.raises(ValueError, match="^degree sum -1 != twice edge count 3$"):
        good._replace(degree_sum=-1, edge_count=3, wiener=-1)
    with pytest.raises(ValueError, match="^unknown source tag 'brute'$"):
        good._replace(source="brute")
    # The signs are checked before the source tag.
    with pytest.raises(ValueError, match="^wiener must be nonnegative$"):
        good._replace(source="brute", wiener=-1)
    assert good._replace(wiener=0).wiener == 0  # zero is allowed
