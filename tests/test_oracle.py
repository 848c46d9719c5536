import random
import re
import struct
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divprime.oracle
from divprime.arithmetic import divisors, factorize
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
        assert g.vertices == (1, 3, 2, 6, 4, 12)
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
        f = factorize(n)
        assert len(build_graph(f, cap=count).vertices) == count
        # Exactly one call, through the module name that callers and the
        # benchmark's tracer rebind.
        assert enumerated == [f]

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
        assert g.vertices == (1, 5, 2, 10, 4, 20)
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

    def test_no_vertices(self):
        # The pair counts at distances 1 and 2 are set on every graph, this
        # one included.
        g = DivisorGraph(n=0, vertices=(), adjacency=())
        assert distance_summary(g) == DistanceSummary({}, (), 0)

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
    @example(n=7560)  # D = 64, the fewest vertices of the per-row pass
    @example(n=27720)  # D = 96
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


# False twins: vertices with one neighbourhood, hence equal rows, and so one
# first BFS level.  In the spider with duplicated leaves, leaf 7 is a twin of
# leaf 2, 8 of 4 and 9 of 6.  In the twin ladder, 2 and 3 are twins, and
# sources 0 and 5 differ at level 1 but share level 2, {2, 3}; in C6 a
# source's level 2 is its antipode's level 1.  In these three no row covers
# every vertex with the row of its lowest vertex, so every source runs the
# BFS.  In K4 less the edge 2-3, 2 and 3 are false twins sharing one row,
# which row 0 covers, and so one entry of the first-level memo, while 0 and 1
# are adjacent true twins whose rows differ.
TWIN_GRAPHS = {
    "spider_twin_leaves": (10, [*SPIDER_EDGES, (1, 7), (3, 8), (5, 9)]),
    "twin_ladder": (6, [(0, 1), (1, 2), (1, 3), (4, 2), (4, 3), (4, 5)]),
    "C6": (6, [(i, (i + 1) % 6) for i in range(6)]),
    "K4_minus_edge": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
}

# The last vertex has no vertex above it, so its last BFS level adds no
# pair; in the reversed path vertex 3 has such a level too, though 4 lies
# above it.
NAMED_GRAPHS = {
    "spider": (7, SPIDER_EDGES),
    **NO_UNIVERSAL_VERTEX,
    **TWIN_GRAPHS,
    "star": (6, [(0, v) for v in range(1, 6)]),
    "path_reversed": (5, [(4, 3), (3, 2), (2, 1), (1, 0)]),
}


@st.composite
def graphs_with_twins(draw):
    """A graph from ``connected_graphs`` with some vertices copied, so that
    it holds twins.  Each copy gets its original's neighbours, and an edge
    to the original only when drawn so, or when the original has no
    neighbour; without that edge the two are false twins, with equal rows.
    Vertices are then relabelled at random."""
    count, edge_list = draw(connected_graphs(max_vertices=8))
    edge_set = set(edge_list)
    originals = draw(st.lists(st.integers(min_value=0, max_value=count - 1), min_size=1, max_size=6))
    for copy, original in enumerate(originals, start=count):
        neighbours = {u for edge in edge_set if original in edge for u in edge} - {original}
        edge_set |= {(u, copy) for u in neighbours}
        if not neighbours or draw(st.booleans()):
            edge_set.add((original, copy))
    total = count + len(originals)
    label = draw(st.permutations(range(total)))
    return total, sorted(tuple(sorted((label[u], label[v]))) for u, v in edge_set)


class TestNaiveReference:
    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named_graphs(self, name):
        assert_matches_naive(*NAMED_GRAPHS[name])

    @given(connected_graphs())
    @settings(max_examples=200, deadline=None)
    def test_connected_graphs(self, graph):
        assert_matches_naive(*graph)

    @given(graphs_with_twins())
    @settings(max_examples=200, deadline=None)
    def test_graphs_with_twins(self, graph):
        assert_matches_naive(*graph)

    @pytest.mark.parametrize("count", range(1, 13))
    def test_complete_graphs(self, count):
        # Every source has eccentricity 1, so its only level is the last
        # one, whose degree sum the oracle takes by subtraction.
        s = distance_summary(graph_from_edges(*complete_graph(count)))
        assert s.eccentricities == (min(count - 1, 1),) * count
        assert_matches_naive(*complete_graph(count))


# Vertex 0 is adjacent to every other vertex, and 1-2, 1-3, 3-4 are the
# other edges.  From vertex 1 the first level is {0, 2, 3}, of degrees 5, 2
# and 3, and the second, {4, 5}, holds vertices of degrees 2 and 1.
FAN_EDGES = [*((0, v) for v in range(1, 6)), (1, 2), (1, 3), (3, 4)]

# The tree 0-1, 1-2, 1-3, 2-4.  No row covers with row 0 or row 1, and only
# vertex 2's row {1, 4} covers with row 1, so every other source runs the
# BFS and expands each level but its last.
TREE_EDGES = [(0, 1), (1, 2), (1, 3), (2, 4)]


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


def relabelled(rows, label):
    """The rows with vertex i renamed label[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[label[i]] = sum(1 << label[j] for j in range(len(rows)) if row >> j & 1)
    return tuple(out)


class TestSaturationStop:
    """The BFS ORs every row of a level that leaves some vertex unseen and
    never expands the level that leaves none, whose degree sum is the total
    less every earlier level; an empty next level before then means the
    graph is disconnected."""

    @pytest.mark.parametrize(
        ("count", "edge_list"),
        [
            # Each level is one vertex (two on C9) and the reach covers
            # every vertex only on the last level expanded, if at all.
            (8, [(i, i + 1) for i in range(7)]),
            (9, [(i, (i + 1) % 9) for i in range(9)]),
            (6, FAN_EDGES),
            (5, TREE_EDGES),
        ],
        ids=["P8", "C9", "fan", "tree"],
    )
    def test_matches_naive(self, count, edge_list):
        assert_matches_naive(count, edge_list)

    def test_a_saturated_level_reads_one_row(self):
        # Source 0 is adjacent to every other vertex, so its first level is
        # its last and it reads only its own row.  Every other source reads
        # its own row, then row 0 in the memo's cover test, which it passes,
        # so no source expands a level.
        assert rows_read(graph_from_edges(6, FAN_EDGES)) == [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0]
        # On a divisor graph divisor 1 is adjacent to every other divisor, so
        # row 0 covers every row but its own.  Each source reads its own row,
        # and row 0 follows, in the memo's cover test, only the first
        # divisor of each of the 7 nonempty prime supports of 720 (5, 3, 15,
        # 2, 10, 6 and 30, at indices 1, 2, 3, 6, 7, 8 and 9 of the
        # mixed-radix order 1, 5, 3, 15, 9, 45, 2, 10, 6, 30, 18, ...); their
        # false twins take level 1 from the memo without a read.
        assert rows_read(graph_of(720)) == [
            *(0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 0, 7, 0, 8, 0, 9, 0),
            *range(10, 30),
        ]

    def test_each_expanded_level_reads_every_row(self):
        # Each source reads its own row and then, in the memo's cover test,
        # the row of its lowest neighbour; a source whose row does not
        # cover then reads every row of each level that leaves a vertex
        # unseen, lowest first, and no row of its last level.  From 0 the
        # levels are {1}, {2, 3} and {4}: row 2 alone reaches 4, and row 3
        # is still read.  From 1 they are {0, 2, 3} and {4}; 2 covers; from
        # 3 they are {1}, {0, 2} and {4}; from 4, {2}, {1} and {0, 3}.
        assert rows_read(graph_from_edges(5, TREE_EDGES)) == [
            *(0, 1, 1, 2, 3),
            *(1, 0, 0, 2, 3),
            *(2, 1),
            *(3, 1, 0, 2),
            *(4, 2, 2, 1),
        ]

    @pytest.mark.parametrize(
        "rows",
        [
            (0b000, 0b100, 0b010),  # vertex 0 isolated
            (0b010, 0b001, 0b000),  # vertex 2 isolated, found from vertex 0
            (0b001, 0b100, 0b010),  # vertex 0 holds only its own loop
            (0b010, 0b001, 0b100),  # vertex 2 likewise
            # Vertices 0 and 1 share the row {2}, but 2 points back only to
            # 1, so 0 cannot be reached from 1: twins' BFS results are
            # interchangeable only when the rows are symmetric.  Row 2 ORed
            # with {2} misses only 0, the first source with that row, so the
            # first-level memo must count the source itself in its cover.
            # Likewise 0, 1 and 2 share {3}, and row 3 is {1, 2}.  Every
            # relabelling, the identity first, must still be disconnected.
            *(relabelled((0b100, 0b100, 0b010), label) for label in permutations(range(3))),
            *(relabelled((0b1000,) * 3 + (0b0110,), label) for label in permutations(range(4))),
        ],
    )
    def test_unreachable_vertex_is_disconnected(self, rows):
        g = DivisorGraph(n=0, vertices=(0, 1, 2), adjacency=rows)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            distance_summary(g)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            oracle_report(g)

    @pytest.mark.parametrize(
        "rows",
        [
            (0b10, 0b01, 0, 0),  # the edge 0-1, then the isolated twins 2 and 3
            (0, 0, 0b1000, 0b0100),  # the isolated twins 0 and 1, then the edge 2-3
            (0, 0),
        ],
    )
    def test_isolated_twins_are_disconnected(self, rows):
        # Empty rows are equal, so the twins share a first level, the empty
        # mask; the second of them must still be found unreachable.
        g = DivisorGraph(n=0, vertices=tuple(range(len(rows))), adjacency=rows)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            distance_summary(g)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            oracle_report(g)

    def test_one_vertex_with_a_loop_is_connected(self):
        g = DivisorGraph(n=0, vertices=(0,), adjacency=(0b1,))
        assert distance_summary(g) == DistanceSummary({}, (0,), 0)


@st.composite
def graphs_with_false_twins(draw, min_vertices, max_vertices):
    """A connected graph of min_vertices to max_vertices vertices: a seeded
    random tree on 2 to 24 vertices, with further edges and, if drawn, a
    vertex adjacent to every other, then copies of its vertices until the
    count is reached.  Each copy gets its original's neighbours at the time
    and no edge to it, so every copy is a false twin of its original, and
    relabelling keeps the universal vertex, if any, at 0 when drawn so, as
    divisor 1 is, where every other row covers with row 0."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = draw(st.integers(min_value=2, max_value=min(24, max_vertices - 1)))
    count = draw(st.integers(min_value=max(min_vertices, base + 1), max_value=max_vertices))
    hub = draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.1, 0.4]))
    neighbours = [set() for _ in range(count)]
    edge_set = {(rng.randrange(v), v) for v in range(1, base)}
    edge_set |= {(u, v) for v in range(base) for u in range(v) if rng.random() < density}
    edge_set |= {(0, v) for v in range(1, base)} if hub else set()
    for u, v in edge_set:
        neighbours[u].add(v)
        neighbours[v].add(u)
    for copy in range(base, count):
        for u in neighbours[rng.randrange(base)]:
            edge_set.add((u, copy))
            neighbours[u].add(copy)
            neighbours[copy].add(u)
    label = [0, *rng.sample(range(1, count), count - 1)]
    if not (hub and draw(st.booleans())):
        rng.shuffle(label)
    return count, sorted(tuple(sorted((label[u], label[v]))) for u, v in edge_set)


def assert_bfs_sums_match_naive(count, edge_list):
    """The BFS sums against the naive reference on a graph that may hold
    loops, which oracle_report's handshake check refuses: a loop counts in
    its vertex's degree and is no pair."""
    summary, degrees, zagreb2, gutman, schultz = divprime.oracle._bfs_sums(
        graph_from_edges(count, edge_list)
    )
    pairs = summary.pairs_at_distance
    expected = naive_indices(count, edge_list)
    assert pairs.get(1, 0) == expected["edge_count"]
    assert sum(degrees) == expected["degree_sum"]
    assert sum(d * c for d, c in pairs.items()) == expected["wiener"]
    assert (zagreb2, gutman, schultz) == (
        2 * expected["zagreb2"],
        2 * expected["gutman"],
        expected["schultz"],
    )
    assert sum(map(mul, degrees, summary.eccentricities)) == expected["eccentric_connectivity"]
    assert summary.diameter == expected["diameter"]


class TestFirstLevelMemo:
    """A source with a loop-free row R, neither empty nor of every other
    vertex, takes its first level from a memo keyed by R, which holds the
    level's degree sum when R ORed with the row of its lowest vertex is
    every vertex; such a source ends at eccentricity 2 and reads only its
    own row, so false twins after the first read one row each."""

    @pytest.mark.parametrize(("lo", "hi"), [(3, 63), (64, 100)], ids=["walk", "planes"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_graphs_with_false_twins(self, lo, hi, data):
        count, edge_list = data.draw(graphs_with_false_twins(lo, hi))
        assert lo <= count <= hi
        assert_matches_naive(count, edge_list)

    @pytest.mark.parametrize(
        "n", [4, 9, 12, 72, 720, 2520, 5040, 7560, 2**6 * 3**2 * 5 * 7, 2**5 * 3**3 * 5**2 * 7]
    )
    def test_divisor_graphs_up_to_four_primes(self, n):
        # D = 3 to 144, either side of the 64 vertices that plane sums and
        # the per-row pass need.  Below 64, source 0, divisor 1, reads its
        # own row; every other source reads its own, and the first of each
        # of the 2^omega - 1 nonempty prime supports then reads row 0, which
        # covers its row.  From 64 up, the row of each nonempty support reads
        # row 0 once in its cover test, and then source 0 reads its own row
        # for the only BFS.
        g = graph_of(n)
        count = len(g.vertices)
        read = rows_read(g)
        supports = 2 ** len(factorize(n).factors)
        if count < 64:
            assert read.count(0) == supports
            assert [i for i in read if i] == list(range(1, count))
        else:
            assert read == [0] * supports
        edge_list = [(g.vertices.index(u), g.vertices.index(v)) for u, v in edges(g)]
        assert_matches_naive(count, edge_list)

    def test_twins_whose_row_covers(self):
        # In K4 less the edge 2-3, the false twins 2 and 3 share the row
        # {0, 1}, which row 0 covers; 0 and 1 are adjacent to every other
        # vertex, so they run the BFS, which ends at once.
        count, edge_list = TWIN_GRAPHS["K4_minus_edge"]
        assert rows_read(graph_from_edges(count, edge_list)) == [0, 1, 2, 0, 3]
        assert_matches_naive(count, edge_list)

    @pytest.mark.parametrize("looped", [1, 2, 3])
    def test_a_twin_class_with_a_looped_member(self, looped):
        # Vertex 0 is adjacent to every other vertex, and 1, 2 and 3 to 4,
        # so 1, 2 and 3 have the neighbours {0, 4}, which row 0 covers.  The
        # member with a loop runs the BFS, with the loop in its degree; of
        # the other two, which share the row {0, 4}, the first fills the
        # memo and the second takes it.  So row 0 is read three times: by
        # source 0, by the BFS and by the memo's fill.
        count = 5
        edge_list = [*((0, v) for v in range(1, 5)), (1, 4), (2, 4), (3, 4), (looped, looped)]
        assert_bfs_sums_match_naive(count, edge_list)
        assert rows_read(graph_from_edges(count, edge_list)).count(0) == 3

    def test_a_cover_that_misses_its_first_source(self):
        # Directed rows: 0 and 1 share the row {2}, row 2 is {1, 3} and row
        # 3 is {0}, so every vertex reaches every other.  {2} | {1, 3} misses
        # only 0: from 0 the BFS ends at level 2, {1, 3}, while from 1 it
        # needs levels {3} and {0}, so 1's eccentricity is 3, not the memo's 2.
        g = DivisorGraph(n=0, vertices=(0, 1, 2, 3), adjacency=(0b0100, 0b0100, 0b1010, 0b0001))
        assert distance_summary(g) == DistanceSummary({1: 3, 2: 3}, (2, 3, 2, 3), 3)


def directed_summary(rows):
    """The distance summary of possibly asymmetric rows, from one queue BFS
    per vertex over sets of successors, a loop being no successor.  Shares
    no code with the oracle."""
    count = len(rows)
    successors = [{w for w in range(count) if row >> w & 1} - {v} for v, row in enumerate(rows)]
    pairs, eccentricities = Counter(), []
    for source in range(count):
        reached = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in successors[u] - reached.keys():
                reached[w] = reached[u] + 1
                queue.append(w)
        assert len(reached) == count, "the reference takes strongly connected rows only"
        pairs.update(reached[t] for t in range(source + 1, count))
        eccentricities.append(max(reached.values()))
    return DistanceSummary(dict(pairs), tuple(eccentricities), max(eccentricities, default=0))


def bfs_sums_or_message(g):
    try:
        return divprime.oracle._bfs_sums(g)
    except ValueError as err:
        return str(err)


def per_source_sums(g):
    """``_bfs_sums`` of g, or its ValueError's message, on the per-source
    path that graphs below ``_PLANE_MIN`` vertices take."""
    with mock.patch.object(divprime.oracle, "_PLANE_MIN", len(g.adjacency) + 1):
        return bfs_sums_or_message(g)


@st.composite
def rows_with_loops_and_dropped_arcs(draw):
    """The rows of a graph from ``graphs_with_false_twins`` on 64 to 100
    vertices, with loops added at up to three drawn vertices and up to three
    drawn arcs u -> v dropped, so that some rows are asymmetric and some
    graphs no longer strongly connected."""
    count, edge_list = draw(graphs_with_false_twins(64, 100))
    rows = list(graph_from_edges(count, edge_list).adjacency)
    vertex = st.integers(min_value=0, max_value=count - 1)
    for v in draw(st.lists(vertex, max_size=3)):
        rows[v] |= 1 << v
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        rows[u] &= ~(1 << v)
    return DivisorGraph(n=0, vertices=tuple(range(count)), adjacency=tuple(rows))


class TestPerRowPass:
    """A loop-free graph of 64 or more vertices sums each covering row's first level
    once for all of its sources, runs the BFS from the sources of every
    other row, and counts as distance 2 every pair that neither level 1 nor
    the BFS counted.  It must agree with references that share no code with
    the oracle and with the per-source path of smaller graphs."""

    @given(rows_with_loops_and_dropped_arcs())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_source_path(self, g):
        assert bfs_sums_or_message(g) == per_source_sums(g)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_bfs_sources_at_eccentricity_three_beside_served_rows(self, seed):
        # Vertex 0 is adjacent to the 67 twins 2..68 and to the pendant 69,
        # and 1 to the twins alone.  The twins' row {0, 1} and row 0 cover,
        # so 68 sources take eccentricity 2 without a BFS, while 1 and 69,
        # at distance 3, run it: the pairs at distance 2 that the served
        # sources do not count one by one must come out of the complement.
        # Relabelled at random, other rows cover or not.
        count = 70
        edge_list = [*((0, v) for v in range(2, count)), *((1, v) for v in range(2, count - 1))]
        if seed is not None:
            label = random.Random(seed).sample(range(count), count)
            edge_list = [(label[u], label[v]) for u, v in edge_list]
        assert_matches_naive(count, edge_list)
        assert distance_summary(graph_from_edges(count, edge_list)).diameter == 3

    @pytest.mark.parametrize("looped", [1, 2, 3])
    def test_a_twin_class_with_a_looped_member(self, looped):
        # Vertex 0 is adjacent to every other vertex, and 1 to 68 to 69, so
        # they have the neighbours {0, 69}, which row 0 covers.  The loop
        # leaves the whole graph to the per-source path: the member with a
        # loop runs the BFS, with the loop in its degree, and the other 67
        # share the row {0, 69}, whose first source tests the cover once for
        # the memo.  So row 0 is read three times: by that cover test, by
        # source 0 and by the BFS.
        count = 70
        edge_list = [*((0, v) for v in range(1, count)), *((v, 69) for v in range(1, 69))]
        edge_list.append((looped, looped))
        assert_bfs_sums_match_naive(count, edge_list)
        assert rows_read(graph_from_edges(count, edge_list)).count(0) == 3

    def test_a_looped_source_sharing_its_row_with_loop_free_twins(self):
        # Directed rows: 0 points to every other vertex and every other
        # vertex to {0, 1}, which row 0 covers; 1 is in its own row, a loop,
        # so the whole graph is left to the per-source path rather than
        # the per-row pass serving 1 from a cover that 1 would be counted in
        # there: 1 runs the BFS, and its loop-free twins take the cover from
        # the memo.
        count = 70
        rows = ((1 << count) - 2, *[0b11] * (count - 1))
        g = DivisorGraph(n=0, vertices=tuple(range(count)), adjacency=rows)
        assert distance_summary(g) == directed_summary(rows)
        assert divprime.oracle._bfs_sums(g) == per_source_sums(g)

    @pytest.mark.parametrize("looped", [0, 1, 7])
    def test_one_loop_leaves_the_whole_graph_to_the_per_source_path(self, looped):
        # 65 vertices, so the per-row pass would build the degree planes for
        # the twins' covering row; a loop at the hub, at a twin or at a leaf
        # keeps every source on the per-source path, which builds none.
        count, edge_list = covering_powers_of_two_graph()
        edge_list.append((looped, looped))
        assert plane_builds(count, edge_list, assert_bfs_sums_match_naive) == 0

    def test_a_cover_that_misses_its_first_source(self):
        # Directed rows: 0 and 1 share the row {2}, row 2 is every vertex but
        # 0 and 2, row 3 every vertex but 3, and the 66 twins 4..69 share
        # the row {3}.  {2} ORed with row 2 misses only 0, so 0 and 1 run the
        # BFS, and from 1 the vertex 0 lies at distance 3, beyond the cover's
        # 2; the twins' row {3} covers with row 3.
        count = 70
        everything = (1 << count) - 1
        rows = (0b100, 0b100, everything ^ 0b101, everything ^ 0b1000, *[0b1000] * (count - 4))
        g = DivisorGraph(n=0, vertices=tuple(range(count)), adjacency=rows)
        summary = distance_summary(g)
        assert summary == directed_summary(rows)
        assert summary.eccentricities[:4] == (2, 3, 2, 1)
        assert divprime.oracle._bfs_sums(g) == per_source_sums(g)

    def test_a_sink_beside_a_served_twin_class_is_disconnected(self):
        # Directed rows: 0 points to every other vertex, 1..68 share the row
        # {0}, which covers, and 69 points nowhere, so it reaches no vertex
        # however many the served twins reach.
        count = 70
        rows = ((1 << count) - 2, *[0b1] * (count - 2), 0)
        g = DivisorGraph(n=0, vertices=tuple(range(count)), adjacency=rows)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            distance_summary(g)
        with pytest.raises(ValueError, match="divisor prime graph is disconnected"):
            oracle_report(g)


def plane_builds(count, edge_list, check=assert_matches_naive):
    """Check the oracle against the naive reference with ``check``, and
    return how often it built the degree planes that sum the covering rows'
    first levels in the per-row pass of a larger graph."""
    real = divprime.oracle._bit_planes
    with mock.patch.object(divprime.oracle, "_bit_planes", wraps=real) as built:
        check(count, edge_list)
    return built.call_count


@st.composite
def graphs_with_a_large_level(draw):
    """A connected graph on 34 to 100 vertices, either side of the 64 that
    plane sums need, with a hub of degree 32 or more that is not adjacent to
    every vertex, so the hub's first level holds at least 32 vertices and is
    expanded, and some degree reaches bit 5.
    Vertices past the hub's neighbours join at a random earlier one, further
    edges avoid the hub, and vertices are then relabelled at random.  The
    edges come from a drawn seed: drawing each of up to 4950 pairs would make
    the smallest example too large for hypothesis."""
    count = draw(st.integers(min_value=34, max_value=100))
    hub_degree = draw(st.integers(min_value=32, max_value=count - 2))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.03, 0.2, 0.6]))
    edge_set = {(0, v) for v in range(1, hub_degree + 1)}
    edge_set |= {(rng.randrange(1, v), v) for v in range(hub_degree + 1, count)}
    edge_set |= {
        (u, v) for u in range(1, count) for v in range(u + 1, count) if rng.random() < density
    }
    label = rng.sample(range(count), count)
    return count, sorted(tuple(sorted((label[u], label[v]))) for u, v in edge_set)


def two_hubs_over_a_path(k):
    """K(2,k) with a path through its k-side, k + 2 vertices: from either hub
    the first level is the k path vertices, of degrees 3 and 4, and the next
    the other hub."""
    path = range(2, k + 2)
    return k + 2, [*((h, v) for h in (0, 1) for v in path), *zip(path, path[1:])]


def powers_of_two_graph():
    """A hub joined to 32 vertices; the j-th of them also holds 2^(j mod 5) - 1
    pendant leaves, so every degree is a power of two, 1 to 32, and the hub's
    first level holds degrees 1, 2, 4, 8 and 16.  The hub's row does not
    cover, so the BFS expands that level and walks its bits."""
    edge_list, count = [], 33
    for j in range(1, 33):
        edge_list.append((0, j))
        for _ in range(2 ** (j % 5) - 1):
            edge_list.append((j, count))
            count += 1
    return count, edge_list


def covering_powers_of_two_graph():
    """65 vertices: a hub adjacent to every other vertex, two false twins
    sharing the row {0, 3, 4, 5, 6}, vertices 3 to 6 holding 1, 5, 13 and 29
    leaves, and 10 more vertices on the hub alone.  The twins' row covers,
    and its first level, summed from the planes, holds degrees 64, 4, 8, 16
    and 32, one bit each, the top one at bit 6."""
    edge_list = [*((0, v) for v in range(1, 65)), *((t, v) for t in (1, 2) for v in range(3, 7))]
    leaf = 7
    for v, leaves in zip(range(3, 7), (1, 5, 13, 29)):
        edge_list += [(v, u) for u in range(leaf, leaf + leaves)]
        leaf += leaves
    return 65, edge_list


def shuffled_path(count):
    """A path through 0..count-1 in a seeded random order."""
    order = random.Random(count).sample(range(count), count)
    return count, list(zip(order, order[1:]))


class TestDegreePlanes:
    """A loop-free graph of 64 or more vertices builds bit-sliced degree
    planes once, in its per-row pass, and sums each covering row's first
    level from them; a smaller graph, or one with a loop, builds none.  Every level that the BFS expands is summed
    by a walk over its bits, whatever the graph's size."""

    @given(graphs_with_a_large_level())
    @settings(max_examples=60, deadline=None)
    def test_graphs_with_a_large_level(self, graph):
        count, _ = graph
        assert plane_builds(*graph) == (1 if count >= 64 else 0)

    @pytest.mark.parametrize(("count", "builds"), [(63, 0), (64, 1)])
    def test_graphs_either_side_of_the_threshold(self, count, builds):
        assert plane_builds(*two_hubs_over_a_path(count - 2)) == builds

    def test_every_degree_a_power_of_two(self):
        count, edge_list = powers_of_two_graph()
        degrees = [row.bit_count() for row in graph_from_edges(count, edge_list).adjacency]
        assert {d & (d - 1) for d in degrees} == {0}
        assert set(degrees) == {1, 2, 4, 8, 16, 32}
        assert plane_builds(count, edge_list) == 1

    def test_a_covering_row_over_every_plane(self):
        count, edge_list = covering_powers_of_two_graph()
        rows = graph_from_edges(count, edge_list).adjacency
        degrees = [row.bit_count() for row in rows]
        assert rows[1] == rows[2] == 0b1111001
        assert [degrees[v] for v in (0, 3, 4, 5, 6)] == [64, 4, 8, 16, 32]
        assert plane_builds(count, edge_list) == 1

    def test_each_plane_marks_one_bit_of_the_degrees(self):
        # Vertices of degree 0 lie in no plane, and a power of two in one.
        assert divprime.oracle._bit_planes([0, 1, 0, 2, 4, 1]) == [0b100010, 0b1000, 0b10000]
        assert divprime.oracle._bit_planes([5, 0, 3, 6]) == [0b0101, 0b1100, 0b1001]
        assert divprime.oracle._bit_planes([0, 0]) == []

    @pytest.mark.parametrize(
        "values",
        [
            [255, 256, 0, 511, 1],  # two bytes a value
            [65535, 65536, 3, 0, 70000, 256],  # three bytes a value
            list(range(300)),
            random.Random(23).choices(range(2**20), k=97),
            # Either side of each byte boundary up to the top of the eight
            # packed bytes, 2^64 - 1 included: all ones, the top bit alone.
            *(
                [2**w - 1, 0, 2 ** (w - 1), *map(random.Random(w).getrandbits, [w] * 41)]
                for w in (8, 9, 16, 17, 56, 57, 63, 64)
            ),
        ],
        ids=[
            "256",
            "65536",
            "range300",
            "random20bit",
            *(f"width{w}" for w in (8, 9, 16, 17, 56, 57, 63, 64)),
        ],
    )
    def test_planes_of_values_past_one_byte(self, values):
        # Each value is packed as eight bytes and plane b is sliced from
        # byte b // 8; every plane must still be the per-bit definition.
        expected = [
            sum(1 << i for i, v in enumerate(values) if v >> b & 1)
            for b in range(max(values).bit_length())
        ]
        assert divprime.oracle._bit_planes(values) == expected

    def test_values_from_2_to_the_64_are_refused(self):
        # The precondition: every value fits in eight packed bytes.
        with pytest.raises(struct.error):
            divprime.oracle._bit_planes([2**64])

    @pytest.mark.parametrize(
        ("count", "edge_list"),
        [
            *((count, [(i, i + 1) for i in range(count - 1)]) for count in (63, 64, 65, 130)),
            *((count, [(i, (i + 1) % count) for i in range(count)]) for count in (63, 64, 65, 130)),
            shuffled_path(97),
        ],
        ids=["P63", "P64", "P65", "P130", "C63", "C64", "C65", "C130", "P97_shuffled"],
    )
    def test_long_paths_and_cycles(self, count, edge_list):
        # Every level but the last is expanded and summed by a walk over its
        # bits, on either side of 64 vertices: no row of a path or a cycle
        # covers, so the planes built from 64 on sum nothing.  The last
        # level from the middle of an odd path, or from vertex 32 of C65 (64
        # and 0), holds vertices both below and above the source, so its pair
        # count by popcount above the source must leave out the one below.
        assert plane_builds(count, edge_list) == (1 if count >= 64 else 0)


def level_sum_calls(g):
    """How often ``oracle_report`` on g walked a level's bits and built the
    degree planes."""
    oracle = divprime.oracle
    with mock.patch.object(oracle, "_walk_sum", wraps=oracle._walk_sum) as walked:
        with mock.patch.object(oracle, "_bit_planes", wraps=oracle._bit_planes) as built:
            oracle_report(g)
    return walked.call_count, built.call_count


class TestLevelSumsOnDivisorGraphs:
    """On a divisor graph every row but divisor 1's holds divisor 1, which
    is adjacent to every other divisor, so that row covers unless it holds
    every other divisor too, as for prime n, and the first level of a
    source adjacent to every other divisor is its last.  So no BFS level is
    ever summed: below 64 vertices the memo walks the first level of each
    covering prime support's row once, and from 64 on the planes sum them
    all."""

    def test_below_64_vertices(self):
        # n = 1 has no nonempty support, and the row {1} of a prime p holds
        # every other divisor, so p runs the BFS, as 1 does.
        for n in range(1, 3001):
            g = graph_of(n)
            assert len(g.vertices) < 64
            supports = 2 ** len(factorize(n).factors) - 1
            assert level_sum_calls(g) == (supports if len(g.vertices) > 2 else 0, 0), n

    @pytest.mark.parametrize("n", [7560, 27720, 720720, 367567200])
    def test_from_64_vertices(self, n):
        g = graph_of(n)
        assert len(g.vertices) >= 64
        assert level_sum_calls(g) == (0, 1)


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

    @pytest.mark.parametrize(
        "n",
        [
            223092870,  # 2*3*...*23, omega 9, D = 512
            6469693230,  # 2*3*...*29, omega 10, D = 1024
            2**2 * 3**2 * 5 * 7 * 11 * 13 * 17 * 19 * 23,  # omega 9, D = 1152
        ],
    )
    def test_more_than_eight_primes(self, n):
        # Past eight primes the supports take more than one byte a divisor.
        g = graph_of(n)
        assert g.adjacency == gcd_adjacency(g.vertices)
        assert len({id(row) for row in g.adjacency}) == 2 ** len(factorize(n).factors)

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

    def test_bfs_memory_stays_near_the_shared_rows(self):
        # Squarefree with D = 4096, so no two divisors are twins and the
        # Counter that groups the rows by value has an entry per source.
        # Keyed by the shared row objects, which it holds and never copies,
        # it peaks near 0.32 MiB with the twelve 4096-bit degree planes
        # (6 KiB).
        g = graph_of(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37)
        tracemalloc.start()
        try:
            oracle_report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    def test_equal_rows_as_distinct_objects(self):
        # 720720 has 240 divisors over 2^6 shared rows.  Copied, every row
        # is its own object but those CPython keeps one of, the ints to 256;
        # the per-row pass groups rows by value, so the sums are the same.
        g = graph_of(720720)
        copied = g._replace(adjacency=tuple((row ^ 1) ^ 1 for row in g.adjacency))
        assert copied.adjacency == g.adjacency
        assert len({id(row) for row in copied.adjacency}) > 2 * 2**6
        assert divprime.oracle._bfs_sums(copied) == divprime.oracle._bfs_sums(g)


class TestMixedRadixOrder:
    """The vertices come in the order of ``divisors``, and ``edges`` lists
    the coprime pairs by value whatever that order."""

    @given(st.integers(min_value=1, max_value=10**5))
    @example(n=720720)  # D = 240, omega = 6
    @settings(max_examples=60, deadline=None)
    def test_vertices_rows_and_edges(self, n):
        f = factorize(n)
        g = build_graph(f)
        assert list(g.vertices) == divisors(f)
        assert len({id(row) for row in g.adjacency}) == 2 ** len(f.factors)
        coprime = [
            (min(u, v), max(u, v))
            for i, u in enumerate(g.vertices)
            for v in g.vertices[i + 1 :]
            if gcd(u, v) == 1
        ]
        assert list(edges(g)) == sorted(coprime)


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
