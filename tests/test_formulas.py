from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprime.arithmetic import Factorization, divisor_count, divisors, factorize
from divprime.formulas import cf_degree, cf_report
from divprime.oracle import build_graph, edges, oracle_report


# Factorizations drawn directly from exponent vectors, so identities get
# exercised far beyond the sizes the explicit graph can reach.
_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def factorizations(draw, max_primes=6, max_exponent=6):
    primes = draw(
        st.lists(st.sampled_from(_PRIME_POOL), unique=True, min_size=0, max_size=max_primes)
    )
    pairs = sorted(
        (p, draw(st.integers(min_value=1, max_value=max_exponent))) for p in primes
    )
    n = 1
    for p, e in pairs:
        n *= p**e
    return Factorization(n, tuple(pairs))


class TestEdgeCount:
    def test_examples(self):
        assert cf_report(factorize(12)).edge_count == 7
        assert cf_report(factorize(1)).edge_count == 0

    def test_2310_matches_explicit_graph(self):
        f = factorize(2310)
        g = build_graph(f)
        assert len(g.vertices) == 32
        assert sum(1 for _ in edges(g)) == 121
        assert cf_report(f).edge_count == 121


class TestDegree:
    def test_examples(self):
        f20 = factorize(20)
        assert cf_degree(f20, 1) == 5
        assert cf_degree(f20, 10) == 1
        assert cf_degree(f20, 20) == 1
        assert cf_degree(factorize(1), 1) == 0

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            cf_degree(factorize(20), 3)
        with pytest.raises(ValueError):
            cf_degree(factorize(20), 0)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=60)
    def test_matches_oracle_and_handshake(self, n):
        f = factorize(n)
        g = build_graph(f)
        degs = [cf_degree(f, d) for d in divisors(f)]
        assert degs == [row.bit_count() for row in g.adjacency]
        assert sum(degs) == 2 * cf_report(f).edge_count


class TestWiener:
    def test_examples(self):
        assert cf_report(factorize(12)).wiener == 23
        assert cf_report(factorize(1)).wiener == 0

    def test_210_matches_oracle(self):
        f = factorize(210)
        assert cf_report(f).wiener == 200
        assert oracle_report(build_graph(f)).wiener == 200


class TestHarary:
    def test_examples(self):
        assert cf_report(factorize(12)).harary == Fraction(11, 1)
        assert cf_report(factorize(1)).harary == Fraction(0, 1)

    def test_six_matches_oracle(self):
        # Divisors {1, 2, 3, 6}: four edges plus the distance-2 pairs
        # {2, 6} and {3, 6}, so H = 4 + 2 * (1/2) = 5.
        f = factorize(6)
        assert oracle_report(build_graph(f)).harary == Fraction(5, 1)
        assert cf_report(f).harary == Fraction(5, 1)

    @given(factorizations())
    @settings(max_examples=80)
    def test_denominator_divides_four(self, f):
        assert 4 % cf_report(f).harary.denominator == 0


class TestHyperWiener:
    def test_examples(self):
        assert cf_report(factorize(15)).hyper_wiener == 10
        assert cf_report(factorize(1)).hyper_wiener == 0

    def test_twelve_matches_oracle(self):
        f = factorize(12)
        assert cf_report(f).hyper_wiener == 31
        assert oracle_report(build_graph(f)).hyper_wiener == 31


class TestZagreb:
    def test_first_examples(self):
        assert cf_report(factorize(20)).zagreb1 == 44
        assert cf_report(factorize(1)).zagreb1 == 0
        assert cf_report(factorize(30)).zagreb1 == 110

    def test_second_examples(self):
        assert cf_report(factorize(20)).zagreb2 == 57
        assert cf_report(factorize(1)).zagreb2 == 0
        assert cf_report(factorize(30)).zagreb2 == 205


class TestGutman:
    def test_examples(self):
        assert cf_report(factorize(30)).gutman == 361
        assert cf_report(factorize(1)).gutman == 0

    def test_45_matches_oracle(self):
        f = factorize(45)
        assert cf_report(f).gutman == 95
        assert oracle_report(build_graph(f)).gutman == 95


class TestSchultz:
    def test_examples(self):
        assert cf_report(factorize(45)).schultz == 96
        assert cf_report(factorize(1)).schultz == 0

    def test_twelve_matches_oracle(self):
        f = factorize(12)
        assert cf_report(f).schultz == 96
        assert oracle_report(build_graph(f)).schultz == 96


class TestEccentricConnectivity:
    def test_examples(self):
        assert cf_report(factorize(22)).eccentric_connectivity == 13
        assert cf_report(factorize(7)).eccentric_connectivity == 2
        assert cf_report(factorize(8)).eccentric_connectivity == 9

    @given(st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(min_value=2, max_value=40))
    @settings(max_examples=60)
    def test_prime_power_is_three_k(self, p, k):
        assert cf_report(factorize(p**k)).eccentric_connectivity == 3 * k

    def test_prime_is_two_not_three(self):
        # The general expression would give 3 for a prime; the two-vertex
        # graph is a single edge with both eccentricities 1.
        for p in (2, 3, 101, 1000003):
            assert cf_report(factorize(p)).eccentric_connectivity == 2


class TestReport:
    def test_twelve(self):
        r = cf_report(factorize(12))
        assert (r.wiener, r.harary, r.hyper_wiener) == (23, Fraction(11), 31)
        assert (r.zagreb1, r.zagreb2, r.gutman, r.schultz) == (44, 57, 95, 96)
        assert r.eccentric_connectivity == 23
        assert (r.divisor_count, r.edge_count, r.degree_sum) == (6, 7, 14)
        assert r.source == "closed_form"
        assert r.diameter is None

    def test_one_is_all_zero(self):
        r = cf_report(factorize(1))
        assert r.divisor_count == 1
        assert r.edge_count == r.degree_sum == 0
        assert r.wiener == r.hyper_wiener == 0
        assert r.harary == Fraction(0)
        assert r.zagreb1 == r.zagreb2 == r.gutman == r.schultz == 0
        assert r.eccentric_connectivity == 0

    def test_eight_prime_squarefree(self):
        # 9699690 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, 256 divisors.
        f = factorize(9699690)
        r = cf_report(f)
        count = r.divisor_count
        assert count == 256
        assert 2 * r.wiener + 4 * r.harary == 3 * count * (count - 1)
        assert r.gutman == r.degree_sum**2 - r.zagreb1 - r.zagreb2
        oracle = oracle_report(build_graph(f))
        for name in ("edge_count", "wiener", "harary", "zagreb1", "zagreb2", "gutman", "schultz"):
            assert getattr(r, name) == getattr(oracle, name)


class TestClosedFormIdentities:
    @given(factorizations())
    @settings(max_examples=200)
    def test_wiener_plus_edges(self, f):
        count = divisor_count(f)
        assert cf_report(f).wiener + cf_report(f).edge_count == count * (count - 1)

    @given(factorizations())
    @settings(max_examples=200)
    def test_wiener_harary_partition(self, f):
        count = divisor_count(f)
        assert 2 * cf_report(f).wiener + 4 * cf_report(f).harary == 3 * count * (count - 1)

    @given(factorizations())
    @settings(max_examples=200)
    def test_hyper_wiener_from_wiener(self, f):
        count = divisor_count(f)
        assert (
            cf_report(f).hyper_wiener
            == cf_report(f).wiener + count * (count - 1) // 2 - cf_report(f).edge_count
        )

    @given(factorizations())
    @settings(max_examples=200)
    def test_gutman_schultz_from_zagreb(self, f):
        count = divisor_count(f)
        degree_sum = 2 * cf_report(f).edge_count
        assert cf_report(f).gutman == degree_sum**2 - cf_report(f).zagreb1 - cf_report(f).zagreb2
        if count >= 2:
            assert cf_report(f).schultz == 2 * (count - 1) * degree_sum - cf_report(f).zagreb1

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60)
    def test_gutman_schultz_nonedge_decomposition(self, n):
        # Gut = M2 + 2 * sum over non-edges of d(u)d(v), and
        # S = M1 + 2 * sum over non-edges of (d(u) + d(v)).
        f = factorize(n)
        g = build_graph(f)
        degs = [row.bit_count() for row in g.adjacency]
        edge_set = set(edges(g))
        prod_sum = 0
        deg_sum = 0
        for i in range(len(degs)):
            for j in range(i + 1, len(degs)):
                u, v = sorted((g.vertices[i], g.vertices[j]))
                if (u, v) not in edge_set:
                    prod_sum += degs[i] * degs[j]
                    deg_sum += degs[i] + degs[j]
        assert cf_report(f).gutman == cf_report(f).zagreb2 + 2 * prod_sum
        assert cf_report(f).schultz == cf_report(f).zagreb1 + 2 * deg_sum
