"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from divprime.arithmetic import divisor_count, divisors, factorize
from divprime.cli import main
from divprime.formulas import cf_degree, cf_report
from divprime.oracle import build_graph, distance_summary, edges, oracle_report
from divprime.verify import verify_range


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_golden_examples():
    golden = (
        (12, "wiener", 23),
        (12, "harary", Fraction(11)),
        (15, "hyper_wiener", 10),
        (20, "zagreb1", 44),
        (20, "zagreb2", 57),
        (30, "zagreb1", 110),
        (30, "zagreb2", 205),
        (30, "gutman", 361),
        (45, "schultz", 96),
        (22, "eccentric_connectivity", 13),
    )
    with criterion("criterion 1: golden examples via both paths in < 1 s"):
        start = perf_counter()
        for n in sorted({n for n, _, _ in golden}):
            f = factorize(n)
            closed = cf_report(f)
            oracle = oracle_report(build_graph(f))
            for m, name, expected in golden:
                if m != n:
                    continue
                assert getattr(closed, name) == expected, (n, name, "closed form")
                assert getattr(oracle, name) == expected, (n, name, "oracle")
        elapsed = perf_counter() - start
        assert elapsed < 1.0, f"golden examples took {elapsed:.3f} s"


def test_criterion_2_prime_power_eccentric_connectivity():
    with criterion("criterion 2: eccentric connectivity of p^k is 3k (k >= 2) and 2 (k = 1)"):
        for p in (2, 3, 5, 7, 11):
            f = factorize(p)
            assert cf_report(f).eccentric_connectivity == 2
            assert oracle_report(build_graph(f)).eccentric_connectivity == 2
            for k in range(2, 51):
                f = factorize(p**k)
                assert cf_report(f).eccentric_connectivity == 3 * k, (p, k)
                # D = k + 1 stays far below the cap, so the oracle runs too
                assert oracle_report(build_graph(f)).eccentric_connectivity == 3 * k, (p, k)


def test_criterion_3_equivalence_sweep():
    with criterion("criterion 3: verify 1..10000 with no mismatch and no skip in < 2 min"):
        summary = verify_range(1, 10000, cap=10000)
        assert summary.counts["verified"] == 10000
        assert summary.counts["mismatch"] == 0
        assert summary.counts["oracle_skipped"] == 0
        assert summary.mismatching_n == ()
        assert summary.total_elapsed < 120, f"sweep took {summary.total_elapsed:.1f} s"


def test_criterion_4_diameter_trichotomy():
    with criterion("criterion 4: diameter <= 2 over 1..10000; 0 only for n = 1, 1 only for primes"):
        for n in range(1, 10001):
            f = factorize(n)
            diameter = distance_summary(build_graph(f, cap=10000)).diameter
            assert diameter <= 2, n
            is_one = n == 1
            is_prime_n = len(f.factors) == 1 and f.factors[0][1] == 1
            assert (diameter == 0) == is_one, n
            assert (diameter == 1) == is_prime_n, n


def test_criterion_5_structural_identities_at_scale():
    with criterion("criterion 5: four identities on 500 random n <= 10^12 in < 5 s"):
        rng = random.Random(0x5CA1E)
        start = perf_counter()
        for _ in range(500):
            n = rng.randint(1, 10**12)
            f = factorize(n)
            count = divisor_count(f)
            wiener = cf_report(f).wiener
            harary = cf_report(f).harary
            edge_count = cf_report(f).edge_count
            degree_sum = 2 * edge_count
            assert 2 * wiener + 4 * harary == 3 * count * (count - 1), n
            assert cf_report(f).hyper_wiener == wiener + count * (count - 1) // 2 - edge_count, n
            assert cf_report(f).gutman == degree_sum**2 - cf_report(f).zagreb1 - cf_report(f).zagreb2, n
            assert cf_report(f).schultz == 2 * (count - 1) * degree_sum - cf_report(f).zagreb1, n
        elapsed = perf_counter() - start
        assert elapsed < 5.0, f"identities took {elapsed:.2f} s"


def test_criterion_6_degree_formula_against_oracle():
    with criterion("criterion 6: per-divisor degrees match the oracle on 200 random n"):
        rng = random.Random(0xDE9EE)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            f = factorize(n)
            g = build_graph(f)
            degs = [cf_degree(f, d) for d in divisors(f)]
            assert degs == [row.bit_count() for row in g.adjacency], n
            assert sum(degs) == 2 * sum(1 for _ in edges(g)), n


def test_criterion_7_export_round_trip(capsys):
    with criterion("criterion 7: adjacency-json round-trip reproduces |E| and degrees"):
        for n in (12, 15, 20, 22, 30, 45):
            code = main(["export", str(n), "--style", "adjacency-json"])
            out = capsys.readouterr().out
            assert code == 0
            data = json.loads(out)
            vertices = [int(v) for v in data["vertices"]]
            edge_list = [(int(u), int(v)) for u, v in data["edges"]]
            degree = {v: 0 for v in vertices}
            for u, v in edge_list:
                degree[u] += 1
                degree[v] += 1
            g = build_graph(factorize(n))
            assert vertices == sorted(g.vertices), n
            assert len(edge_list) == sum(1 for _ in edges(g)), n
            assert [degree[v] for v in g.vertices] == [
                row.bit_count() for row in g.adjacency
            ], n
