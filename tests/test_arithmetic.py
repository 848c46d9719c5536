import csv
import io
from functools import cache
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprime.arithmetic import (
    Factorization,
    _iroot,
    divisor_count,
    divisors,
    exact_half,
    factorize,
    gcd,
    is_prime,
)
from divprime.cli import main


def trial_division_is_prime(m: int) -> bool:
    """Independent primality check used to pin expected factorizations."""
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class TestFactorize:
    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_one_is_empty_product(self):
        assert factorize(1).factors == ()

    def test_large_prime(self):
        # Pin the expectation with trial division first.
        assert trial_division_is_prime(1000003)
        assert factorize(1000003).factors == ((1000003, 1),)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-12)

    def test_semiprime_beyond_trial_division(self):
        assert trial_division_is_prime(999983)
        assert factorize(999983 * 1000003).factors == ((999983, 1), (1000003, 1))

    def test_large_prime_power(self):
        assert factorize(1000003**3).factors == ((1000003, 3),)

    def test_deterministic(self):
        n = 999983 * 999983 * 1000003
        assert factorize(n) == factorize(n)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_round_trip(self, n):
        f = factorize(n)
        product = 1
        for p, e in f.factors:
            product *= p**e
        assert product == n

    def test_str(self):
        assert str(factorize(12)) == "2^2 * 3"
        assert str(factorize(1)) == "1"


class TestFactorizationInvariants:
    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError):
            Factorization(10, ((2, 1), (3, 1)))

    def test_rejects_composite_entry(self):
        with pytest.raises(ValueError):
            Factorization(16, ((4, 2),))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Factorization(3, ((2, 0), (3, 1)))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Factorization(0, ())


class TestDivisors:
    def test_twelve(self):
        assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]

    def test_one(self):
        assert divisors(factorize(1)) == [1]

    def test_thirty(self):
        assert divisors(factorize(30)) == [1, 2, 3, 5, 6, 10, 15, 30]

    @given(st.integers(min_value=1, max_value=20000))
    def test_matches_count_and_is_sorted(self, n):
        f = factorize(n)
        divs = divisors(f)
        assert len(divs) == divisor_count(f)
        assert all(a < b for a, b in zip(divs, divs[1:]))
        assert divs[0] == 1
        assert divs[-1] == n
        assert all(n % d == 0 for d in divs)


class TestDivisorCount:
    def test_examples(self):
        assert divisor_count(factorize(12)) == 6
        assert divisor_count(factorize(1)) == 1
        assert divisor_count(factorize(30)) == 8

    def test_without_enumeration(self):
        # 2^60 has 61 divisors; counting must not require listing them.
        assert divisor_count(factorize(2**60)) == 61


class TestGcd:
    def test_examples(self):
        assert gcd(4, 6) == 2
        assert gcd(3, 5) == 1
        assert gcd(0, 7) == 7

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    def test_commutative_and_divides(self, a, b):
        g = gcd(a, b)
        assert g == gcd(b, a)
        if g:
            assert a % g == 0 and b % g == 0

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_associative(self, a, b, c):
        assert gcd(gcd(a, b), c) == gcd(a, gcd(b, c))


class TestPrimality:
    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=200)
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == trial_division_is_prime(n)


# Least strong pseudoprimes to the first k prime bases, psi_1 .. psi_13
# (OEIS A014233): each passes Miller-Rabin for bases 2 .. p_k.
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


@cache
def sieve(limit: int) -> bytearray:
    """flags[m] == 1 exactly when m < limit is prime (Eratosthenes)."""
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags


def segmented_sieve(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi) for lo > 1, crossing off multiples of every
    prime up to sqrt(hi) from a window of hi - lo flags."""
    flags = bytearray([1]) * (hi - lo)
    base = sieve(isqrt(hi) + 1)
    for p in range(2, len(base)):
        if base[p]:
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    return [lo + i for i, flag in enumerate(flags) if flag]


class TestStrongPseudoprimes:
    """Composites that fool Miller-Rabin on a fixed prefix of prime bases."""

    def test_is_prime_rejects_every_term(self):
        assert [n for n in A014233 if is_prime(n)] == []

    def test_factorize_splits_psi_12(self):
        assert factorize(318665857834031151167461).factors == (
            (399165290221, 1),
            (798330580441, 1),
        )

    def test_factorize_splits_psi_13(self):
        assert factorize(3317044064679887385961981).factors == (
            (1287836182261, 1),
            (2575672364521, 1),
        )

    def test_compute_counts_four_divisors_of_psi_12(self, capsys):
        assert main(["compute", "318665857834031151167461", "--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert dict(zip(header, row))["D"] == "4"


M31, M61 = 2**31 - 1, 2**61 - 1


class TestPerfectPowers:
    """Pollard rho needs about sqrt(p) steps on p**k, so factorize splits
    perfect powers before it runs; these inputs hang without that step."""

    def test_square_of_mersenne_61(self):
        assert factorize(M61**2).factors == ((M61, 2),)

    def test_cube_of_mersenne_61(self):
        assert factorize(M61**3).factors == ((M61, 3),)

    def test_mixed_product(self):
        assert factorize(12 * M31**3 * M61**2).factors == ((2, 2), (3, 1), (M31, 3), (M61, 2))

    @given(st.integers(min_value=1, max_value=2**300), st.integers(min_value=1, max_value=40))
    def test_iroot_is_floor_of_kth_root(self, m, k):
        x = _iroot(m, k)
        assert x**k <= m < (x + 1) ** k

    def test_compute_counts_three_divisors_of_square(self, capsys):
        assert main(["compute", str(M61**2), "--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert dict(zip(header, row))["D"] == "3"


class TestPrimalityTiers:
    """is_prime switches its Miller-Rabin bases at each bound of
    arithmetic._MR_TIERS; check it exactly on both sides of the first three."""

    def test_equals_sieve_below_two_million(self):
        flags = sieve(2 * 10**6)
        assert [m for m in range(len(flags)) if is_prime(m)] == [
            m for m, flag in enumerate(flags) if flag
        ]

    @pytest.mark.parametrize("bound", [3_215_031_751, 3_474_749_660_383])
    def test_equals_segmented_sieve_around_tier_bound(self, bound):
        lo, hi = bound - 200, bound + 201
        assert [m for m in range(lo, hi) if is_prime(m)] == segmented_sieve(lo, hi)

    @pytest.mark.parametrize("exponent", [31, 61, 89, 127])
    def test_accepts_mersenne_prime(self, exponent):
        assert is_prime(2**exponent - 1)


def test_exact_half():
    assert exact_half(14) == 7
    with pytest.raises(ArithmeticError):
        exact_half(13)
