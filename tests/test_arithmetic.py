import csv
import io
from functools import cache
from itertools import compress
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divprime.arithmetic
from divprime.arithmetic import (
    FactorBudgetError,
    Factorization,
    _iroot,
    _pm1_plan,
    _pollard_pm1,
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
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
            factorize(0)
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got -12$"):
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


# Where is_prime's tiers start: the trial bound, then each _MR_TIERS bound,
# the last of which is psi_13; and 10^30, well inside the last tier.
TIER_STARTS = (
    divprime.arithmetic._TRIAL_BOUND,
    *(bound for bound, _ in divprime.arithmetic._MR_TIERS),
    10**30,
)


class TestMultiplesOfTheBases:
    """is_prime relies on Miller-Rabin alone to reject a multiple n >= 10^4 of
    one of its bases a: a^d mod n and each of its squares share the factor a
    with n, so none of them is 1 or n - 1."""

    @pytest.mark.parametrize("start", TIER_STARTS)
    def test_base_times_a_prime_just_past_each_tier_start(self, start):
        for a in divprime.arithmetic._MR_BASES:
            q = start // a + 1
            while not is_prime(q):
                q += 1
            assert a * q > start
            assert not is_prime(a * q), (a, q)

    def test_square_of_each_base(self):
        assert [a for a in divprime.arithmetic._MR_BASES if is_prime(a * a)] == []

    @pytest.mark.parametrize("start", TIER_STARTS)
    def test_even_number_in_each_tier(self, start):
        assert not is_prime(start + (start & 1))
        assert not is_prime(start + (start & 1) + 2)


# Pollard p-1 splits p from p * q when p - 1 is 10^4-smooth (stage 1) or
# such a number times one prime in [10^4, 2 * 10^5) (stage 2).  A safe prime
# q = 2q' + 1 with q' prime is found by neither stage.  With giant step
# W = 2310, stage 2 meets 50021 = 22W - 799 and 100003 = 43W + 673, two
# primes past its earlier bound of 5 * 10^4, at different giant steps.
P_STAGE1 = 2**2 * 7 * 19 * 41 * 61 * 67 * 89 + 1
P_STAGE1_TOO = 2 * 5 * 11 * 13 * 23 * 31 * 37 * 43 + 1
P_STAGE2 = 2**2 * 5 * 41 * 61 * 20011 + 1
P_STAGE2_BELOW = 2 * 50021 + 1
P_STAGE2_ABOVE = 2 * 3 * 7 * 100003 + 1
SAFE, SAFE_TOO = 2 * 500000003 + 1, 2 * 500000201 + 1


class TestPollardPm1:
    """Each case is checked on what _pollard_pm1 returns and on factorize,
    which hands anything but a proper divisor on to Pollard rho."""

    def test_inputs_are_what_they_claim(self):
        for p in (P_STAGE1, P_STAGE1_TOO, P_STAGE2, P_STAGE2_BELOW, P_STAGE2_ABOVE, SAFE, SAFE_TOO):
            assert trial_division_is_prime(p)
        for q in (20011, 50021, 100003):
            assert trial_division_is_prime(q)
        assert trial_division_is_prime(SAFE // 2) and trial_division_is_prime(SAFE_TOO // 2)

    def test_stage_1_splits_a_smooth_p_minus_1(self):
        assert _pollard_pm1(P_STAGE1 * SAFE) == P_STAGE1
        assert factorize(P_STAGE1 * SAFE).factors == ((SAFE, 1), (P_STAGE1, 1))

    def test_stage_2_splits_one_prime_past_the_trial_bound(self):
        m = P_STAGE2 * SAFE
        exponent = _pm1_plan()[0]
        assert gcd(pow(divprime.arithmetic._PM1_BASE, exponent, m) - 1, m) == 1  # not stage 1
        assert _pollard_pm1(m) == P_STAGE2
        assert factorize(m).factors == ((SAFE, 1), (P_STAGE2, 1))

    def test_stage_2_terms_cover_exactly_the_primes_in_its_range(self):
        # A term (g, b) stands for g*W - b and g*W + b: each prime in
        # [10^4, B2) is one of those of exactly one term, and each term has one.
        lo, hi = divprime.arithmetic._TRIAL_BOUND, divprime.arithmetic._PM1_BOUND2
        width = divprime.arithmetic._PM1_WIDTH
        _, coprime, table = _pm1_plan()
        babies = list(compress(range(1, width // 2 + 1, 2), coprime))
        assert babies == [b for b in range(1, width // 2) if gcd(b, width) == 1]
        covered = []
        for g, runs in enumerate(table, 1):
            for k in b"".join(runs):
                pair = (g * width - babies[k], g * width + babies[k])
                primes = [q for q in pair if lo <= q < hi and trial_division_is_prime(q)]
                assert primes, (g, babies[k])
                covered += primes
        assert sorted(covered) == [q for q in range(lo, hi) if trial_division_is_prime(q)]

    @pytest.mark.parametrize(
        "p, q, g, b", [(P_STAGE2_BELOW, 50021, 22, -799), (P_STAGE2_ABOVE, 100003, 43, 673)]
    )
    def test_stage_2_splits_one_prime_past_its_earlier_bound(self, p, q, g, b):
        assert q == g * divprime.arithmetic._PM1_WIDTH + b
        assert (p - 1) % q == 0 and 5 * 10**4 < q < divprime.arithmetic._PM1_BOUND2
        m = p * SAFE
        exponent = _pm1_plan()[0]
        assert gcd(pow(divprime.arithmetic._PM1_BASE, exponent, m) - 1, m) == 1  # not stage 1
        assert _pollard_pm1(m) == p
        assert factorize(m).factors == ((p, 1), (SAFE, 1))

    def test_primes_met_at_different_giant_steps_split_m(self):
        # 50021 is met at giant step 22, before 100003 at 43.
        m = P_STAGE2_BELOW * P_STAGE2_ABOVE
        assert _pollard_pm1(m) == P_STAGE2_BELOW
        assert factorize(m).factors == ((P_STAGE2_BELOW, 1), (P_STAGE2_ABOVE, 1))

    def test_two_safe_primes_go_on_to_rho(self):
        assert _pollard_pm1(SAFE * SAFE_TOO) == 1
        assert factorize(SAFE * SAFE_TOO).factors == ((SAFE, 1), (SAFE_TOO, 1))

    def test_two_smooth_primes_give_m_and_go_on_to_rho(self):
        m = P_STAGE1 * P_STAGE1_TOO
        assert _pollard_pm1(m) == m
        assert factorize(m).factors == ((P_STAGE1_TOO, 1), (P_STAGE1, 1))

    def test_base_3_splits_off_mersenne_61(self):
        # Base 2 has order 89 modulo 2^89 - 1 and 61 modulo 2^61 - 1, so it
        # would find both primes at once and leave rho a ~2^30-step split.
        m89 = 2**89 - 1
        assert _pollard_pm1(m89**2 * M61) == M61
        assert factorize(m89**2 * M61).factors == ((M61, 1), (m89, 2))

    @given(
        st.lists(
            st.tuples(st.integers(min_value=10**4, max_value=10**9), st.integers(1, 2)),
            min_size=2,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_past_trial_division(self, draws):
        # Two or three primes above the trial bound, some squared, so that
        # p-1, the perfect-power test and rho all run.
        expected: dict[int, int] = {}
        for start, e in draws:
            p = start
            while not is_prime(p):
                p += 1
            expected[p] = expected.get(p, 0) + e
        n = 1
        for p, e in expected.items():
            n *= p**e
        assert factorize(n).factors == tuple(sorted(expected.items()))


class TestRhoBudget:
    """Pollard rho gives up after _RHO_BUDGET steps with a typed error that
    names the cofactor's size; the CLI prints it and exits 1."""

    def test_factorize_raises_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(divprime.arithmetic, "_RHO_BUDGET", 1000)
        with pytest.raises(FactorBudgetError, match="of a 19-digit cofactor"):
            factorize(12 * SAFE * SAFE_TOO)

    def test_compute_exits_1_with_the_message(self, monkeypatch, capsys):
        monkeypatch.setattr(divprime.arithmetic, "_RHO_BUDGET", 1000)
        assert main(["compute", str(12 * SAFE * SAFE_TOO), "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Pollard rho found no factor of a 19-digit cofactor "
            "within its budget of 1000 steps\n"
        )


def test_exact_half():
    assert exact_half(14) == 7
    with pytest.raises(ArithmeticError):
        exact_half(13)
