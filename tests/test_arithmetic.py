import csv
import io
import json
import random
from functools import cache
from itertools import compress
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divprime.arithmetic
from divprime.arithmetic import (
    FactorBudgetError,
    Factorization,
    _ecm,
    _ecm_plan,
    _factorize_range,
    _iroot,
    _ladder,
    _pm1_plan,
    _pollard_pm1,
    _radix_factors,
    _strong_lucas,
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

    # One composite "prime" on each side of 10^8, where is_prime turns from
    # trial division to Miller-Rabin: 9973 and 10007 are the primes either
    # side of 10^4.
    @pytest.mark.parametrize("p", [9973**2, 10007**2])
    def test_rejects_a_square_of_a_prime_as_a_factor(self, p):
        with pytest.raises(ValueError, match="is not prime"):
            Factorization(p, ((p, 1),))


class TestDivisors:
    def test_twelve(self):
        assert divisors(factorize(12)) == [1, 3, 2, 6, 4, 12]

    def test_one(self):
        assert divisors(factorize(1)) == [1]

    def test_thirty(self):
        assert divisors(factorize(30)) == [1, 2, 3, 6, 5, 10, 15, 30]

    def test_seven_hundred_twenty(self):
        # 720 = 2^4 * 3^2 * 5: 5 (exponent 1) is the least significant
        # digit, then 3 (exponent 2), then 2 (exponent 4).
        assert divisors(factorize(720)) == [
            *(1, 5, 3, 15, 9, 45),
            *(2, 10, 6, 30, 18, 90),
            *(4, 20, 12, 60, 36, 180),
            *(8, 40, 24, 120, 72, 360),
            *(16, 80, 48, 240, 144, 720),
        ]

    @given(st.integers(min_value=1, max_value=20000))
    def test_matches_count_and_is_sorted(self, n):
        # Sorted, the divisors are strictly ascending: each comes once.
        f = factorize(n)
        divs = divisors(f)
        assert len(divs) == divisor_count(f)
        ascending = sorted(divs)
        assert all(a < b for a, b in zip(ascending, ascending[1:]))
        assert divs[0] == 1
        assert divs[-1] == n
        assert all(n % d == 0 for d in divs)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_mixed_radix_order(self, n):
        # A permutation of the divisors found by trial division up to the
        # square root, and the divisor at index i has, for the j-th prime
        # of _radix_factors, the exponent that is digit j of i.
        f = factorize(n)
        low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        assert sorted(divisors(f)) == sorted({*low, *(n // d for d in low)})
        order = _radix_factors(f)
        assert order == sorted(f.factors, key=lambda pe: (pe[1], pe[0]))
        for i, d in enumerate(divisors(f)):
            expected = 1
            for p, e in order:
                i, digit = divmod(i, e + 1)
                expected *= p**digit
            assert d == expected


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
    """is_prime trial-divides below 10^8, the trial bound squared, by blocks of
    primes of one bit length, the last of which, from 8209, is first tested
    at 8209^2, and from 10^8 switches its Miller-Rabin bases at each bound of
    arithmetic._MR_TIERS; check it exactly below two million, on both sides
    of 8209^2 and 10^8, and on both sides of the first two bounds."""

    def test_equals_sieve_below_two_million(self):
        flags = sieve(2 * 10**6)
        assert [m for m in range(len(flags)) if is_prime(m)] == [
            m for m, flag in enumerate(flags) if flag
        ]

    @pytest.mark.parametrize("bound", [8209**2, 10**8, 3_215_031_751, 3_474_749_660_383])
    def test_equals_segmented_sieve_around_tier_bound(self, bound):
        lo, hi = bound - 200, bound + 201
        assert [m for m in range(lo, hi) if is_prime(m)] == segmented_sieve(lo, hi)

    @pytest.mark.parametrize("exponent", [31, 61, 89, 127])
    def test_accepts_mersenne_prime(self, exponent):
        assert is_prime(2**exponent - 1)


# Where is_prime's tiers start: the trial bound; psi_2 = 1373653, past
# which Miller-Rabin would need more than bases 2 and 3; the trial bound
# squared, where Miller-Rabin starts; each _MR_TIERS bound, the last of
# which is psi_13, where BPSW takes over; and 10^30, well past psi_13.
TIER_STARTS = (
    divprime.arithmetic._TRIAL_BOUND,
    1_373_653,
    divprime.arithmetic._TRIAL_BOUND**2,
    *(bound for bound, _ in divprime.arithmetic._MR_TIERS),
    10**30,
)


class TestMultiplesOfTheBases:
    """A multiple n of one of the twenty prime bases a of _MR_BASES is
    composite.  Below 10^8 trial division rejects it by a's block of primes.
    From 10^8 to psi_13 Miller-Rabin must: when a is one of its tier's
    bases, a^d mod n and each of its squares share the factor a with n, so
    none of them is 1 or n - 1, and the tier's proven bound covers every
    other a.  Past psi_13, at 10^30, BPSW must: base 2 alone, then the
    strong Lucas test."""

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
# such a number times one prime in [10^4, 5 * 10^5) (stage 2).  A safe prime
# q = 2q' + 1 with q' prime is found by neither stage.  With giant step
# W = 2310, stage 2 meets 50021 = 22W - 799 and 100003 = 43W + 673, two
# primes past its earlier bound of 5 * 10^4, at different giant steps, and
# 499979 = 216W + 1019, past its earlier bound of 2 * 10^5, at its last.
# 11299 = 5W - 251 and 11801 = 5W + 251 share one stage-2 term.
P_STAGE1 = 2**2 * 7 * 19 * 41 * 61 * 67 * 89 + 1
P_STAGE1_TOO = 2 * 5 * 11 * 13 * 23 * 31 * 37 * 43 + 1
P_STAGE2 = 2**2 * 5 * 41 * 61 * 20011 + 1
P_STAGE2_BELOW = 2 * 50021 + 1
P_STAGE2_ABOVE = 2 * 3 * 7 * 100003 + 1
P_STAGE2_FAR = 2**6 * 3**4 * 5**3 * 7**2 * 11 * 13 * 17**2 * 19 * 23 * 29 * 31 * 37 * 499979 + 1
P_TERM, P_TERM_TOO = 4 * 11299 + 1, 2 * 11801 + 1
SAFE, SAFE_TOO = 2 * 500000003 + 1, 2 * 500000201 + 1


def lucas_is_prime(p: int, primes: tuple[int, ...], proven: tuple[int, ...] = ()) -> bool:
    """Lucas's test as Brillhart, Lehmer and Selfridge (1975) state it,
    independent of is_prime: p is prime when ``primes`` are every prime of
    p - 1 and, for each r of them, some a below 100 has a^(p-1) = 1 and
    a^((p-1)/r) != 1 modulo p.  Each r is checked prime by trial division
    unless it is in ``proven``, primes the caller has proved already."""
    rest = p - 1
    for r in primes:
        assert r in proven or trial_division_is_prime(r)
        while rest % r == 0:
            rest //= r
    return rest == 1 and all(
        any(pow(a, p - 1, p) == 1 and pow(a, (p - 1) // r, p) != 1 for a in range(2, 100))
        for r in primes
    )


def sieve_primes(bound: int) -> list[int]:
    """The primes below bound, by a sieve of Eratosthenes over a list."""
    flags = [True] * bound
    flags[:2] = [False, False]
    for p in range(2, isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, bound, p))
    return list(compress(range(bound), flags))


def no_rho(m: int) -> int:
    raise AssertionError(f"Pollard rho ran on {m}")


class TestPollardPm1:
    """Each case is checked on what _pollard_pm1 returns and on factorize,
    which hands anything but a proper divisor on to Pollard rho."""

    def test_inputs_are_what_they_claim(self):
        stage_2 = (P_STAGE2, P_STAGE2_BELOW, P_STAGE2_ABOVE, P_TERM, P_TERM_TOO)
        for p in (P_STAGE1, P_STAGE1_TOO, *stage_2, SAFE, SAFE_TOO):
            assert trial_division_is_prime(p)
        for q in (20011, 50021, 100003, 499979, 11299, 11801):
            assert trial_division_is_prime(q)
        assert trial_division_is_prime(SAFE // 2) and trial_division_is_prime(SAFE_TOO // 2)
        assert lucas_is_prime(P_STAGE2_FAR, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 499979))
        assert not lucas_is_prime(561, (2, 5, 7))  # 3 * 11 * 17, a Carmichael number

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
        *_, coprime, table = _pm1_plan()
        babies = list(compress(range(1, width // 2 + 1, 2), coprime))
        assert babies == [b for b in range(1, width // 2) if gcd(b, width) == 1]
        expected = [q for q in sieve_primes(hi) if q >= lo]
        assert expected[:2] == [10007, 10009] and expected[-1] == 499979
        in_range = set(expected)
        covered = []
        for g, runs in enumerate(table, 1):
            for k in b"".join(runs):
                pair = (g * width - babies[k], g * width + babies[k])
                primes = [q for q in pair if q in in_range]
                assert primes, (g, babies[k])
                covered += primes
        assert sorted(covered) == expected

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

    def test_stage_2_splits_one_prime_past_2_times_10_to_the_5(self):
        q = 499979
        assert q == 216 * divprime.arithmetic._PM1_WIDTH + 1019
        assert (P_STAGE2_FAR - 1) % q == 0 and 2 * 10**5 < q < divprime.arithmetic._PM1_BOUND2
        m = P_STAGE2_FAR * SAFE
        exponent = _pm1_plan()[0]
        assert gcd(pow(divprime.arithmetic._PM1_BASE, exponent, m) - 1, m) == 1  # not stage 1
        assert _pollard_pm1(m) == P_STAGE2_FAR
        assert factorize(m).factors == ((SAFE, 1), (P_STAGE2_FAR, 1))

    def test_primes_met_at_different_giant_steps_split_m(self):
        # 50021 is met at giant step 22, before 100003 at 43.
        m = P_STAGE2_BELOW * P_STAGE2_ABOVE
        assert _pollard_pm1(m) == P_STAGE2_BELOW
        assert factorize(m).factors == ((P_STAGE2_BELOW, 1), (P_STAGE2_ABOVE, 1))

    def test_two_safe_primes_go_on_to_rho(self):
        assert _pollard_pm1(SAFE * SAFE_TOO) == 1
        assert factorize(SAFE * SAFE_TOO).factors == ((SAFE, 1), (SAFE_TOO, 1))

    def test_two_smooth_primes_come_apart_in_stage_1(self, monkeypatch):
        # Stage 1 catches both primes at once.  Raised one prime power at a
        # time, the base reaches P_STAGE1_TOO's order at 43^2, the power of
        # the largest prime of P_STAGE1_TOO - 1, before P_STAGE1's.
        m = P_STAGE1 * P_STAGE1_TOO
        exponent, powers, *_ = _pm1_plan()
        bound = divprime.arithmetic._TRIAL_BOUND
        primes = sieve_primes(bound)
        assert powers == tuple(max(p**k for k in range(1, 14) if p**k < bound) for p in primes)
        assert exponent == prod(powers)
        assert gcd(pow(divprime.arithmetic._PM1_BASE, exponent, m) - 1, m) == m
        assert _pollard_pm1(m) == P_STAGE1_TOO
        monkeypatch.setattr(divprime.arithmetic, "_pollard_rho", no_rho)
        assert factorize(m).factors == ((P_STAGE1_TOO, 1), (P_STAGE1, 1))

    def test_primes_met_in_one_stage_2_term_give_m_and_go_on_to_rho(self, monkeypatch):
        # One term V_5 - v_251 covers 11299 = 5W - 251 and 11801 = 5W + 251,
        # so stage 2 catches both primes at once and only rho splits m.
        width = divprime.arithmetic._PM1_WIDTH
        assert (11299, 11801) == (5 * width - 251, 5 * width + 251)
        assert (P_TERM - 1) % 11299 == 0 and (P_TERM_TOO - 1) % 11801 == 0
        m = P_TERM * P_TERM_TOO
        exponent = _pm1_plan()[0]
        assert gcd(pow(divprime.arithmetic._PM1_BASE, exponent, m) - 1, m) == 1  # not stage 1
        assert _pollard_pm1(m) == m
        rho_inputs = []
        rho = divprime.arithmetic._pollard_rho
        monkeypatch.setattr(
            divprime.arithmetic, "_pollard_rho", lambda m: rho_inputs.append(m) or rho(m)
        )
        assert factorize(m).factors == ((P_TERM_TOO, 1), (P_TERM, 1))
        assert rho_inputs == [m]

    def test_primes_met_at_one_giant_step_come_apart_by_its_terms(self, monkeypatch):
        # 13709 = 6W - 151 divides p - 1 and 13267 = 6W - 593 divides q - 1:
        # two terms of giant step 6, whose product holds both primes.  Taken
        # one at a time, the term for b = 151 comes first and gives p.
        p, q = 7507843523, 9105115567
        width = divprime.arithmetic._PM1_WIDTH
        assert (13709, 13267) == (6 * width - 151, 6 * width - 593)
        assert trial_division_is_prime(13709) and trial_division_is_prime(13267)
        assert (p - 1) % 13709 == 0 and (q - 1) % 13267 == 0
        m = p * q
        exponent = _pm1_plan()[0]
        assert gcd(pow(divprime.arithmetic._PM1_BASE, exponent, m) - 1, m) == 1  # not stage 1
        assert _pollard_pm1(m) == p
        monkeypatch.setattr(divprime.arithmetic, "_pollard_rho", no_rho)
        assert factorize(m).factors == ((p, 1), (q, 1))

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
        # p-1, ECM, the perfect-power test and rho all run.
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


def montgomery_sum(P, Q, a: int, b: int, p: int):
    """P + Q on b*y^2 = x^3 + a*x^2 + x over the integers modulo the prime
    p, by the affine chord-and-tangent law; None is the point at infinity."""
    if P is None or Q is None:
        return P if Q is None else Q
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + 2 * a * x1 + 1) * pow(2 * b * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (b * slope * slope - a - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def montgomery_multiple(k: int, P, a: int, b: int, p: int):
    """[k]P for k >= 1 by doubling and adding with ``montgomery_sum``."""
    result = None
    for bit in bin(k)[2:]:
        result = montgomery_sum(result, result, a, b, p)
        if bit == "1":
            result = montgomery_sum(result, P, a, b, p)
    return result


def suyama_curve(sigma: int, p: int) -> tuple[tuple[int, int], int, int]:
    """Suyama's curve for sigma over the integers modulo the prime p: its
    point (u^3/v^3, 1), with u = sigma^2 - 5 and v = 4*sigma, and the a and
    b that put that point on b*y^2 = x^3 + a*x^2 + x, with
    a = (v - u)^3 (3u + v) / (4 u^3 v) - 2."""
    u, v = sigma * sigma - 5, 4 * sigma
    x = u**3 * pow(v**3, -1, p) % p
    a = ((v - u) ** 3 * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
    return (x, 1), a, (x**3 + a * x * x + x) % p


class TestEcm:
    """Lenstra's ECM on Suyama's Montgomery curves, behind p-1 on cofactors
    of at least _ECM_MIN, checked against an affine group law."""

    @pytest.mark.parametrize("p", [103, 1000003])
    def test_ladder_matches_repeated_addition(self, p):
        # Modulo 103 the point has order 6, so the multiples pass through
        # the point at infinity, where Z must be 0.
        P, a, b = suyama_curve(6, p)
        assert b and (a * a - 4) % p
        a24 = (a + 2) * pow(4, -1, p) % p
        multiple, infinite = None, 0
        for k in range(1, 201):
            multiple = montgomery_sum(multiple, P, a, b, p)
            x, z = _ladder(k, P[0], a24, p)
            if multiple is None:
                infinite += 1
                assert z % p == 0 and x % p, k
            else:
                assert z % p and (x - multiple[0] * z) % p == 0, k
        assert (infinite > 0) == (p == 103)

    def test_stage_1_multiplier_and_stage_2_terms(self):
        # The multiplier is the largest power up to B1 of every prime up to
        # it.  A term (g, b) stands for g*W - b and g*W + b: each prime in
        # (B1, B2] is one of those of exactly one term, and each term has one.
        lo, hi = divprime.arithmetic._ECM_BOUND1, divprime.arithmetic._ECM_BOUND2
        width = divprime.arithmetic._ECM_WIDTH
        k, coprime, table = _ecm_plan()
        assert k == prod(max(p**e for e in range(1, 9) if p**e <= lo) for p in sieve_primes(lo + 1))
        babies = list(compress(range(1, width // 2 + 1, 2), coprime))
        assert babies == [b for b in range(1, width // 2) if gcd(b, width) == 1]
        expected = [q for q in sieve_primes(hi + 1) if q > lo]
        assert expected[:2] == [307, 311] and expected[-1] == 14983
        in_range = set(expected)
        covered = []
        for g, runs in enumerate(table, 1):
            for b in b"".join(runs):
                primes = [q for q in (g * width - babies[b], g * width + babies[b]) if q in in_range]
                assert primes, (g, babies[b])
                covered += primes
        assert sorted(covered) == expected

    @pytest.mark.parametrize("p, q, g, b", [(1000033, 4621, 22, 1), (1000037, 3089, 15, -61)])
    def test_stage_2_catches_the_order_past_b1(self, monkeypatch, p, q, g, b):
        # On the first curve, [k]P modulo p has the prime order q = g*W + b.
        assert q == g * divprime.arithmetic._ECM_WIDTH + b and trial_division_is_prime(q)
        assert divprime.arithmetic._ECM_BOUND1 < q <= divprime.arithmetic._ECM_BOUND2
        P, a, curve_b = suyama_curve(6, p)
        Q = montgomery_multiple(_ecm_plan()[0], P, a, curve_b, p)
        assert Q is not None and montgomery_multiple(q, Q, a, curve_b, p) is None
        monkeypatch.setattr(divprime.arithmetic, "_ECM_CURVES", 1)
        assert _ecm(p * SAFE) == p

    def test_splits_two_safe_primes_without_rho(self, monkeypatch):
        assert SAFE * SAFE_TOO >= divprime.arithmetic._ECM_MIN
        assert _ecm(SAFE * SAFE_TOO) in (SAFE, SAFE_TOO)
        monkeypatch.setattr(divprime.arithmetic, "_pollard_rho", no_rho)
        assert factorize(SAFE * SAFE_TOO).factors == ((SAFE, 1), (SAFE_TOO, 1))

    def test_cofactors_below_the_size_bound_skip_it(self, monkeypatch):
        # p-1 gives m on P_TERM * P_TERM_TOO (one stage-2 term holds both).
        m = P_TERM * P_TERM_TOO
        assert _pollard_pm1(m) == m and m < divprime.arithmetic._ECM_MIN

        def no_ecm(m: int) -> int:
            raise AssertionError(f"ECM ran on {m}")

        monkeypatch.setattr(divprime.arithmetic, "_ecm", no_ecm)
        assert factorize(m).factors == ((P_TERM_TOO, 1), (P_TERM, 1))

    def test_gives_1_on_two_20_digit_safe_primes(self):
        assert _ecm((10**19 + 1963) * (10**19 + 7183)) == 1


def brent_reference(n: int) -> tuple[int, list[int], bool]:
    """Brent's rho as _pollard_rho walks it, with one |x - y| per modular
    reduction and no step budget: the divisor found, the first argument of
    each gcd with n in order, and whether the walk backtracked after a
    block's product reached 0 modulo n."""
    arguments, backtracked = [], False
    c = 0
    while True:
        y, c = 2, c + 1
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                arguments.append(q)
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            backtracked = True
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                arguments.append(abs(x - ys))
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, arguments, backtracked


def up_to_sign(a: int, n: int) -> int:
    """The least of a and -a modulo n, which fixes gcd(a, n)."""
    return min(a % n, -a % n)


@cache
def rho_semiprimes() -> tuple[int, ...]:
    """36451 * 367501, whose first walk backtracks into a degenerate cycle,
    and 40 seeded products of two distinct primes in [10^4, 10^6)."""
    rng = random.Random(35)
    found = [36451 * 367501]
    while len(found) < 41:
        p, q = (rng.randrange(10**4, 10**6) for _ in range(2))
        while not trial_division_is_prime(p):
            p += 1
        while not trial_division_is_prime(q):
            q += 1
        if p != q:
            found.append(p * q)
    return tuple(found)


class TestRhoParity:
    """_pollard_rho multiplies four differences per reduction, with a tail
    of up to three, and drops their sign, which no gcd with n can see: it
    takes the gcds of the one-difference walk, up to sign, and returns its
    divisor.  Strides of 1 and 2 steps run the tail alone on every walk."""

    def test_same_gcds_as_one_difference_per_reduction(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            divprime.arithmetic, "gcd", lambda a, b: seen.append((a, b)) or gcd(a, b)
        )
        for n in rho_semiprimes():
            seen.clear()
            divisor = divprime.arithmetic._pollard_rho(n)
            expected, arguments, _ = brent_reference(n)
            assert divisor == expected, n
            assert all(b == n for _, b in seen)
            assert [up_to_sign(a, n) for a, _ in seen] == [up_to_sign(a, n) for a in arguments]

    def test_cases_take_the_backtrack(self):
        backtracked = [brent_reference(n)[2] for n in rho_semiprimes()]
        assert backtracked[0] and sum(backtracked) >= 2


class TestRhoBudget:
    """Pollard rho gives up after _RHO_BUDGET steps with a typed error that
    names the cofactor's size; the CLI prints it and exits 1."""

    def test_factorize_raises_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(divprime.arithmetic, "_RHO_BUDGET", 1000)
        monkeypatch.setattr(divprime.arithmetic, "_ECM_CURVES", 0)
        with pytest.raises(FactorBudgetError, match="of a 19-digit cofactor"):
            factorize(12 * SAFE * SAFE_TOO)

    def test_compute_exits_1_with_the_message(self, monkeypatch, capsys):
        monkeypatch.setattr(divprime.arithmetic, "_RHO_BUDGET", 1000)
        monkeypatch.setattr(divprime.arithmetic, "_ECM_CURVES", 0)
        assert main(["compute", str(12 * SAFE * SAFE_TOO), "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Pollard rho found no factor of a 19-digit cofactor "
            "within its budget of 1000 steps\n"
        )


# A composite that Miller-Rabin passes on every prime base to 43 (Arnault
# 1995, "Rabin-Miller primality test: composite numbers which pass it",
# Math. Comp. 64): N = p1 * p2 * p3 with p2 = 53 (p1 - 1) + 1 and
# p3 = 61 (p1 - 1) + 1.  Each pi is 3 mod 8 and has (a/pi) = -1 for every
# odd prime a <= 43, and N is a Carmichael number.  Each pi - 1 holds the
# prime ARNAULT_Q, so Pollard p-1 cannot split N, nor rho within its budget.
ARNAULT_Q = 19881712813777
ARNAULT_P1 = 2 * 3 * 7 * 11**2 * 31**2 * 613 * ARNAULT_Q + 1
ARNAULT_P2 = 53 * (ARNAULT_P1 - 1) + 1
ARNAULT_P3 = 61 * (ARNAULT_P1 - 1) + 1
ARNAULT_N = ARNAULT_P1 * ARNAULT_P2 * ARNAULT_P3
PSI_12, PSI_13 = A014233[-2:]


def strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin on the odd n > 2 to the one base a, from its definition."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


class TestArnaultComposite:
    """Past psi_13 is_prime runs BPSW, which rejects N where Miller-Rabin on
    the fourteen prime bases to 43 did not, and factorize takes N apart by
    the Miller split over twenty bases, which reach past 43."""

    def test_inputs_are_what_they_claim(self):
        assert ARNAULT_N == int(
            "681746099727081682762119207687427069799107687978243211942570560847645083"
        )
        assert ARNAULT_P1 == 59521287816453390714403
        assert lucas_is_prime(ARNAULT_Q, (2, 3, 11, 37654759117))
        for k, p in ((1, ARNAULT_P1), (53, ARNAULT_P2), (61, ARNAULT_P3)):
            primes = (2, 3, 7, 11, 31, 613, ARNAULT_Q, *((k,) if k > 1 else ()))
            assert lucas_is_prime(p, primes, proven=(ARNAULT_Q,)), k
        assert ARNAULT_P2 < PSI_13 < ARNAULT_P3  # p3 is proved prime past the proven tiers

    def test_passes_miller_rabin_on_every_prime_base_to_43(self):
        assert all(strong_probable_prime(ARNAULT_N, a) for a in sieve_primes(44))

    def test_is_prime_rejects_it(self):
        assert not is_prime(ARNAULT_N)
        assert not is_prime(ARNAULT_P2 * ARNAULT_P3)
        assert all(map(is_prime, (ARNAULT_P1, ARNAULT_P2, ARNAULT_P3)))

    def test_factorize_splits_it_without_p_minus_1_or_rho(self, monkeypatch):
        monkeypatch.setattr(divprime.arithmetic, "_pollard_pm1", no_rho)
        monkeypatch.setattr(divprime.arithmetic, "_pollard_rho", no_rho)
        assert factorize(ARNAULT_N).factors == ((ARNAULT_P1, 1), (ARNAULT_P2, 1), (ARNAULT_P3, 1))

    def test_compute_with_oracle_counts_eight_divisors_verified(self, capsys):
        assert main(["compute", str(ARNAULT_N), "--with-oracle", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "verified"
        assert out["D"] == out["oracle"]["D"] == "8"


class TestStrongLucas:
    """The strong Lucas test with Selfridge's parameters, BPSW's second half."""

    def test_rejects_every_term_of_a014233(self):
        assert [n for n in A014233 if _strong_lucas(n)] == []

    def test_agrees_with_the_sieve_but_for_its_pseudoprimes(self):
        # Below 10^5 it accepts every odd prime, and the odd composites it
        # accepts are the strong Lucas pseudoprimes (OEIS A217255), none of
        # which is a strong pseudoprime to base 2.
        flags = sieve(10**5)
        wrong = [n for n in range(3, 10**5, 2) if _strong_lucas(n) != flags[n]]
        assert wrong == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
        assert not any(strong_probable_prime(n, 2) for n in wrong)

    @pytest.mark.parametrize("n", [PSI_13, ARNAULT_N, ARNAULT_P2 * ARNAULT_P3, ARNAULT_P3**2])
    def test_rejects_composites_past_psi_13(self, n):
        assert not _strong_lucas(n)
        assert not is_prime(n)

    @pytest.mark.parametrize("exponent", [89, 107, 127, 521])
    def test_accepts_mersenne_primes_past_psi_13(self, exponent):
        assert _strong_lucas(2**exponent - 1) and is_prime(2**exponent - 1)


class TestProvedOnce:
    """factorize and _factorize_range build their results without the
    constructor's checks, which each of them must still pass."""

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=300)
    def test_factorize_results_pass_the_constructor(self, n):
        f = factorize(n)
        assert Factorization(*f) == f

    @pytest.mark.parametrize("n", [PSI_12, PSI_13, ARNAULT_N])
    def test_past_the_tiers(self, n):
        f = factorize(n)
        assert len(f.factors) > 1
        assert Factorization(*f) == f

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=40))
    @settings(max_examples=100)
    def test_range_results_pass_the_constructor(self, lo, length):
        for f in _factorize_range(lo, lo + length):
            assert Factorization(*f) == f

    def test_replace_on_a_factorize_result_validates(self):
        f = factorize(12)
        with pytest.raises(ValueError, match="^factors do not multiply to 13$"):
            f._replace(n=13)
        with pytest.raises(ValueError, match="^4 is not prime$"):
            f._replace(n=16, factors=((4, 2),))
        assert f._replace(n=18, factors=((2, 1), (3, 2))) == factorize(18)


class TestFactorizeRange:
    """_factorize_range sieves a block of consecutive integers at once and
    must give what factorize gives for each of them, in order."""

    @pytest.mark.parametrize(
        ("lo", "hi"),
        [
            (1, 3000),  # from 1, where the small primes are their own multiples
            (10**6 - 50, 10**6 + 2 * divprime.arithmetic._RANGE_BLOCK),  # across two block boundaries
            (10**8 - 400, 10**8 + 400),  # where a cofactor's primality turns to is_prime
            (10**20 - 10, 10**20 + 10),  # where cofactors go to p-1 and rho
        ],
    )
    def test_equals_factorize_one_at_a_time(self, lo, hi):
        assert list(_factorize_range(lo, hi)) == [factorize(n) for n in range(lo, hi + 1)]

    def test_a_refused_n_raises_after_the_earlier_results(self, monkeypatch):
        monkeypatch.setattr(divprime.arithmetic, "_RHO_BUDGET", 1000)
        monkeypatch.setattr(divprime.arithmetic, "_ECM_CURVES", 0)
        n = 12 * SAFE * SAFE_TOO  # refused, as TestRhoBudget shows
        results = _factorize_range(n - 3, n + 3)
        assert [next(results) for _ in range(3)] == [factorize(m) for m in range(n - 3, n)]
        with pytest.raises(FactorBudgetError, match="of a 19-digit cofactor"):
            next(results)

    def test_verify_prints_the_earlier_rows_then_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(divprime.arithmetic, "_RHO_BUDGET", 1000)
        monkeypatch.setattr(divprime.arithmetic, "_ECM_CURVES", 0)
        n = 12 * SAFE * SAFE_TOO
        assert main(["verify", str(n - 3), str(n + 3), "--format", "csv"]) == 1
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert [row[0] for row in rows[1:]] == [str(m) for m in range(n - 3, n)]
        assert captured.err.startswith("error: Pollard rho found no factor of a 19-digit cofactor")


def test_exact_half():
    assert exact_half(14) == 7
    with pytest.raises(ArithmeticError):
        exact_half(13)
