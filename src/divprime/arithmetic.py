"""Integer factorization, primality and divisor enumeration.

Both computation paths consume the canonical :class:`Factorization` built
here: the closed forms read only the prime exponents, the brute-force graph
oracle enumerates the actual divisors.  Plain Python ints are used
throughout, so every value is exact at any size.

Factorization runs in stages.  Trial division strips the primes below
10^4.  Each composite cofactor m left is split as a perfect power if it
is one, else, from psi_13 (about 3.3e24), by a Miller split: the gcd of m
with x - 1 for x = a^d, m - 1 = 2^s * d, and each of its squarings, over
the first twenty prime bases a, which takes apart in milliseconds the
Carmichael numbers built to pass Miller-Rabin on the bases to 43
(Arnault 1995).  Else it is split by Pollard's p-1 method (Pollard 1974):
stage 1 raises 3 to the largest power below 10^4 of every prime below it
in one ``pow``, and again one power at a time when that catches every
prime at once, and stage 2 tries each prime in [10^4, 5*10^5) as the one
large factor of p - 1, by baby and giant steps that cover two primes with
one product where they can (Montgomery 1987), and again one term at a
time at a giant step that catches every prime at once.  What p-1 leaves
goes, from 10^15, to Lenstra's elliptic-curve method (Lenstra 1987) on
up to 64 of Suyama's Montgomery curves, each with a stage 1 to 300 by one
x-only ladder and a stage 2 to 15000 by baby and giant steps paired as
p-1's are.  What is left goes to Brent's variant of Pollard rho (Brent
1980), which multiplies four differences per reduction and gives up with
:class:`FactorBudgetError` after 2^25 steps rather than run without end.

Primality below 10^8 is trial division by the same blocks of primes; from
there it is Miller-Rabin with the bases proven for n's size below psi_13,
so its cost follows that size; past psi_13 it is BPSW, Miller-Rabin to
base 2 and a strong Lucas test with Selfridge's parameters (Baillie and
Wagstaff 1980), not proven but with no known counterexample.

``_factorize_range`` factors a run of consecutive integers for ``verify``,
dividing each small prime out of its multiples in a block of them at once.

All functions are pure and all returned values immutable, so they are safe
to share across threads or worker processes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import chain, compress, groupby, starmap
from math import gcd, isqrt, prod
from operator import itemgetter

__all__ = [
    "FactorBudgetError",
    "Factorization",
    "divisor_count",
    "divisors",
    "exact_half",
    "factorize",
    "is_prime",
]

# Trial division strips primes below this; p-1, ECM and Pollard rho handle
# the rest.  Kept modest so that factoring thousands of 12-digit numbers stays
# fast.  It is also p-1's stage-1 bound.
_TRIAL_BOUND = 10_000

# Pollard p-1: the base, the end of stage 2's primes, and stage 2's giant
# step W.  The base is not 2: it has order 89 modulo 2^89 - 1, so base 2
# finds both Mersenne primes of (2^89 - 1)^2 * (2^61 - 1) at once.  The
# bound is the least of {2, 3, 5, 10}*10^5 at which factorize, p-1 and rho
# together, runs fastest over the factor benchmark's N, with the median N no
# slower.  Timed per N in turn in one process over 480 N (seeds 1, 5 and 77,
# CPython 3.11, 2-core x86-64), against 2*10^5: 3*10^5 took x0.94, 5*10^5
# x0.91 and 10^6 x0.91-0.92, the median N 3.7-4.3 ms at each; 10^6 also
# takes 16-20 ms to plan, against 8-14 ms, and 0.8 MiB more.  A p-1 call
# that splits nothing takes x1.6 as long as at 2*10^5, still under a third
# of a rho call.  That rule was measured with rho behind p-1, before ECM
# ran between them; the bound stays, as CI's P * (10^19 + 1963) inputs
# need stage-2 primes up to 499979.
# W = 2*3*5*7*11 has 240 baby steps, the odd b < W/2 prime to W; of the
# primorials it takes the fewest baby and giant steps to 5*10^5: 577 + 216,
# against 52 + 2381 for 210 and 7507 + 17 for 30030.
_PM1_BASE = 3
_PM1_BOUND2 = 500_000
_PM1_WIDTH = 2310

# Lenstra ECM, behind p-1 on cofactors of at least _ECM_MIN: the stage-1
# bound B1, the end of stage 2's primes B2, stage 2's giant step W and the
# number of curves.  Timed on the 185 cofactors that p-1 leaves of 720
# factor benchmark N (seeds 1, 5 and 77; CPython 3.11, 2-core x86-64), ECM
# then rho on what it leaves, min of 5 rounds: B1 = 300 and B2 = 15000
# took 1.19 s, against 1.26 s at B1 = 200, 1.32 s at 400, 1.26 s at
# B2 = 10^4 and 1.36 s at 2.5*10^4; W = 210 took 1.19 s, against 1.59 s at
# 30 and 1.74 s at 2310.  They needed 3.3 curves on average and 18 at
# most, so 64 is a wide margin; on CI's 39-digit product of two 20-digit
# safe primes the 64 take about 0.2 s before rho refuses it.  _ECM_MIN is
# where ECM starts to beat rho on balanced semiprimes that p-1 leaves, 40
# per decade in two seeded sets, rho against ECM with rho behind it:
# 1.1-1.3 against 2.7-4.2 ms in [10^13, 10^14), 1.6-3.0 against 2.7-4.9
# ms in [10^14, 10^15), 3.6 against 3.2-3.3 ms in [10^15, 10^16) and
# 5.3-5.8 against 4.1-5.1 ms in [10^16, 10^17).
_ECM_BOUND1 = 300
_ECM_BOUND2 = 15_000
_ECM_WIDTH = 210
_ECM_CURVES = 64
_ECM_MIN = 10**15

# Brent rho's f-steps over all its walks on one cofactor, about 18x what
# psi_13 takes (1.8M).  A stride that could pass it is not begun:
# factorize raises FactorBudgetError instead.
_RHO_BUDGET = 1 << 25

# Miller-Rabin witnesses by input size from 10^8 (is_prime trial-divides
# below).  Below each bound, every odd composite fails the test for one of
# the first k prime bases: the bounds are the least strong pseudoprimes to
# those bases, psi_k (OEIS A014233; Jaeschke 1993, Jiang and Deng 2014,
# Sorenson and Webster 2017).  The last bound is psi_13: past it is_prime
# runs BPSW, and a composite cofactor is first offered a Miller split over
# all twenty bases, past the 43 that Arnault's composites are built to pass.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
_MR_TIERS = (
    (3_215_031_751, _MR_BASES[:4]),
    (3_474_749_660_383, _MR_BASES[:6]),
    (3_825_123_056_546_413_051, _MR_BASES[:9]),
    (3_317_044_064_679_887_385_961_981, _MR_BASES[:13]),
)
_PSI_13 = _MR_TIERS[-1][0]

# Consecutive integers _factorize_range sieves at once: enough that each
# prime's set-up is paid over many of them, few enough that a block's lists
# of cofactors and factors stay well under a MiB.
_RANGE_BLOCK = 1 << 12


def exact_half(value: int) -> int:
    """Halve an integer that must be even; odd input means an arithmetic bug
    somewhere upstream, so fail loudly instead of truncating."""
    if value & 1:
        raise ArithmeticError(f"expected an even value, got {value}")
    return value >> 1


def _sieve(bound: int) -> bytearray:
    """flags[k] is 1 exactly when k < bound is prime (Eratosthenes)."""
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


@cache
def _trial_blocks() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The primes below _TRIAL_BOUND by bit length, each length as its least prime
    squared, to stop at, its product, to pass over by one gcd, and its primes."""
    primes = compress(range(_TRIAL_BOUND), _sieve(_TRIAL_BOUND))
    groups = (tuple(g) for _, g in groupby(primes, int.bit_length))
    return tuple((g[0] * g[0], prod(g), g) for g in groups)


def is_prime(n: int) -> bool:
    """Primality test, exact for every n below psi_13, about 3.3e24.  Below
    _TRIAL_BOUND**2 = 10^8, n > 1 is prime exactly when it is coprime to
    each block of _trial_blocks whose least prime squared is at most n: a
    composite n has a prime p <= sqrt(n), whose block is tested, and a prime
    n < _TRIAL_BOUND of bit length k is below the square of its block's least
    prime, 2**(k-1) or more, so it is never tested against itself.  From
    10^8, Miller-Rabin with the fewest bases proven for n's size (_MR_TIERS);
    from psi_13, BPSW: Miller-Rabin to base 2, then ``_strong_lucas``."""
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        for square, block, _ in _trial_blocks():
            if square > n:
                break
            if gcd(block, n) != 1:
                return False
        return n > 1
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    else:
        bases = _MR_BASES[:1]  # BPSW's first half
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) of an int a and an odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of an odd n > 1 with Selfridge's
    parameters (Baillie and Wagstaff 1980): D is the first of 5, -7, 9,
    -11, ... with Jacobi symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.  With
    n + 1 = 2^s * k, k odd, n passes when U_k = 0 or V_(k*2^r) = 0 modulo n
    for some r < s.  A square n has no such D and is rejected first; a D
    sharing a factor with n makes n composite unless n is |D| itself."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (symbol := _jacobi(d, n)) == 1:
        d = -d - 2 if d > 0 else 2 - d
    if symbol == 0:
        return abs(d) == n
    q = (1 - d) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q^1; the index doubles per bit of k
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":  # U_(j+1) = (U_j + V_j)/2, V_(j+1) = (D*U_j + V_j)/2
            u, v, qk = (u + v) % n, (d * u + v) % n, qk * q % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


class Factorization(namedtuple("Factorization", "n factors")):
    """Canonical prime factorization n = p1**e1 * ... with p1 < p2 < ...

    ``n`` is an int and ``factors`` a tuple of (prime, exponent) int pairs,
    empty exactly when n == 1.  The constructor and ``_replace`` validate
    the invariants; ``factorize`` and ``_factorize_range`` build theirs
    directly, as their own steps prove them, so a Factorization in hand is
    always trustworthy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        previous = 1
        for p, e in self.factors:
            if p <= previous:
                raise ValueError("primes must be distinct and strictly increasing")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            previous = p
        if prod(starmap(pow, self.factors)) != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")
        return self

    # namedtuple's own _make, behind _replace, bypasses __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


class FactorBudgetError(ArithmeticError):
    """Pollard rho reached its step budget without splitting a cofactor."""


def _prime_powers(bound: int) -> tuple[int, ...]:
    """The largest power below bound of every prime below it, ascending."""
    powers = []
    for p in compress(range(bound), _sieve(bound)):
        power = p
        while power * p < bound:
            power *= p
        powers.append(power)
    return tuple(powers)


def _stage_2_table(width: int, lo: int, hi: int) -> tuple[bytes, tuple[tuple[bytes, ...], ...]]:
    """The term table of a baby-step giant-step stage 2 with giant step
    W = width, twice an odd number, over the primes in [lo, hi), lo > W/2.

    It flags each odd b <= W/2 prime to W (the baby steps), and lists for
    each giant step g = 1, 2, ... the index among them of every b for which
    g*W - b or g*W + b is a prime in [lo, hi), in runs of at most 8."""
    half = width // 2
    coprime = bytes(gcd(b, width) == 1 for b in range(1, half + 1, 2))
    babies = tuple(compress(range(1, half + 1, 2), coprime))
    flags = _sieve(hi + width)
    flags[:lo] = bytes(lo)
    flags[hi:] = bytes(width)
    table = []
    for c in range(width, hi + half, width):
        terms = bytes(k for k, b in enumerate(babies) if flags[c - b] or flags[c + b])
        table.append(tuple(terms[i : i + 8] for i in range(0, len(terms), 8)))
    return coprime, tuple(table)


@cache
def _pm1_plan() -> tuple[int, tuple[int, ...], bytes, tuple[tuple[bytes, ...], ...]]:
    """Stage 1's exponent; the prime powers it is the product of, the
    largest below _TRIAL_BOUND of every prime below it, in ascending order;
    and stage 2's term table, ``_stage_2_table`` with W = _PM1_WIDTH over
    the primes in [_TRIAL_BOUND, _PM1_BOUND2)."""
    powers = _prime_powers(_TRIAL_BOUND)
    return prod(powers), powers, *_stage_2_table(_PM1_WIDTH, _TRIAL_BOUND, _PM1_BOUND2)


def _pollard_pm1(m: int) -> int:
    """Pollard's p-1 on a composite m: a proper divisor of m, or 1 or m
    when neither stage splits it.

    Stage 1 takes x = _PM1_BASE^E mod m, E the stage-1 exponent, so
    gcd(x - 1, m) holds every prime p of m for which the order of the base
    modulo p divides E.  When that is every prime of m, stage 1 runs again
    from the base, one prime power of E at a time in ascending order with a
    gcd after each, and returns the first gcd past 1, which is m only when
    every prime of m comes out at the same power.  Stage 2 catches those
    whose order is such a divisor times one prime q in [_TRIAL_BOUND,
    _PM1_BOUND2), by Montgomery's baby-step giant-step continuation with
    prime pairing (Montgomery 1987).
    With W = _PM1_WIDTH, each such q is g*W - b or g*W + b for one giant
    step g and one baby step b < W/2 prime to W.  Let V_g = x^(gW) + x^(-gW)
    and v_b = x^b + x^(-b), each reached from the two before it by one
    product: V_(g+1) = V_g*V_1 - V_(g-1), and so for v_b over odd b.  When
    the order of x modulo p is g*W - b or g*W + b, x^(gW) is x^b or x^(-b)
    modulo p, so p divides the term V_g - v_b: one term covers both
    members of a prime pair.  Each giant step multiplies the terms of its
    row of _pm1_plan's table, reducing modulo m once per run of 8, and
    takes one gcd, so two primes of m caught at different giant steps
    come out one at a time.  A giant step whose gcd is m takes its terms
    again one at a time, with a gcd after each, and returns the first gcd
    past 1, which is m only when one term holds every prime of m."""
    exponent, powers, coprime, table = _pm1_plan()
    x = pow(_PM1_BASE, exponent, m)
    g = gcd(x - 1, m)
    if g == m:  # every prime of m caught at once: take them apart
        x = _PM1_BASE
        for power in powers:
            x = pow(x, power, m)
            g = gcd(x - 1, m)
            if g != 1:
                break
    if g != 1:
        return g
    v = (x + pow(x, -1, m)) % m
    square = (v * v - 2) % m
    odd, previous = [v], v  # v_1, and v_(-1) = v_1
    for _ in range(_PM1_WIDTH // 4):  # v_3, v_5, ..., v_(W/2)
        v, previous = (v * square - previous) % m, v
        odd.append(v)
    minus = [m - v for v in compress(odd, coprime)]  # -v_b, kept nonnegative
    step = (v * v - 2) % m  # V_1 = v_(W/2)^2 - 2
    giant, previous = step, 2  # V_1, V_0
    for runs in table:
        product = 1
        for run in runs:
            for k in run:
                product *= giant + minus[k]
            product %= m
        g = gcd(product, m)
        if g == m:  # every prime of m met at this giant step: its terms one at a time
            for k in chain.from_iterable(runs):
                if (g := gcd(giant + minus[k], m)) != 1:
                    break
        if g != 1:
            return g
        giant, previous = (giant * step - previous) % m, giant
    return 1


@cache
def _ecm_plan() -> tuple[int, bytes, tuple[tuple[bytes, ...], ...]]:
    """Stage 1's multiplier, the product of the largest power up to
    _ECM_BOUND1 of every prime up to it, and stage 2's term table,
    ``_stage_2_table`` with W = _ECM_WIDTH over the primes in
    (_ECM_BOUND1, _ECM_BOUND2]."""
    k = prod(_prime_powers(_ECM_BOUND1 + 1))
    return k, *_stage_2_table(_ECM_WIDTH, _ECM_BOUND1 + 1, _ECM_BOUND2 + 1)


def _xdouble(x: int, z: int, a24: int, m: int) -> tuple[int, int]:
    """[2](x:z) on the Montgomery curve with (A + 2)/4 = a24, modulo m."""
    s, d = (x + z) ** 2 % m, (x - z) ** 2 % m
    return s * d % m, (s - d) * (d + a24 * (s - d)) % m


def _xadd(x: int, z: int, x2: int, z2: int, xd: int, zd: int, m: int) -> tuple[int, int]:
    """(x:z) + (x2:z2) on a Montgomery curve modulo m, given their
    difference (xd:zd)."""
    a, b = (x - z) * (x2 + z2), (x + z) * (x2 - z2)
    return zd * (a + b) ** 2 % m, xd * (a - b) ** 2 % m


def _ladder(k: int, x0: int, a24: int, m: int) -> tuple[int, int]:
    """[k](x0:1) for k >= 1 by Montgomery's ladder: (x:z) and (x2:z2) are
    [j]P and [j+1]P for the leading bits j of k, so their difference is
    always P."""
    x, z = x0, 1
    x2, z2 = _xdouble(x0, 1, a24, m)
    for bit in bin(k)[3:]:
        if bit == "1":
            x, z = _xadd(x, z, x2, z2, x0, 1, m)
            x2, z2 = _xdouble(x2, z2, a24, m)
        else:
            x2, z2 = _xadd(x, z, x2, z2, x0, 1, m)
            x, z = _xdouble(x, z, a24, m)
    return x, z


def _ecm(m: int) -> int:
    """Lenstra's elliptic-curve method (Lenstra 1987) on a composite m with
    no prime below _TRIAL_BOUND: a proper divisor of m, or 1 when none of
    its _ECM_CURVES curves gives one.

    Curve sigma = 6, 7, ... is Suyama's: the Montgomery curve
    y^2 = x^3 + A*x^2 + x with (A + 2)/4 = (v - u)^3 (3u + v) / (16 u^3 v)
    and the point P of x = u^3/v^3, where u = sigma^2 - 5 and v = 4*sigma.
    For sigma < 100 the primes of u and v are below _TRIAL_BOUND, so
    16 u^3 v is prime to m.  Points are (X:Z) with x = X/Z, added and
    doubled without y (Montgomery 1987).
    Stage 1 takes Q = [k]P, k the stage-1 multiplier of ``_ecm_plan``, so
    Z_Q = 0 modulo every prime p of m for which the order of P modulo p
    divides k.  Stage 2 catches those where it is such a divisor times one
    prime q in (_ECM_BOUND1, _ECM_BOUND2], by baby and giant steps as in
    ``_pollard_pm1``: q is g*W - b or g*W + b for W = _ECM_WIDTH, so when
    it is the order of Q modulo p, [gW]Q is -[b]Q or [b]Q there, the two
    share their x, and p divides X_g*Z_b - X_b*Z_g: one term covers both
    members of a prime pair.  The baby points [b]Q come from [2]Q, each
    [b+2]Q as [b]Q + [2]Q less [b-2]Q, and each giant point from the one
    before it and [W]Q.  The curve's one gcd is taken with Z_Q times every
    term of the table, reduced once per run of 8; one that is m moves on
    to the next curve."""
    k, coprime, table = _ecm_plan()
    for sigma in range(6, 6 + _ECM_CURVES):
        u, v = sigma * sigma - 5, 4 * sigma
        inverse = pow(16 * u**3 * v**4, -1, m)  # 1/(16 u^3 v) = v^3 * inverse
        a24 = (v - u) ** 3 * (3 * u + v) * v**3 * inverse % m
        x, z = _ladder(k, 16 * u**6 * v * inverse % m, a24, m)
        odd = [(x, z)]  # [1]Q, [3]Q, ..., [W/2]Q
        step = _xdouble(x, z, a24, m)  # [2]Q
        previous = odd[0]  # [-1]Q, which has the x of [1]Q
        for _ in range(_ECM_WIDTH // 4):
            odd.append(_xadd(*odd[-1], *step, *previous, m))
            previous = odd[-2]
        babies = list(compress(odd, coprime))
        giant_step = _xdouble(*odd[-1], a24, m)  # [W]Q
        giant, following = giant_step, _xdouble(*giant_step, a24, m)
        product = z
        for runs in table:
            xg, zg = giant
            for run in runs:
                for b in run:
                    xb, zb = babies[b]
                    product *= xg * zb - xb * zg
                product %= m
            giant, following = following, _xadd(*following, *giant_step, *giant, m)
        g = gcd(product, m)
        if g != 1 and g != m:
            return g
    return 1


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant of Pollard rho on y -> y^2 + c from y = 2, with
    c = 1, 2, ...; n must be an odd composite with no prime below
    _TRIAL_BOUND.  The product of differences x - y is reduced modulo n once
    per four f-steps, and gcd'd with n once per 128 (Brent 1980); their sign
    does not change a gcd with n, so none is taken.  Raises FactorBudgetError
    rather than begin a stride r whose 2r f-steps could take its walks past
    _RHO_BUDGET, checked per doubling."""
    spent = c = 0
    while True:
        y, c = 2, c + 1
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if spent + 2 * r > _RHO_BUDGET:  # a stride of r takes up to 2r steps
                raise FactorBudgetError(
                    f"Pollard rho found no factor of a {len(str(n))}-digit "
                    f"cofactor within its budget of {_RHO_BUDGET} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(steps & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            spent += r + min(k, r)
            r *= 2
        if g == n:
            # Backtrack one multiplication at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        # Degenerate cycle; retry with the next c.


def _iroot(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 1, by integer Newton steps from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _miller_split(m: int) -> int:
    """A proper divisor of the odd composite m, or 1 if none is found: with
    m - 1 = 2^s * d, d odd, for each base a of _MR_BASES, the gcd of m with
    x - 1 for x = a^d mod m and each of its s squarings.  A square root of 1
    modulo some primes of m but not all, met on the way, gives one."""
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, m)
        for _ in range(s + 1):
            if 1 < (g := gcd(x - 1, m)) < m:
                return g
            x = x * x % m
    return 1


def _split(m: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of m >= 10^8, ascending, where m has no
    prime below _TRIAL_BOUND, so that by is_prime's rule every part of it
    below 10^8 is prime.  A composite part is split as a perfect power if it
    is one, else by the Miller split if it is psi_13 or more, else by Pollard
    p-1, else by ECM if it is _ECM_MIN or more, else by Pollard rho, which
    may raise FactorBudgetError."""
    exponents: dict[int, int] = {}
    stack = [m]
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
            continue
        # Rho takes about sqrt(p) steps on p**k, so split powers first;
        # every prime left exceeds _TRIAL_BOUND > 2**13.
        for k in range(2, m.bit_length() // 13 + 1):
            root = _iroot(m, k)
            if root**k == m:
                stack += [root] * k
                break
        else:
            d = _miller_split(m) if m >= _PSI_13 else 1
            if d == 1:
                d = _pollard_pm1(m)
            if (d == 1 or d == m) and m >= _ECM_MIN:
                d = _ecm(m)
            if d == 1 or d == m:
                d = _pollard_rho(m)
            stack += [d, m // d]
    return sorted(exponents.items())


def _finish(n: int, factors: list[tuple[int, int]], m: int) -> Factorization:
    """The Factorization of n, given the ascending (prime, exponent) pairs
    ``factors`` of every prime of n below the least one of the cofactor m
    they leave.  m is 1, or below 10^8 with no prime up to its square root,
    so prime, or else has no prime below _TRIAL_BOUND and goes to
    ``_split``.  The pairs are built prime and in order, and multiply to n,
    so the constructor's checks are skipped."""
    if m >= _TRIAL_BOUND * _TRIAL_BOUND:
        factors += _split(m)
    elif m > 1:
        factors.append((m, 1))
    return tuple.__new__(Factorization, (n, tuple(factors)))


def factorize(n: int) -> Factorization:
    """Factor a positive integer into its canonical prime factorization.

    Trial division by the primes below 10^4 first.  Each composite cofactor
    left is then split as a perfect power, else past psi_13 by the Miller
    split, else by Pollard p-1 (stage 1 to 10^4, stage 2 to 5*10^5), else
    from 10^15 by ECM (64 fixed curves, stage 1 to 300, stage 2 to 15000),
    else by Pollard rho from a fixed start, and is_prime checks the parts,
    so the result is deterministic for a given n and comfortably handles
    inputs far beyond what the explicit graph can represent.  Raises
    ValueError for n < 1, and FactorBudgetError when rho spends its budget
    of 2^25 steps on a cofactor without splitting it.  The result is built
    without the constructor's checks (``_finish``).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    remaining = n
    factors = []
    for square, block, primes in _trial_blocks():
        if square > remaining:
            break
        if gcd(block, remaining) > 1:
            for p in primes:
                if not remaining % p:
                    remaining //= p
                    e = 1
                    while not remaining % p:
                        remaining //= p
                        e += 1
                    factors.append((p, e))
    # What trial division leaves is 1, a prime, or free of primes below
    # _TRIAL_BOUND: a composite has a prime p with p^2 at most itself, whose
    # block was divided out.
    return _finish(n, factors, remaining)


def _factorize_range(lo: int, hi: int) -> Iterator[Factorization]:
    """factorize(n) for each n in [lo, hi], 1 <= lo, in order.  In blocks of
    _RANGE_BLOCK integers, each prime p of _trial_blocks with p^2 <= hi is
    divided out of the multiples of p in the block, found by stepping p
    from the first; then each n of the block is finished by ``_finish``,
    lazily, so an n that raises FactorBudgetError does so only once every
    earlier n has been yielded.  A cofactor left below 10^8 has no prime p
    with p^2 <= hi, and it is at most hi, so it is 1 or prime; from 10^8,
    hi >= 10^8 and every prime below _TRIAL_BOUND was divided out."""
    primes = [p for *_, group in _trial_blocks() for p in group if p * p <= hi]
    for start in range(lo, hi + 1, _RANGE_BLOCK):
        stop = min(start + _RANGE_BLOCK, hi + 1)
        rest = list(range(start, stop))
        found = [[] for _ in rest]
        for p in primes:
            for i in range(-start % p, stop - start, p):
                m, e = rest[i] // p, 1
                while not m % p:
                    m //= p
                    e += 1
                rest[i] = m
                found[i].append((p, e))
        for n, factors, m in zip(range(start, stop), found, rest):
            yield _finish(n, factors, m)


def divisor_count(f: Factorization) -> int:
    """Number of positive divisors, the product of (exponent + 1) terms.
    Never enumerates the divisors themselves."""
    return prod(e + 1 for _, e in f.factors)


def _radix_factors(f: Factorization) -> list[tuple[int, int]]:
    """f's (prime, exponent) pairs in the order ``divisors`` takes them: by
    ascending exponent, ties by ascending prime."""
    return sorted(f.factors, key=itemgetter(1))  # stable: f.factors is by prime


def divisors(f: Factorization) -> list[int]:
    """All positive divisors of f.n, each once, in mixed-radix order: with
    (p_j, e_j) the pairs of ``_radix_factors(f)``, the divisor at index i is
    the product of p_j^(i_j), where i_j is digit j of i in the mixed radix
    whose j-th digit runs to e_j and p_0's digit is least significant.
    So 1 comes first and n last, and the largest exponent's prime sets the
    most significant digit."""
    divs = [1]
    for p, e in _radix_factors(f):
        power = divs
        for _ in range(e):  # append the divisors so far times p, p^2, ..., p^e
            power = [d * p for d in power]
            divs += power
    return divs
