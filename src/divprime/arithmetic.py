"""Integer factorization, primality and divisor enumeration.

Both computation paths consume the canonical :class:`Factorization` built
here: the closed forms read only the prime exponents, the brute-force graph
oracle enumerates the actual divisors.  Plain Python ints are used
throughout, so every value is exact at any size.

Factorization runs four stages.  Trial division strips the primes below
10^4.  Each composite cofactor left is split as a perfect power if it is
one, else by Pollard's p-1 method (Pollard 1974): stage 1 raises 3 to the
largest power below 10^4 of every prime below it in one ``pow``, and again
one power at a time when that catches every prime at once, and stage 2
tries each prime in [10^4, 5*10^5) as the one large factor of p - 1, by
baby and giant steps that cover two primes with one product where they can
(Montgomery 1987), and again one term at a time at a giant step that
catches every prime at once.  What p-1 leaves goes to Brent's variant of
Pollard rho (Brent 1980), which multiplies four differences per reduction
and gives up with :class:`FactorBudgetError` after 2^25 steps rather than
run without end.

Primality below 10^8 is trial division by the same blocks of primes; from
there it is Miller-Rabin with the bases proven for n's size below psi_13
(about 3.3e24), so its cost follows that size; past psi_13 all fourteen
bases give a deterministic test that is not proven.

All functions are pure and all returned values immutable, so they are safe
to share across threads or worker processes.
"""

from __future__ import annotations

from collections import namedtuple
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

# Trial division strips primes below this; p-1 and Pollard rho handle the
# rest.  Kept modest so that factoring thousands of 12-digit numbers stays
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
# of a rho call.
# W = 2*3*5*7*11 has 240 baby steps, the odd b < W/2 prime to W; of the
# primorials it takes the fewest baby and giant steps to 5*10^5: 577 + 216,
# against 52 + 2381 for 210 and 7507 + 17 for 30030.
_PM1_BASE = 3
_PM1_BOUND2 = 500_000
_PM1_WIDTH = 2310

# Brent rho's f-steps over all its walks on one cofactor, about 18x what
# psi_13 takes (1.8M).  A stride that could pass it is not begun:
# factorize raises FactorBudgetError instead.
_RHO_BUDGET = 1 << 25

# Miller-Rabin witnesses by input size from 10^8 (is_prime trial-divides
# below).  Below each bound, every odd composite fails the test for one of
# the first k prime bases: the bounds are the least strong pseudoprimes to
# those bases, psi_k (OEIS A014233; Jaeschke 1993, Jiang and Deng 2014,
# Sorenson and Webster 2017).  Past the last bound all fourteen bases are
# used, a deterministic strong test with no known counterexample; base 43
# rejects psi_13 itself.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_MR_TIERS = (
    (3_215_031_751, _MR_BASES[:4]),
    (3_474_749_660_383, _MR_BASES[:6]),
    (3_825_123_056_546_413_051, _MR_BASES[:9]),
    (3_317_044_064_679_887_385_961_981, _MR_BASES[:13]),
)


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
    10^8, Miller-Rabin with the fewest bases proven for n's size (_MR_TIERS)."""
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
        bases = _MR_BASES
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
    return True


class Factorization(namedtuple("Factorization", "n factors")):
    """Canonical prime factorization n = p1**e1 * ... with p1 < p2 < ...

    ``n`` is an int and ``factors`` a tuple of (prime, exponent) int pairs,
    empty exactly when n == 1.  The constructor and ``_replace`` validate
    the invariants, so a Factorization in hand is always trustworthy.
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


@cache
def _pm1_plan() -> tuple[int, tuple[int, ...], bytes, tuple[tuple[bytes, ...], ...]]:
    """Stage 1's exponent; the prime powers it is the product of, the
    largest below _TRIAL_BOUND of every prime below it, in ascending order;
    and stage 2's term table.

    With W = _PM1_WIDTH, the table flags each odd b <= W/2 prime to W (the
    baby steps), and lists for each giant step g = 1, 2, ... the index among
    them of every b for which g*W - b or g*W + b is a prime in
    [_TRIAL_BOUND, _PM1_BOUND2), in runs of at most 8."""
    powers = []
    for p in chain.from_iterable(primes for *_, primes in _trial_blocks()):
        power = p
        while power * p < _TRIAL_BOUND:
            power *= p
        powers.append(power)
    width, half = _PM1_WIDTH, _PM1_WIDTH // 2
    coprime = bytes(gcd(b, width) == 1 for b in range(1, half + 1, 2))
    babies = tuple(compress(range(1, half + 1, 2), coprime))
    flags = _sieve(_PM1_BOUND2 + width)
    flags[:_TRIAL_BOUND] = bytes(_TRIAL_BOUND)
    flags[_PM1_BOUND2:] = bytes(width)
    table = []
    for c in range(width, _PM1_BOUND2 + half, width):
        terms = bytes(k for k, b in enumerate(babies) if flags[c - b] or flags[c + b])
        table.append(tuple(terms[i : i + 8] for i in range(0, len(terms), 8)))
    return prod(powers), tuple(powers), coprime, tuple(table)


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


def factorize(n: int) -> Factorization:
    """Factor a positive integer into its canonical prime factorization.

    Trial division by the primes below 10^4 first.  Each composite cofactor
    left is then split as a perfect power, else by Pollard p-1 (stage 1 to
    10^4, stage 2 to 5*10^5), else by Pollard rho from a fixed start, and
    is_prime checks the parts, so the result is deterministic for a
    given n and comfortably handles inputs far beyond what the explicit
    graph can represent.  Raises FactorBudgetError when rho spends its
    budget of 2^25 steps on a cofactor without splitting it.
    """
    remaining = n
    exponents: dict[int, int] = {}
    for square, block, primes in _trial_blocks():
        if square > remaining:
            break
        if gcd(block, remaining) > 1:
            for p in primes:
                while remaining % p == 0:
                    exponents[p] = exponents.get(p, 0) + 1
                    remaining //= p
    # What trial division leaves is 1, a prime, or free of primes below
    # _TRIAL_BOUND, so by is_prime's rule any cofactor below 10^8 is prime.
    stack = [remaining] if remaining > 1 else []
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
            d = _pollard_pm1(m)
            if d == 1 or d == m:
                d = _pollard_rho(m)
            stack += [d, m // d]
    return Factorization(n, tuple(sorted(exponents.items())))


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
