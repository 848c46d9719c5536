"""Integer factorization, divisor enumeration, and gcd.

Both computation paths consume the canonical :class:`Factorization` built
here: the closed forms read only the prime exponents, the brute-force graph
oracle enumerates the actual divisors.  Plain Python ints are used
throughout, so every value is exact at any size.  Primality is a set lookup
below the trial-division bound and Miller-Rabin with size-dependent proven
bases above it, so its cost follows the size of its input.

All functions are pure and all returned values immutable, so they are safe
to share across threads or worker processes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import compress
from math import gcd, prod

__all__ = [
    "Factorization",
    "divisor_count",
    "divisors",
    "exact_half",
    "factorize",
    "gcd",
    "is_prime",
]

# Trial division strips primes below this; Pollard rho handles the rest.
# Kept modest so that factoring thousands of 12-digit numbers stays fast.
_TRIAL_BOUND = 10_000

# Fixed seed for the rho stage, so factorize(n) is deterministic.
_RHO_SEED = 0x0D17C0DE

# Miller-Rabin witnesses by input size.  Below each bound, every odd
# composite fails the test for one of the first k prime bases: the bounds
# are the least strong pseudoprimes to those bases, psi_k (OEIS A014233;
# Jaeschke 1993, Jiang and Deng 2014, Sorenson and Webster 2017).  Past the
# last bound all fourteen bases are used, a deterministic strong test with
# no known counterexample; base 43 rejects psi_13 itself.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_MR_TIERS = (
    (1_373_653, _MR_BASES[:2]),
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


@cache
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[0] = sieve[1] = 0
    for p in range(2, int(_TRIAL_BOUND**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(_TRIAL_BOUND), sieve))


@cache
def _small_prime_set() -> frozenset[int]:
    return frozenset(_small_primes())


def is_prime(n: int) -> bool:
    """Primality test: a set lookup below _TRIAL_BOUND, otherwise
    Miller-Rabin with the fewest bases proven for n's size (_MR_TIERS).
    Exact for every n below the last bound, about 3.3e24."""
    if n < _TRIAL_BOUND:
        return n in _small_prime_set()
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    else:
        bases = _MR_BASES
    for p in bases:
        if n % p == 0:
            return False
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
        if prod(p**e for p, e in self.factors) != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")
        return self

    # namedtuple's own _make, behind _replace, bypasses __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant of Pollard rho with a fixed-seed RNG; n must be
    an odd composite with no prime factor below _TRIAL_BOUND."""
    import random  # lazily: most inputs never reach rho

    rng = random.Random(_RHO_SEED)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
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
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # Backtrack one multiplication at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        # Degenerate cycle; retry with fresh parameters.


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

    Trial division by the primes below 10000 first.  Each composite cofactor
    left is then split as a perfect power or by Pollard rho with a fixed
    seed, and Miller-Rabin checks the parts, so the result is deterministic
    for a given n and comfortably handles inputs far beyond what the
    explicit graph can represent.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    remaining = n
    exponents: dict[int, int] = {}
    for p in _small_primes():
        if p * p > remaining:
            break
        while remaining % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            remaining //= p
    # What trial division leaves is 1, a prime, or free of primes below
    # _TRIAL_BOUND, so any cofactor below the bound squared is prime.
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
            d = _pollard_rho(m)
            stack += [d, m // d]
    return Factorization(n, tuple(sorted(exponents.items())))


def divisor_count(f: Factorization) -> int:
    """Number of positive divisors, the product of (exponent + 1) terms.
    Never enumerates the divisors themselves."""
    return prod(e + 1 for _, e in f.factors)


def divisors(f: Factorization) -> list[int]:
    """All positive divisors of f.n in strictly ascending order."""
    divs = [1]
    for p, e in f.factors:
        powers = [p**i for i in range(1, e + 1)]
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return divs
