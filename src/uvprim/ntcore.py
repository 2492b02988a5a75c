"""Multiplicative arithmetic used throughout the package.

Everything here is exact.  Counts are ints.  The densities below are
rationals, and `screening` decides every criterion from their integer
numerators and denominators (`density_terms`, `sieve_terms`); the
`fractions.Fraction` values (`ArithmeticProfile.theta`/`tau`,
`DeltaValue.value`) are derived from the same integers when a caller reads
them.  The only floating point anywhere is inside numpy sieve buffers,
which hold integers.

The quantities attached to a modulus m are the ones the screening bounds are
built from:

* omega(m)   -- number of distinct prime factors
* Rad(m)     -- product of the distinct prime factors
* W(m)       -- 2**omega(m), the number of squarefree divisors
* phi(m)     -- Euler totient
* theta(m)   -- phi(m)/m, the density of residues coprime to m
* tau(m)     -- prod over primes l | m of (1 - 1/(l-1) + 1/(l-1)**2),
                the density correction appearing in the pair-count main term
                (the l = 2 factor is exactly 1, so even moduli are harmless)
* delta_j    -- 1 - j * sum(1/p) over a set of sieving primes

`coprime_mask` is the one definition of an e-free exponent: for a generator
gamma, gamma**x is e-free iff gcd(x, Rad(e)) = 1, i.e. iff the sieve over
the primes of e leaves x standing.

Every screening run starts by listing field orders as `PrimePowerId`s.
`iter_prime_powers` is the windowed sieve that lists the prime powers of a
range, and `enumerate_prime_powers` returns that list.  `omega_prime_powers`
lists those with a given omega(q - 1), the candidates of one survey row, by
building q - 1 from its factorisation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import NamedTuple

import numpy as np

from .errors import NotAPrimePowerError

__all__ = [
    "ArithmeticProfile",
    "DeltaValue",
    "PrimePowerId",
    "coprime_mask",
    "delta",
    "density_terms",
    "enumerate_prime_powers",
    "factorize",
    "first_primes",
    "is_prime",
    "iter_prime_powers",
    "omega_prime_powers",
    "primes_up_to",
    "primorial",
    "prime_power_decompose",
    "profile",
    "sieve_terms",
    "sqrt_bounds",
    "squarefree_divisors",
]


# --------------------------------------------------------------------------
# primes

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24
# The first four witnesses alone are deterministic below 3,215,031,751, the
# least strong pseudoprime to all of them (Pomerance, Selfridge and Wagstaff,
# Math. Comp. 35, 1980; Jaeschke, Math. Comp. 61, 1993).
_MR_SMALL_LIMIT = 3_215_031_751

_prime_cache: np.ndarray = np.array([2, 3, 5, 7], dtype=np.int64)
_prime_cache_limit = 10


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array (a view of a grown cache)."""
    global _prime_cache, _prime_cache_limit
    if n > _prime_cache_limit:
        limit = max(2 * n, 1 << 16)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _prime_cache = np.nonzero(sieve)[0].astype(np.int64)
        _prime_cache_limit = limit
    return _prime_cache[: np.searchsorted(_prime_cache, n, side="right")]


def first_primes(k: int) -> list[int]:
    """The first k primes."""
    if k <= 0:
        return []
    bound = 16
    while len(ps := primes_up_to(bound)) < k:
        bound *= 2
    return [int(p) for p in ps[:k]]


def primorial(k: int) -> int:
    """Product of the first k primes (1 for k = 0)."""
    return prod(first_primes(k))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond any input used here)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:4] if n < _MR_SMALL_LIMIT else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant of Pollard rho)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
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
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    """The primes below 2**16, as Python ints, for trial division."""
    return tuple(primes_up_to(1 << 16).tolist())


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p1, e1), (p2, e2), ...), p1 < p2 < ...

    Trial division by the primes below 2**16.  As soon as p*p exceeds what is
    left, the cofactor is 1 or a prime and is returned as it is; only a
    cofactor left after every small prime goes to Miller-Rabin and Brent rho.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    for p in _trial_primes():
        if p * p > n:
            if n > 1:
                out.append((n, 1))
            return tuple(out)
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    large: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack += [d, m // d]
    return tuple(out) + tuple(sorted(large.items()))


# --------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class ArithmeticProfile:
    """The exact multiplicative statistics of a modulus m.  `theta` and `tau`
    are derived on access; `density_terms(primes)` gives them as integers."""

    m: int
    factors: tuple[tuple[int, int], ...]
    primes: tuple[int, ...]  # the distinct primes of m, ascending
    omega: int
    radical: int
    w: int
    phi: int

    @property
    def theta(self) -> Fraction:
        return Fraction(self.phi, self.m)

    @property
    def tau(self) -> Fraction:
        phi_rad, _, tau_num = density_terms(self.primes)
        return Fraction(tau_num, phi_rad * phi_rad)


# 256 entries bound the cache's memory, where 65,536 held 43 MiB when full.
# The price is paid where a q is looked up again after the cache has moved
# on: the sweep's pair stage repeats about 6,000 factorizations that way.
@lru_cache(maxsize=256)
def profile(m: int) -> ArithmeticProfile:
    """Compute the ArithmeticProfile of m >= 1."""
    fac = factorize(m)
    primes = tuple(p for p, _ in fac)
    phi = m
    for p in primes:
        phi = phi // p * (p - 1)
    return ArithmeticProfile(
        m=m,
        factors=fac,
        primes=primes,
        omega=len(fac),
        radical=prod(primes),
        w=1 << len(fac),
        phi=phi,
    )


def density_terms(primes: tuple[int, ...] | list[int]) -> tuple[int, int, int]:
    """(a, b, c) for a modulus whose distinct primes are `primes`:
    a = prod(l - 1), b = prod(l), c = prod(l*l - 3l + 3), all positive, with
    theta = a/b and tau = c/a**2 (l*l - 3l + 3 over (l - 1)**2 is the factor
    1 - 1/(l-1) + 1/(l-1)**2)."""
    a = b = c = 1
    for p in primes:
        a *= p - 1
        b *= p
        c *= p * p - 3 * p + 3
    return a, b, c


def sieve_terms(primes: tuple[int, ...] | list[int]) -> tuple[int, int]:
    """(P, S) with P = prod(p) and S = sum(P/p) over distinct sieving
    primes, so that delta_j = 1 - j * sum(1/p) = (P - j*S)/P."""
    P = prod(primes)
    return P, sum(P // p for p in primes)


@dataclass(frozen=True)
class DeltaValue:
    """delta = 1 - j * sum(1/p) over a tuple of sieving primes."""

    j: int
    primes: tuple[int, ...]
    value: Fraction


def delta(j: int, primes: tuple[int, ...] | list[int]) -> DeltaValue:
    """Exact delta_j for a set of sieving primes.  May be <= 0; callers that
    need positivity check ``value > 0`` themselves."""
    ps = tuple(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("sieving primes must be distinct")
    P, S = sieve_terms(ps)
    return DeltaValue(j=j, primes=ps, value=Fraction(P - j * S, P))


def coprime_mask(size: int, primes: tuple[int, ...] | list[int]) -> np.ndarray:
    """mask[x] = True iff no prime in `primes` divides x, for 0 <= x < size:
    a sieve that strikes every multiple of each prime (0 included).  The
    smallest primes, while their product stays within 2**16, are sieved
    over one period of that product, which is then tiled to `size`; only
    the other primes are struck over the whole mask."""
    primes = sorted(primes)
    period, k = 1, 0
    while k < len(primes) and period * primes[k] <= 1 << 16:
        period *= primes[k]
        k += 1
    tile = np.ones(period, dtype=bool)
    for p in primes[:k]:
        tile[::p] = False
    # np.tile, not np.resize: np.resize concatenates a tuple of size/period
    # references to the tile, which for period 2 costs seconds and megabytes
    mask = np.tile(tile, -(-size // period))[:size]
    for p in primes[k:]:
        mask[::p] = False
    return mask


def squarefree_divisors(m: int) -> list[int]:
    """The 2**omega(m) squarefree divisors of m, sorted ascending."""
    primes = profile(m).primes
    divs = [prod(sub) for k in range(len(primes) + 1) for sub in itertools.combinations(primes, k)]
    return sorted(divs)


# --------------------------------------------------------------------------
# prime powers

class PrimePowerId(NamedTuple):
    """A field order q = p**r."""

    q: int
    p: int
    r: int


def prime_power_decompose(q: int) -> PrimePowerId:
    """Write q as p**r, or raise NotAPrimePowerError."""
    if q < 2:
        raise NotAPrimePowerError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise NotAPrimePowerError(f"{q} is not a prime power")
    p, r = fac[0]
    return PrimePowerId(q=q, p=p, r=r)


_WINDOW = 1 << 21


def _higher_powers(lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """{p**r: (p, r)} for every p**r with r >= 2 in [lo, hi]."""
    out = {}
    for p in map(int, primes_up_to(isqrt(hi))):
        q = p * p
        r = 2
        while q <= hi:
            if q >= lo:
                out[q] = (p, r)
            q *= p
            r += 1
    return out


def _window_prime_mask(a: int, b: int, base: np.ndarray) -> np.ndarray:
    mask = np.ones(b - a, dtype=bool)
    if a <= 1:
        mask[: min(2 - a, b - a)] = False
    for p in map(int, base):
        if p * p >= b:
            break
        start = max(p * p, -(-a // p) * p)
        if start < b:
            mask[start - a :: p] = False
    return mask


def iter_prime_powers(lo: int, hi: int):
    """Yield the `PrimePowerId` of every prime power q with lo <= q <= hi,
    in ascending order of q.

    One pass of windowed numpy sieves: each window of [lo, hi] marks its
    primes and its higher powers p**r (r >= 2).  Nothing is factored one q
    at a time, so this stays workable up to hi around 10**8.
    """
    lo = max(lo, 2)
    if hi < lo:
        return
    base = primes_up_to(isqrt(hi) + 1)
    higher = _higher_powers(lo, hi)
    for a in range(lo, hi + 1, _WINDOW):
        b = min(a + _WINDOW, hi + 1)
        mask = _window_prime_mask(a, b, base)
        mask[[q - a for q in higher if a <= q < b]] = True
        for q in (np.nonzero(mask)[0] + a).tolist():
            p, r = higher.get(q, (q, 1))
            yield PrimePowerId(q=q, p=p, r=r)


def enumerate_prime_powers(lo: int, hi: int) -> list[PrimePowerId]:
    """All prime powers q in the closed range [lo, hi], ascending."""
    return list(iter_prime_powers(lo, hi))


def omega_prime_powers(lo: int, hi: int, omega: int) -> list[PrimePowerId]:
    """The prime powers q in [lo, hi] with omega(q - 1) == omega, ascending.

    An odd q has 2 | q - 1, so a depth-first search over ascending odd primes
    builds every even n <= hi - 1 with exactly omega distinct prime factors
    (`_odd_prime_power_multiples`), and n + 1 is kept, as soon as n is
    built, when it is prime or an odd p**r (r >= 2) of `_higher_powers`.
    The powers of 2 are tested one by one.  The largest prime of n is at
    most (hi - 1) // primorial(omega - 1), which bounds the prime list
    (omega = 1 needs none).

    So the cost follows hi, not the width of [lo, hi]: every n <= hi - 1
    with omega primes is built, and the prime list grows with hi.  That
    suits the survey, which asks only for windows of its row, with hi at
    most the row's q_max; a narrow window far beyond that is better served
    by filtering `iter_prime_powers`.
    """
    lo = max(lo, 2)
    # n >= primorial(omega) >= 2**omega for every n = q - 1 with omega primes
    if hi < lo or not 0 <= omega < (hi - 1).bit_length():
        return []
    top = hi - 1
    out = [
        PrimePowerId(q=1 << r, p=2, r=r)
        for r in range((lo - 1).bit_length(), hi.bit_length())
        if len(factorize((1 << r) - 1)) == omega
    ]
    if omega == 0:
        return out
    # omega = 1 places no odd prime
    odd = primes_up_to(top // primorial(omega - 1) if omega > 1 else 0).tolist()[1:]
    higher = _higher_powers(lo, hi)
    n = 2
    while n * 3 ** (omega - 1) <= top:
        for m in _odd_prime_power_multiples(n, odd, 0, omega - 1, top):
            q = m + 1
            if q < lo:
                continue
            if q in higher:
                p, r = higher[q]
                out.append(PrimePowerId(q=q, p=p, r=r))
            elif is_prime(q):
                out.append(PrimePowerId(q=q, p=q, r=1))
        n *= 2
    out.sort(key=lambda pp: pp.q)
    return out


def _odd_prime_power_multiples(n: int, primes: list[int], i: int, k: int, top: int):
    """Yield every n * m <= top where m is a product of powers of exactly k
    distinct primes from primes[i:] (ascending)."""
    if k == 0:
        yield n
        return
    for j in range(i, len(primes)):
        p = primes[j]
        # the k primes still to place are each at least p
        if n * p**k > top:
            break
        m = n * p
        while m * p ** (k - 1) <= top:
            yield from _odd_prime_power_multiples(m, primes, j + 1, k - 1, top)
            m *= p


# --------------------------------------------------------------------------
# exact square roots

def sqrt_bounds(q: int) -> tuple[Fraction, Fraction]:
    """A tight rational enclosure lo <= sqrt(q) <= hi with hi - lo = 2**-40."""
    s = isqrt(q << 80)
    return Fraction(s, 1 << 40), Fraction(s + 1, 1 << 40)
