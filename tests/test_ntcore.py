"""Exact arithmetic layer, cross-checked against sympy."""

import random
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from uvprim import ntcore as nt
from uvprim.errors import NotAPrimePowerError


# --------------------------------------------------------------------- primes

def test_primes_up_to_matches_sympy():
    expected = list(sympy.primerange(2, 10_001))
    assert list(nt.primes_up_to(10_000)) == expected
    assert list(nt.primes_up_to(1)) == []
    assert list(nt.primes_up_to(2)) == [2]


def test_first_primes_and_primorial():
    assert nt.first_primes(0) == []
    assert nt.first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]
    # auto_threshold asks for up to 300 primes; the bound doubles from 16
    for k in (1, 6, 7, 300):
        assert nt.first_primes(k) == [sympy.prime(i) for i in range(1, k + 1)]
    assert nt.primorial(0) == 1
    assert nt.primorial(8) == 9_699_690
    assert nt.primorial(17) == sympy.primorial(17)


@given(st.integers(min_value=-3, max_value=50_000))
def test_is_prime_matches_sympy(n):
    assert nt.is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2,3,5,7
        3825123056546413051,  # smallest spsp to the first 9 prime bases
        2**61 - 1,  # Mersenne prime
        10**18 + 9,
    ],
)
def test_is_prime_hard_cases(n):
    assert nt.is_prime(n) == sympy.isprime(n)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def test_is_prime_keeps_base_7_below_the_cut_over():
    # 25,326,001 = 2251 * 11251 passes bases 2, 3 and 5, so below
    # 3,215,031,751 the four-base test needs base 7 to reject it
    n = 25_326_001
    assert n == 2251 * 11251 and n < nt._MR_SMALL_LIMIT
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5))
    assert not _strong_probable_prime(n, 7)
    assert nt.is_prime(n) is False


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_matches_sympy(n):
    fac = nt.factorize(n)
    assert dict(fac) == sympy.factorint(n)
    assert prod(p**e for p, e in fac) == n
    assert list(fac) == sorted(fac)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert nt.factorize(p * q) == ((p, 1), (q, 1))
    with pytest.raises(ValueError):
        nt.factorize(0)


# around the last trial prime 65521 = 2**16 - 15
_NEAR_TRIAL_END = (65497, 65519, 65521, 65537, 65539)


@pytest.mark.parametrize(
    "n",
    [1, 2, 4, 65521**2, 65521 * 65537, 65537**2, 2**61 - 1, (2**31 - 1) ** 2, 15 * 65537 * (2**61 - 1)]
    + [p * p for p in _NEAR_TRIAL_END]
    + [p * r for i, p in enumerate(_NEAR_TRIAL_END) for r in _NEAR_TRIAL_END[i + 1 :]],
)
def test_factorize_at_the_end_of_trial_division(n):
    fac = nt.factorize(n)
    assert dict(fac) == sympy.factorint(n)
    assert list(fac) == sorted(fac)


@pytest.mark.parametrize("n", [65521 * 65519 * 2, 65519**2, 65521**2 * 7, 2**40 * 3**20, nt.primorial(12), 65521])
def test_factorize_skips_miller_rabin_below_2_16(n, monkeypatch):
    """A cofactor left when p*p passes it is prime; Miller-Rabin runs only
    for what is left after every trial prime."""

    def no_is_prime(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr(nt, "is_prime", no_is_prime)
    assert dict(nt.factorize(n)) == sympy.factorint(n)


# ------------------------------------------------------------------- profiles

def test_profile_frozen_values():
    pr = nt.profile(120)
    assert pr.factors == ((2, 3), (3, 1), (5, 1))
    assert pr.primes == (2, 3, 5)
    assert (pr.omega, pr.radical, pr.w, pr.phi) == (3, 30, 8, 32)
    assert pr.theta == Fraction(32, 120)
    # l=2 contributes a factor of exactly 1 to tau
    assert pr.tau == Fraction(3, 4) * Fraction(13, 16)


def test_profile_of_one():
    pr = nt.profile(1)
    assert (pr.omega, pr.radical, pr.w, pr.phi) == (0, 1, 1, 1)
    assert pr.theta == 1 and pr.tau == 1


@given(st.integers(min_value=1, max_value=10**6))
def test_profile_invariants(m):
    pr = nt.profile(m)
    assert pr.phi == sympy.totient(m)
    assert m % pr.radical == 0
    assert pr.w == 2**pr.omega
    assert pr.theta == Fraction(pr.phi, m)
    # theta and tau only see the radical
    assert pr.theta == nt.profile(pr.radical).theta
    assert pr.tau == nt.profile(pr.radical).tau
    # the integer terms against the Fraction definitions
    a, b, c = nt.density_terms(pr.primes)
    assert Fraction(a, b) == pr.theta == prod((1 - Fraction(1, p) for p in pr.primes), start=Fraction(1))
    assert Fraction(c, a * a) == pr.tau
    assert pr.tau == prod(
        (1 - Fraction(1, p - 1) + Fraction(1, (p - 1) ** 2) for p in pr.primes), start=Fraction(1)
    )


@given(st.integers(min_value=1, max_value=100_000))
def test_squarefree_divisors(m):
    divs = nt.squarefree_divisors(m)
    assert len(divs) == 2 ** nt.profile(m).omega
    assert divs == sorted(divs)
    assert all(m % d == 0 and sympy.factorint(d).values() for d in divs[1:])
    assert all(max(sympy.factorint(d).values(), default=1) == 1 for d in divs)


def test_squarefree_divisors_frozen():
    assert nt.squarefree_divisors(120) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_coprime_mask_matches_gcd():
    """The sieve over the primes of d marks exactly the x in [0, n) with
    gcd(x, d) = 1, for every n <= 3000 and every divisor d of n (d = 1 is
    the empty prime tuple)."""
    assert nt.coprime_mask(1, ()).tolist() == [True]
    assert nt.coprime_mask(7, ()).all()
    for n in range(1, 3001):
        # gcd(x, d) = gcd(gcd(x, n), d) for d | n, so tabulate on gcd(x, n)
        g = np.array([gcd(x, n) for x in range(n)])
        divisors = sympy.divisors(n)
        for d in divisors:
            coprime = np.zeros(n + 1, dtype=bool)
            coprime[divisors] = [gcd(h, d) == 1 for h in divisors]
            assert np.array_equal(nt.coprime_mask(n, nt.profile(d).primes), coprime[g]), (n, d)


def _plain_coprime_sieve(size, primes):
    mask = np.ones(size, dtype=bool)
    for p in primes:
        mask[::p] = False
    return mask


def test_tiled_coprime_mask_equals_the_plain_sieve():
    """The tiled sieve (one period of the smallest primes, product <= 2**16,
    repeated to `size`) equals striking every prime over the whole mask: at
    sizes below, at and around the period, at size 1, for the empty prime
    tuple, for a period of 2 beside a prime too large to tile, and for
    random sizes and prime sets, given in any order."""
    cases = [(1, ()), (1, (2, 3)), (5, ()), (7, (2, 3, 5, 7, 11, 13)), (30030, (2, 3, 5, 7, 11, 13)),
             (30031, (2, 3, 5, 7, 11, 13)), (100_000, (2, 3, 5, 7, 11, 13, 17)), (10, (65_537,)),
             (4_194_352, (2, 262_147)), (200_000, (65_521, 2))]
    rng = random.Random(25)
    pool = list(sympy.primerange(2, 300)) + [65_521, 65_537, 262_147]
    for _ in range(200):
        size = rng.choice([rng.randrange(1, 100), rng.randrange(1, 100_000), rng.randrange(1, 2_000_000)])
        cases.append((size, tuple(rng.sample(pool, rng.randrange(0, 9)))))
    for size, primes in cases:
        assert np.array_equal(nt.coprime_mask(size, primes), _plain_coprime_sieve(size, primes)), (size, primes)


# ---------------------------------------------------------------------- delta

def test_delta_frozen():
    d = nt.delta(2, [7, 11, 13, 17, 19])
    assert d.value == Fraction(50345, 323323)
    assert Fraction(1557, 10000) < d.value < Fraction(1558, 10000)


def test_delta_rejects_duplicates():
    with pytest.raises(ValueError):
        nt.delta(2, [3, 3])


@given(st.sets(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]), min_size=0, max_size=5))
def test_delta_decreases_in_j(primes):
    ps = sorted(primes)
    d2, d3, d4 = (nt.delta(j, ps).value for j in (2, 3, 4))
    assert d2 >= d3 >= d4
    if ps:
        assert d2 > d3 > d4
    assert nt.delta(2, ps).value == 1 - 2 * sum(Fraction(1, p) for p in ps)


# --------------------------------------------------------------- prime powers

def test_prime_power_decompose():
    assert nt.prime_power_decompose(13) == nt.PrimePowerId(13, 13, 1)
    assert nt.prime_power_decompose(8) == nt.PrimePowerId(8, 2, 3)
    assert nt.prime_power_decompose(121) == nt.PrimePowerId(121, 11, 2)
    for bad in (-5, 0, 1, 6, 12, 100):
        with pytest.raises(NotAPrimePowerError):
            nt.prime_power_decompose(bad)


@given(st.integers(min_value=-2, max_value=5000))
def test_prime_power_decompose_matches_naive(q):
    fac = sympy.factorint(q) if q >= 2 else {}
    if len(fac) != 1:
        with pytest.raises(NotAPrimePowerError):
            nt.prime_power_decompose(q)
    else:
        assert nt.prime_power_decompose(q) == nt.PrimePowerId(q, *fac.popitem())


def _naive_prime_powers(lo, hi):
    return [q for q in range(max(lo, 2), hi + 1) if len(sympy.factorint(q)) == 1]


@pytest.mark.parametrize("lo,hi", [(2, 300), (100, 1500), (121, 128), (2040, 2050)])
def test_enumerate_prime_powers(monkeypatch, lo, hi):
    """A plain range is the sieve's prime powers, found without factoring
    any q or q - 1."""

    def no_factorize(n):
        raise AssertionError("the plain range factored a number")

    monkeypatch.setattr(nt, "factorize", no_factorize)
    got = nt.enumerate_prime_powers(lo, hi)
    assert [pp.q for pp in got] == _naive_prime_powers(lo, hi)
    for pp in got:
        assert pp.p ** pp.r == pp.q and sympy.isprime(pp.p)


def test_enumerate_with_omega_filter():
    got = [pp.q for pp in nt.omega_prime_powers(3, 2000, 3)]
    naive = [q for q in _naive_prime_powers(3, 2000) if len(sympy.factorint(q - 1)) == 3]
    assert got == naive


def _check_omega_windows(lo, hi):
    """`omega_prime_powers` for omega = 0..8 on [lo, hi] against the plain
    range filtered by omega(q - 1), and against sympy while hi <= 66,000."""
    plain = nt.enumerate_prime_powers(lo, hi)
    if hi <= 66_000:
        assert plain == [nt.PrimePowerId(q, *sympy.factorint(q).popitem()) for q in _naive_prime_powers(lo, hi)]
    for omega in range(9):
        want = [pp for pp in plain if len(nt.factorize(pp.q - 1)) == omega]
        if hi <= 66_000:
            assert want == [pp for pp in plain if len(sympy.factorint(pp.q - 1)) == omega], omega
        assert nt.omega_prime_powers(lo, hi, omega) == want, omega


@pytest.mark.parametrize(
    "lo,hi",
    [
        (2, 300_000),
        (3, 1025),
        (1000, 66_000),
        (65537, 65537),
        (50, 40),  # empty
        (-5, 1000),  # lo < 2
        ((1 << 21) - 5000, (1 << 21) + 5000),  # straddles a sieve window
        # hi is a prime whose q - 1 meets a pruning bound with equality:
        # 96 = 2**5 * 3 and 2310 = 2 * 3 * 5 * 7 * 11
        (2, 97),
        (2, 2311),
    ],
)
def test_enumerate_with_omega_equals_the_sieve(lo, hi):
    """The factorisation search equals the sieve's prime powers filtered by
    omega(q - 1), on edge windows."""
    _check_omega_windows(lo, hi)


def _random_windows(seed, count):
    """`count` windows with hi and the width log-uniform, hi up to 2 * 10**6."""
    rng = random.Random(seed)
    for _ in range(count):
        hi = int(10 ** rng.uniform(1, 6.3))
        yield hi - int(10 ** rng.uniform(0, 4.5)), hi


@pytest.mark.parametrize("lo,hi", list(_random_windows(2024, 10)))
def test_omega_prime_powers_equals_the_filter_on_random_windows(lo, hi):
    _check_omega_windows(lo, hi)


def test_enumerate_omega_one_to_2_40():
    # q - 1 a prime power: Fermat primes, 9, and 2**r with 2**r - 1 a
    # Mersenne prime; sieving that range would not finish
    got = [pp.q for pp in nt.omega_prime_powers(3, 2**40, 1)]
    assert got == [3, 4, 5, 8, 9, 17, 32, 128, 257, 8192, 65537, 131072, 524288, 2147483648]
    assert all(len(sympy.factorint(q)) == len(sympy.factorint(q - 1)) == 1 for q in got)


def test_iter_prime_powers_order_and_omega():
    rows = list(nt.iter_prime_powers(2, 1000))
    qs = [pp.q for pp in rows]
    assert qs == sorted(qs) == _naive_prime_powers(2, 1000)
    for pp in rows:
        assert pp.p**pp.r == pp.q


def test_iter_prime_powers_across_window_boundary():
    # the sieve works in fixed-size windows; straddle the first boundary
    lo, hi = (1 << 21) - 40, (1 << 21) + 60
    got = [pp.q for pp in nt.iter_prime_powers(lo, hi)]
    assert got == _naive_prime_powers(lo, hi)


def test_iter_prime_powers_empty_range():
    assert list(nt.iter_prime_powers(50, 40)) == []


# --------------------------------------------------------------- sqrt bounds

@given(st.integers(min_value=1, max_value=10**12))
def test_sqrt_bounds_enclose(q):
    lo, hi = nt.sqrt_bounds(q)
    assert lo * lo <= q <= hi * hi
    assert hi - lo == Fraction(1, 1 << 40)


def test_sqrt_bounds_exact_on_squares():
    lo, hi = nt.sqrt_bounds(49)
    assert lo == 7
