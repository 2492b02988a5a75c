"""Field construction, packed-int arithmetic, and discrete logs.

The canonical (modulus, gamma) of every field up to 1000 is checked against
an oracle that shares no package code.  The Pohlig-Hellman log is checked
against the dense table on a spread of prime fields and extensions;
arithmetic is checked against its defining identities rather than a second
implementation.
"""

import hashlib
import itertools
import random
import tracemalloc
from math import gcd, isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from uvprim import field as fd
from uvprim import ntcore as nt
from uvprim import verify as vf
from uvprim.errors import (
    InvalidDivisorError,
    LogTableTooLargeError,
    NotAPrimePowerError,
)

FIELD_POOL = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 31, 32, 49, 64, 81, 121, 125]
# every field the table tests build, from q = 2 to extensions past 2**20;
# 2**12 .. 2**14 and the primes 16381, 16411 put q - 1 on either side of
# the block sizes where the exp array stops doubling; the primes 32749 and
# 32771 do the same for (q - 1)/2, where the prime-field build stops
TABLE_QS = sorted(
    {2, *FIELD_POOL, 961, 2039, 2311, 3**7, 2**12, 2**13, 2**14, 16381, 16411, 32749, 32771, 65537, 1025641, 3**13, 5**8, 2**20}
)

fields = st.sampled_from(FIELD_POOL).map(fd.build_field)


# --------------------------------------------------------------- construction

def test_canonical_prime_fields():
    F = fd.build_field(13)
    assert F.modulus is None
    assert F.gamma == 2  # least primitive root
    assert fd.build_field(2).gamma == 1
    assert fd.build_field(7).gamma == 3


def test_canonical_extension_moduli():
    # first monic polynomial (lex on high-to-low coefficients) whose root
    # generates the whole multiplicative group
    F9 = fd.build_field(9)
    assert F9.modulus == (2, 1, 1)  # x^2 + x + 2, little-endian
    assert F9.gamma == 3  # the class of x, packed
    F4 = fd.build_field(4)
    assert F4.modulus == (1, 1, 1)
    assert F4.gamma == 2


def _x_order(f: list[int], p: int, bound: int) -> int | None:
    """The multiplicative order of x modulo the monic f (little-endian) over
    F_p, by stepping v -> x v with a shift and one reduction; None if v does
    not come back to 1 within `bound` steps."""
    r = len(f) - 1
    one = [1] + [0] * (r - 1)
    v = one
    for k in range(1, bound + 1):
        top = v[-1]
        v = [(c - top * fc) % p for c, fc in zip([0, *v[:-1]], f)]
        if v == one:
            return k
    return None


def _canonical_oracle(p: int, r: int) -> tuple[tuple[int, ...] | None, int]:
    """(modulus, gamma) of the module docstring's canonical F_(p^r), found
    without the package: the least primitive root for r = 1, else the first
    monic f, read from x**(r-1) down to the constant term in lexicographic
    order, whose x has order p**r - 1 (gamma is x, packed as p)."""
    if r == 1:
        return None, sympy.primitive_root(p)
    n = p**r - 1
    for top in itertools.product(range(p), repeat=r):
        f = [*reversed(top), 1]
        if _x_order(f, p, n) == n:
            return tuple(f), p
    raise AssertionError((p, r))


def test_canonical_fields_match_an_independent_oracle():
    for q in range(2, 1001):
        fac = sympy.factorint(q)
        if len(fac) == 1:
            ((p, r),) = fac.items()
            F = fd.build_field(q)
            assert (F.modulus, F.gamma) == _canonical_oracle(p, r), q


def test_canonical_fields_to_20000_frozen():
    """(modulus, gamma) of every field up to 20000, hashed; frozen while
    build_field still order-tested the moduli g(x^d) with d > 1."""
    digest = hashlib.sha256()
    for pp in nt.enumerate_prime_powers(2, 20_000):
        F = fd.build_field(pp.q)
        digest.update(repr((pp.q, F.modulus, F.gamma)).encode())
    assert digest.hexdigest() == "1b2d85e53fb91ebdb603edabbe0dc7209801b695164892ffe7d14368bd613b01"


@pytest.mark.parametrize("q,modulus", [(1009**2, (11, 1, 1)), (1429**2, (33, 1, 1))])
def test_build_field_skips_every_x_squared_plus_c(q, modulus, monkeypatch):
    """At r = 2 no modulus x^2 + c is order-tested: x^2 = -c lies in F_p, so
    the order of x divides 2(p - 1).  The first hit is unchanged."""
    tested = []
    power = fd.power

    def spy(F, a, n):
        tested.append(F.modulus)
        return power(F, a, n)

    monkeypatch.setattr(fd, "power", spy)
    F = fd.build_field.__wrapped__(q)  # past the cache
    assert (F.modulus, F.gamma) == (modulus, isqrt(q))
    assert tested and all(f[1] != 0 for f in tested)


def test_build_field_rejects_non_prime_powers():
    for bad in (1, 6, 12, 100):
        with pytest.raises(NotAPrimePowerError):
            fd.build_field(bad)


@pytest.mark.parametrize("q", FIELD_POOL)
def test_gamma_is_primitive(q):
    F = fd.build_field(q)
    assert fd.is_primitive(F, F.gamma)


# ----------------------------------------------------------------- arithmetic

def test_extension_arithmetic_by_hand():
    F = fd.build_field(9)
    x = F.gamma  # the class of x; packed as 3
    assert fd.add(F, x, x) == 6  # 2x
    assert fd.mul(F, x, x) == 7  # x^2 = -x - 2 = 2x + 1
    assert fd.power(F, x, 8) == 1
    assert fd.power(F, x, 4) == 2  # the unique element of order 2 is -1


@given(fields, st.data())
def test_field_axioms(F, data):
    q = F.q
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert fd.add(F, a, b) == fd.add(F, b, a)
    assert fd.mul(F, a, b) == fd.mul(F, b, a)
    assert fd.add(F, fd.add(F, a, b), c) == fd.add(F, a, fd.add(F, b, c))
    assert fd.mul(F, fd.mul(F, a, b), c) == fd.mul(F, a, fd.mul(F, b, c))
    assert fd.mul(F, a, fd.add(F, b, c)) == fd.add(F, fd.mul(F, a, b), fd.mul(F, a, c))
    assert fd.add(F, a, fd.neg(F, a)) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 81, 125, 2311, 3**7, 2**12, 5**5, 7**4])
def test_add_is_digitwise_on_ints_and_arrays(q):
    """On every pair of elements (a sample of 4,096 pairs above q = 128),
    the int sum is the sum of the coefficient tuples mod p, and one call on
    the int32 arrays gives those sums elementwise."""
    F = fd.build_field(q)
    if q <= 128:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        a, b = np.random.default_rng(q).integers(0, q, (2, 4096))
    a, b = a.astype(np.int32), b.astype(np.int32)
    want = [
        fd.from_coeffs(F, [x + y for x, y in zip(fd.to_coeffs(F, int(ai)), fd.to_coeffs(F, int(bi)))])
        for ai, bi in zip(a, b)
    ]
    assert [fd.add(F, int(ai), int(bi)) for ai, bi in zip(a, b)] == want
    assert fd.add(F, a, b).tolist() == want


@given(fields, st.data())
def test_inverse_and_power(F, data):
    a = data.draw(st.integers(1, F.q - 1))
    assert fd.mul(F, a, fd.inv(F, a)) == 1
    assert fd.power(F, a, F.q - 1) == 1  # Lagrange
    assert fd.power(F, a, -1) == fd.inv(F, a)
    assert fd.power(F, a, 0) == 1
    k, acc = data.draw(st.integers(0, 2 * F.q)), 1
    for _ in range(k):
        acc = fd.mul(F, acc, a)
    assert fd.power(F, a, k) == acc


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        fd.inv(fd.build_field(7), 0)


@given(fields, st.data())
def test_coeff_packing_round_trip(F, data):
    a = data.draw(st.integers(0, F.q - 1))
    cs = fd.to_coeffs(F, a)
    assert len(cs) == F.r and all(0 <= c < F.p for c in cs)
    assert fd.from_coeffs(F, cs) == a


def test_is_square_counts():
    F = fd.build_field(13)
    squares = {a for a in range(13) if fd.is_square(F, a)}
    assert squares == {0, 1, 3, 4, 9, 10, 12}
    F64 = fd.build_field(64)
    assert all(fd.is_square(F64, a) for a in range(64))


# ------------------------------------------------------- multiplicative order

def test_primitive_elements_of_f13():
    F = fd.build_field(13)
    assert fd.primitive_elements(F) == [2, 6, 11, 7]


@pytest.mark.parametrize("q", [7, 9, 13, 16, 25, 31])
def test_primitive_elements_pair_inverses_head_to_tail(q):
    F = fd.build_field(q)
    prim = fd.primitive_elements(F)
    assert len(prim) == F.q_minus_1.phi
    for k in range(len(prim)):
        assert fd.inv(F, prim[k]) == prim[-1 - k]


def test_primitive_elements_read_no_log_table(monkeypatch):
    def refuse(F):
        raise AssertionError("primitive_elements built a log table")

    monkeypatch.setattr(fd, "log_table", refuse)
    F = fd.build_field(81)
    assert fd.primitive_elements(F) == [int(a) for m, a in enumerate(fd.exp_table(F)) if gcd(m, 80) == 1]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 31, 64, 211, 961])
def test_primitive_elements_in_ascending_exponent_order(q):
    F = fd.build_field(q)
    n, exp = q - 1, fd.log_table(F).exp
    assert fd.primitive_elements(F) == [int(exp[m]) for m in range(n) if gcd(m, n) == 1]


@given(fields, st.data())
def test_is_primitive_iff_coprime_log(F, data):
    a = data.draw(st.integers(1, F.q - 1))
    n = F.q - 1
    t = fd.log_table(F)
    assert fd.is_primitive(F, a) == (gcd(int(t.log[a]), n) == 1)
    assert not fd.is_primitive(F, 0)


def test_e_free_depends_only_on_radical():
    F = fd.build_field(13)
    for a in range(1, 13):
        assert fd.is_e_free(F, a, 4) == fd.is_e_free(F, a, 2)
        assert fd.is_e_free(F, a, 12) == fd.is_e_free(F, a, 6)
        assert fd.is_e_free(F, a, 1)  # 1-freeness is vacuous


def test_e_free_error_paths():
    F = fd.build_field(13)
    with pytest.raises(InvalidDivisorError):
        fd.is_e_free(F, 2, 5)  # 5 does not divide 12
    with pytest.raises(InvalidDivisorError):
        fd.is_e_free(F, 2, 0)
    with pytest.raises(ValueError):
        fd.is_e_free(F, 0, 2)


@given(fields, st.data())
def test_e_free_via_log(F, data):
    """a is e-free exactly when gcd(log a, Rad(e)) = 1 -- the exponent-domain
    form every fast path in the package relies on."""
    n = F.q - 1
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    e = data.draw(st.sampled_from(divisors))
    a = data.draw(st.integers(1, n))
    from uvprim.ntcore import profile

    rad = profile(e).radical
    assert fd.is_e_free(F, a, e) == (gcd(int(fd.log_table(F).log[a]), rad) == 1)


# ----------------------------------------------------------------- logarithms

@pytest.mark.parametrize("q", [13, 9, 64, 121, 125, 2039])
def test_discrete_log_agrees_with_table(q):
    F = fd.build_field(q)
    t = fd.log_table(F)
    step = max(1, (q - 1) // 64)
    for a in range(1, q, step):
        assert fd.discrete_log(F, a) == int(t.log[a])


@pytest.mark.parametrize("q", [3**13, 5**8, 2**20, 1025641])
def test_discrete_log_agrees_with_large_tables(q):
    F = fd.build_field(q)
    t = fd.log_table(F)
    rng = random.Random(q)
    for a in [1, q - 1, *(rng.randrange(1, q) for _ in range(24))]:
        assert fd.discrete_log(F, a) == int(t.log[a])


@pytest.mark.parametrize("q", TABLE_QS)
def test_tables_are_int32_and_match_the_int64_build(q):
    """exp, log and `verify`'s add-one table L1 against one int64 build of
    the field."""
    F = fd.build_field(q)
    exp, log, L1 = helpers.int64_tables(F)
    T, t = fd.log_table(F), vf._uv_tables(F)
    assert T.exp.dtype == T.log.dtype == t.L1.dtype == np.int32
    assert np.array_equal(T.exp, exp)
    assert T.log.size == q and T.log[0] == -1
    assert np.array_equal(T.log, log)
    assert np.array_equal(t.L1, L1)


@pytest.mark.parametrize("q", [2, 31, 3**4, 2311])
def test_log_table_holds_the_exp_table(q):
    # one exp array per field, built once and kept by the log table's cache
    F = fd.build_field(q)
    T = fd.log_table(F)
    assert fd.log_table(F).exp is T.exp and np.array_equal(T.exp, fd.exp_table(F))


@pytest.mark.parametrize("q", [3, 5, 32_749, 32_771, 1_025_641])
def test_exp_table_is_the_half_array_then_its_negation(q):
    """One builder fills both: for an odd prime q, `exp_table` is
    `exp_half` followed by q - `exp_half`, as gamma**((q - 1)/2) = -1."""
    F = fd.build_field(q)
    half = fd.exp_half(F)
    assert half.dtype == np.int32 and half.size == (q - 1) // 2
    assert np.array_equal(fd.exp_table(F), np.concatenate([half, q - half]))


@pytest.mark.parametrize("q", [2, 9, 64])
def test_exp_half_is_for_odd_prime_fields_only(q):
    with pytest.raises(ValueError):
        fd.exp_half(fd.build_field(q))


def test_log_table_shape():
    F = fd.build_field(9)
    t = fd.log_table(F)
    assert t.log.size == 9 and t.log[0] == -1
    assert list(t.exp[: 3]) == [1, 3, 7]
    # exp and log invert each other on nonzero elements
    assert np.array_equal(t.log[t.exp], np.arange(8))


def test_log_table_cap():
    F = fd.build_field(67_108_879)  # the first prime above the cap 2**26
    tracemalloc.start()
    try:
        with pytest.raises(LogTableTooLargeError):
            fd.log_table(F)
        with pytest.raises(LogTableTooLargeError):
            fd.exp_table(F)
        with pytest.raises(LogTableTooLargeError):
            fd.exp_half(F)
        # refused before any table is allocated (one would take 256 MiB)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_discrete_log_of_zero_raises():
    with pytest.raises(ValueError):
        fd.discrete_log(fd.build_field(9), 0)


@pytest.mark.parametrize("name", ["discrete_log", "is_primitive", "is_e_free"])
@pytest.mark.parametrize("q,a", [(31, 40), (31, 31), (31, -1), (9, 10), (9, -3)])
def test_element_functions_reject_elements_outside_the_field(name, q, a):
    """An int outside [0, q) is no packed element; reading it mod q (or
    truncating its base-p digits) would answer for a different element:
    the log of 40 in F_31 came back as the log of 9."""
    extra = (2,) if name == "is_e_free" else ()
    with pytest.raises(ValueError, match=rf"\[1, {q}\)"):
        getattr(fd, name)(fd.build_field(q), a, *extra)


def test_element_functions_keep_their_handling_of_zero():
    F = fd.build_field(31)
    assert not fd.is_primitive(F, 0)
    for call in (fd.discrete_log, lambda F, a: fd.is_e_free(F, a, 2)):
        with pytest.raises(ValueError):
            call(F, 0)
    assert fd.is_primitive(F, 3) and not fd.is_primitive(F, 30)  # 3 generates F_31


@given(fields, st.data())
def test_log_is_a_group_homomorphism(F, data):
    n = F.q - 1
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    t = fd.log_table(F)
    assert int(t.log[t.exp[i]]) == i
    prod = fd.mul(F, int(t.exp[i]), int(t.exp[j]))
    assert int(t.log[prod]) == (i + j) % n
