"""Finite fields F_q with a fixed multiplicative generator.

Elements are plain ints in ``[0, q)``.  For a prime field this is the residue
itself; for q = p**r an element sum(c_i * x**i) is packed little-endian in
base p as sum(c_i * p**i).  The packed form is what every report, table and
CLI surface uses, so an element prints the same everywhere.  The element rule
(``check_nonzero``: a in [1, q)) and the divisor rule (``check_divisors``: e
divides q - 1) live here alone and take the built field, so a q that is no
prime power fails first, whatever u, v and e.

Each field fixes one generator ``gamma`` of the multiplicative group:

* r = 1: the least primitive root mod p (gamma = 1 for q = 2);
* r >= 2: the class of x in F_p[x]/(f), where f is the canonical modulus --
  the first monic polynomial of degree r, in lexicographic order on the
  coefficient tuple read from x**(r-1) down to the constant term, whose root x
  has multiplicative order q - 1.  (That order forces f irreducible, so a
  single order test does both jobs: x**(q-1) = 1 by ``power``, then
  ``is_primitive``.  The same two tests pick the least primitive root.)

Discrete logs are always taken to base gamma.  ``exp_table`` materializes
the exp array and ``log_table`` the log array over it (numpy, capped at
2**26 entries); ``discrete_log`` is independent of the tables and works by
Pohlig-Hellman with baby-step giant-step, which the tests cross-check
against the tables.  The exp array grows by doubling from exp[0] = 1: the
block exp[a : a + m] is the block before it times gamma**m, with m = a
until m reaches a fixed block size.  For r >= 2 that product is an r x r
matrix over F_p acting on base-p digit vectors, so no element is built
by a scalar loop.  Each block is reduced by floor division, as t - (t //
q) * q for prime fields and t - floor(t / p) * p on the float64 digits,
since numpy divides an array by a scalar several times faster than it
takes ``%``.  For an odd prime q the doubling stops at half the array: as
gamma**((q - 1)/2) = -1, the second half is exp[x + (q - 1)/2] =
q - exp[x], one subtraction.  ``exp_half`` is that first half alone,
built by the same doubling and not cached.  An extension field negates
digit by digit, so there the doubling runs to the end.

Every per-element table is int32: below the cap every exponent and every
packed element fits.  The exact count ``verify.count_single_free`` reads
``exp_half`` alone in an odd prime field: 2 bytes per element here, plus
in ``verify`` a byte mask over the nonzero e2-free elements and a byte
mask over the exponents per distinct divisor argument, each over half of
them when x -> x + (q - 1)/2 keeps e1- and e2-freeness, else over all.
For M(q, u, v) that holds iff q = 1 mod 4 (for q = 3 mod 4, -1 is a
non-square, so minus a primitive element is not primitive): 3 bytes per
element then, else 4 (3.2 and 4.4 measured at 31,651,621 and 18,888,871,
slice temporaries included), and at most 5 with divisor arguments.  An
extension field and F_2 read the whole exp array: 6 bytes per element,
at most 7, plus slice temporaries (in all 8.7 at 3**15, 24.6 at 3**13).
The membership checks and the other counts read all of a field's tables,
13 bytes per element once built -- exp and log here, 4 bytes each; the
add-one log table L1 (4 bytes) and the primitive mask (1 byte) in
``verify`` -- plus 8 bytes per primitive exponent (``verify``'s
``prim_m``) and 2 Rad(q - 1) bits (its ``nonunits_R``).  That is at most
17.25 bytes per element for odd q and 21.25 for q = 2**k; 14.5 at
q = 31,651,621 (438 MiB) and 18.6 at the cap q = 2**26 (1.25 GB).  The
tables are filled in slices of ``TABLE_SLICE`` entries, so no build holds
an n-sized temporary.

Only one field's tables stay cached: ``log_table``, which holds the exp
array, and ``verify``'s tables each keep the last field asked for, since
no command goes back to a field it has left; ``exp_table`` and
``exp_half`` build afresh.  ``lru_cache`` drops the old entry only
after building the new one, so a switch between fields holds at most two
fields' tables: about 2.5 GB at the cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import InvalidDivisorError, InvalidElementError, LogTableTooLargeError
from .ntcore import ArithmeticProfile, PrimePowerId, coprime_mask, prime_power_decompose, profile

__all__ = [
    "LOG_TABLE_CAP",
    "TABLE_SLICE",
    "FieldSpec",
    "LogTable",
    "add",
    "build_field",
    "check_divisors",
    "check_nonzero",
    "discrete_log",
    "exp_half",
    "exp_table",
    "from_coeffs",
    "inv",
    "is_e_free",
    "is_primitive",
    "is_square",
    "log_table",
    "mul",
    "neg",
    "power",
    "primitive_elements",
    "to_coeffs",
]

LOG_TABLE_CAP = 1 << 26
TABLE_SLICE = 1 << 20  # entries per slice of a table fill
_EXP_BLOCK = 1 << 14  # powers of gamma per vectorised step, prime fields
_EXP_BLOCK_EXT = 1 << 12  # the same for extension fields


@dataclass(frozen=True)
class FieldSpec:
    """A concrete F_q: prime-power id, modulus (r >= 2 only), generator, and
    the arithmetic profile of q - 1."""

    id: PrimePowerId
    modulus: tuple[int, ...] | None  # little-endian monic coefficients, length r + 1
    gamma: int
    q_minus_1: ArithmeticProfile

    @property
    def q(self) -> int:
        return self.id.q

    @property
    def p(self) -> int:
        return self.id.p

    @property
    def r(self) -> int:
        return self.id.r


# --------------------------------------------------------------------------
# construction

def _poly_mul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    # product of coefficient lists a, b reduced mod the monic f (degree r), mod p
    r = len(f) - 1
    t = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                t[i + j] = (t[i + j] + ai * bj) % p
    for k in range(len(t) - 1, r - 1, -1):
        d = t[k]
        if d:
            t[k] = 0
            for i in range(r):
                t[k - r + i] = (t[k - r + i] - d * f[i]) % p
    return t[:r]


@lru_cache(maxsize=256)
def build_field(q: int) -> FieldSpec:
    """Construct F_q (raises NotAPrimePowerError for bad q): the first
    candidate, in the canonical order of the module docstring, whose gamma
    has order q - 1 by `power` and `is_primitive`."""
    ppid = prime_power_decompose(q)
    p, r = ppid.p, ppid.r
    prof = profile(q - 1)
    if r == 1:
        candidates = (FieldSpec(ppid, None, g, prof) for g in range(1, p))
    else:
        # top = (c_{r-1}, ..., c_0); constant term 0 would make x a zero divisor
        moduli = ((*reversed(top), 1) for top in itertools.product(range(p), repeat=r) if top[-1] != 0)
        # f = g(x^d) with d > 1 (d divides every exponent of f) puts x^d in
        # F_{p^(r/d)}, so the order of x divides d (p^(r/d) - 1) < q - 1
        candidates = (FieldSpec(ppid, f, p, prof) for f in moduli if gcd(*(i for i, c in enumerate(f) if c)) == 1)
    # gamma**(q-1) = 1 first: modulo a reducible f, x can pass every
    # prime-divisor test of is_primitive without having order q - 1
    return next(F for F in candidates if power(F, F.gamma, q - 1) == 1 and is_primitive(F, F.gamma))


# --------------------------------------------------------------------------
# element arithmetic (packed ints)

def check_nonzero(F: FieldSpec, **elements: int) -> None:
    """Raise InvalidElementError unless each named element is a nonzero
    element of F, i.e. an int in [1, q)."""
    for name, a in elements.items():
        if not 0 < a < F.q:
            raise InvalidElementError(f"{name}={a} is not a nonzero element of F_{F.q}: it must lie in [1, {F.q})")


def check_divisors(F: FieldSpec, *es: int | None) -> tuple[int | None, ...]:
    """`es` itself, once each e in it (None means q - 1) divides q - 1."""
    for e in es:
        if e is not None and (e < 1 or (F.q - 1) % e):
            raise InvalidDivisorError(f"e={e} does not divide q-1={F.q - 1}")
    return es


def to_coeffs(F: FieldSpec, a: int) -> tuple[int, ...]:
    """Unpack a into its r base-p digits (c_0, ..., c_{r-1})."""
    p = F.p
    out = []
    for _ in range(F.r):
        a, c = divmod(a, p)
        out.append(c)
    return tuple(out)


def from_coeffs(F: FieldSpec, coeffs) -> int:
    p = F.p
    a = 0
    for c in reversed(list(coeffs)):
        a = a * p + c % p
    return a


def add(F: FieldSpec, a, b):
    """a + b for packed elements a, b: ints, or numpy int arrays added
    elementwise.  For r >= 2 the base-p digits add mod p with no carries,
    which in characteristic 2 is XOR.  For odd p that is the integer sum
    less p**(i+1) for each digit i whose digits sum to p or more; with
    a_i = a // p**i, that digit sum is a_i + b_i - p (a_(i+1) + b_(i+1)).
    (Floor division by a scalar is several times faster in numpy than %.)"""
    p = F.p
    if F.r == 1:
        return (a + b) % p
    if p == 2:
        return a ^ b
    s = ab = a + b
    pw = p
    for _ in range(F.r):
        a, b = a // p, b // p
        t = a + b
        s = s - (ab >= p * t + p) * pw
        ab, pw = t, pw * p
    return s


def neg(F: FieldSpec, a: int) -> int:
    if F.r == 1:
        return -a % F.p
    return from_coeffs(F, (-x for x in to_coeffs(F, a)))


def mul(F: FieldSpec, a: int, b: int) -> int:
    if F.r == 1:
        return a * b % F.p
    t = _poly_mul_mod(list(to_coeffs(F, a)), list(to_coeffs(F, b)), list(F.modulus), F.p)
    return from_coeffs(F, t)


def power(F: FieldSpec, a: int, n: int) -> int:
    """a**n; a negative n raises inv(a) to -n.  For r >= 2, a is unpacked
    once, squared and multiplied as a coefficient list, and packed once."""
    if n < 0:
        a, n = inv(F, a), -n
    if F.r == 1:
        return pow(a, n, F.p)
    f, p = list(F.modulus), F.p
    base, acc = list(to_coeffs(F, a)), [1]
    while n:
        if n & 1:
            acc = _poly_mul_mod(acc, base, f, p)
        base = _poly_mul_mod(base, base, f, p)
        n >>= 1
    return from_coeffs(F, acc)


def inv(F: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{F.q}")
    if F.r == 1:
        return pow(a, -1, F.p)
    return power(F, a, F.q - 2)


def is_square(F: FieldSpec, a: int) -> bool:
    """Whether a is a square in F_q (0 counts; in characteristic 2 everything is)."""
    if a == 0 or F.p == 2:
        return True
    return power(F, a, (F.q - 1) // 2) == 1


# --------------------------------------------------------------------------
# multiplicative structure

def is_e_free(F: FieldSpec, a: int, e: int) -> bool:
    """a != 0 is e-free: no prime l | e allows writing a as an l-th power.

    Requires e | q - 1 and a in [1, q).  Only Rad(e) matters, and
    1-freeness is vacuous.
    """
    check_divisors(F, e)
    check_nonzero(F, a=a)  # freeness is only defined for nonzero elements
    return all(power(F, a, (F.q - 1) // l) != 1 for l in profile(e).primes)


def is_primitive(F: FieldSpec, a: int) -> bool:
    """a generates the multiplicative group, i.e. a is (q-1)-free; 0 never
    does.  Raises ValueError unless a lies in [0, q)."""
    check_nonzero(F, a=a or 1)
    return a != 0 and is_e_free(F, a, F.q - 1)


def primitive_elements(F: FieldSpec) -> list[int]:
    """All phi(q-1) primitive elements, as gamma**m for ascending m coprime
    to q - 1.  This ordering pairs inverses head-to-tail: element k from the
    front is the inverse of element k from the back."""
    return exp_table(F)[coprime_mask(F.q - 1, F.q_minus_1.primes)].tolist()


# --------------------------------------------------------------------------
# logarithms

@dataclass
class LogTable:
    """Dense base-gamma int32 exp/log arrays, inverse to each other:
    exp[j] = gamma**j for 0 <= j < q-1, log[a] = j with exp[j] = a for
    nonzero a, and log[0] = -1 (0 has no log)."""

    exp: np.ndarray
    log: np.ndarray


def _fill_exp_prime(F: FieldSpec, exp: np.ndarray) -> None:
    """exp[y] = gamma**y for 0 <= y < exp.size, in a prime field."""
    q, h = F.q, exp.size
    exp[0] = 1
    buf = np.empty(min(h, _EXP_BLOCK), dtype=np.int64)  # products reach q**2 > 2**31
    quot = np.empty_like(buf)  # prod // q, then times q
    a = 1
    while a < h:
        # exp[a : a + m] = exp[a - m : a] * gamma**m, doubling up to the block
        m = min(a, _EXP_BLOCK)
        if a == m:
            gm = pow(F.gamma, m, q)
        b = min(a + m, h)
        prod, mult = buf[: b - a], quot[: b - a]
        np.multiply(exp[a - m : b - m], gm, out=prod, dtype=np.int64)
        np.floor_divide(prod, q, out=mult)
        mult *= q
        np.subtract(prod, mult, out=exp[a:b])  # prod mod q
        a = b


def _fill_exp_ext(F: FieldSpec, exp: np.ndarray) -> None:
    """exp[y] = gamma**y for 0 <= y < q - 1, in an extension field.  The
    digits are float64 (numpy has BLAS for it, not for int64), exact below
    the cap: each t in digits @ M is an integer below r (p - 1)**2 < 2**28,
    each packed value is below q <= 2**26, and a fractional t / p lies 1/p
    or more below the next integer."""
    p, r, n = F.p, F.r, F.q - 1
    exp[0] = 1
    pw = p ** np.arange(r, dtype=np.float64)
    a = 1
    while a < n:
        # as for prime fields; multiplication by gamma**m is linear on digit vectors
        m = min(a, _EXP_BLOCK_EXT)
        if a == m:
            gm = power(F, F.gamma, m)
            M = np.array([to_coeffs(F, mul(F, gm, p**i)) for i in range(r)], dtype=np.float64)  # row i: gm * x**i
            digits = exp[:a, None] // pw % p
        b = min(a + m, n)
        digits = digits[: b - a] @ M
        quot = digits / p  # one temporary: a second one alive beside it costs page faults
        np.floor(quot, out=quot)
        quot *= p
        digits -= quot
        exp[a:b] = digits @ pw
        a = b


def _table(F: FieldSpec, size: int) -> np.ndarray:
    """An empty int32 table of `size` entries for F.  Raises
    LogTableTooLargeError, before anything is allocated, above the cap."""
    if F.q > LOG_TABLE_CAP:
        raise LogTableTooLargeError(f"q={F.q} exceeds the log-table cap {LOG_TABLE_CAP}")
    return np.empty(size, dtype=np.int32)


def exp_table(F: FieldSpec) -> np.ndarray:
    """The int32 array exp[j] = gamma**j, 0 <= j < q - 1, uncached.  Raises
    LogTableTooLargeError, before anything is allocated, above the cap."""
    n = F.q - 1
    exp = _table(F, n)
    if F.r > 1:
        _fill_exp_ext(F, exp)
    else:
        # for odd q, gamma**(n/2) = -1: only the first half is multiplied out
        h = n if F.q == 2 else n // 2
        _fill_exp_prime(F, exp[:h])
        np.subtract(F.q, exp[: n - h], out=exp[h:])  # gamma**(x + n/2) = -gamma**x
    return exp


def exp_half(F: FieldSpec) -> np.ndarray:
    """The first half of `exp_table`'s array for an odd prime q: gamma**y
    for 0 <= y < (q - 1)/2, the rest being q - gamma**y.  Not cached; raises
    LogTableTooLargeError, before anything is allocated, above the cap."""
    if F.r > 1 or F.q == 2:
        raise ValueError(f"F_{F.q} is not a field of odd prime order")
    half = _table(F, (F.q - 1) // 2)
    _fill_exp_prime(F, half)
    return half


@lru_cache(maxsize=1)
def log_table(F: FieldSpec) -> LogTable:
    """The log array over `exp_table`'s array, which it holds itself."""
    exp = exp_table(F)
    log = np.full(F.q, -1, dtype=np.int32)
    for lo in range(0, F.q - 1, TABLE_SLICE):
        hi = min(lo + TABLE_SLICE, F.q - 1)
        log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
    return LogTable(exp=exp, log=log)


def _bsgs(F: FieldSpec, h: int, base: int, order: int) -> int:
    # log of h to `base`, where base has the given (small) order
    if h == 1:
        return 0
    m = isqrt(order - 1) + 1
    baby = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = mul(F, x, base)
    giant = inv(F, x)  # base**-m
    y = h
    for i in range(m):
        if y in baby:
            return (i * m + baby[y]) % order
        y = mul(F, y, giant)
    raise ValueError("element is outside the subgroup")  # pragma: no cover


def discrete_log(F: FieldSpec, a: int) -> int:
    """The exponent j in [0, q-1) with gamma**j = a, for a in [1, q)
    (ValueError otherwise: 0 has no discrete log).

    Pohlig-Hellman over the factorization of q - 1, with BSGS in each
    prime-order subgroup; no dense table required.
    """
    check_nonzero(F, a=a)
    n = F.q - 1
    if n == 1:
        return 0
    residues, moduli = [], []
    for l, e in F.q_minus_1.factors:
        le = l**e
        g_l = power(F, F.gamma, n // l)  # order l
        x = 0
        for k in range(e):
            # peel the digit of the log at l**k
            t = power(F, mul(F, a, power(F, F.gamma, -x)), n // l ** (k + 1))
            d = _bsgs(F, t, g_l, l)
            x += d * l**k
        residues.append(x)
        moduli.append(le)
    # CRT
    x, m = 0, 1
    for r_i, m_i in zip(residues, moduli):
        t = (r_i - x) * pow(m, -1, m_i) % m_i
        x += m * t
        m *= m_i
    return x % n
