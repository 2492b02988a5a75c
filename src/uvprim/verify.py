"""Exhaustive verification of (u,v)-primitivity over a whole field.

Everything runs in the exponent domain.  Fix the generator gamma and write
n = q - 1.  For nonzero u, v with w = u^-1 v and a = gamma^m:

    u a + v a^-1 = u * r,      r = a + w a^-1 = gamma^m (1 + gamma^(jw - 2m)),

so with L1[t] = log(1 + gamma^t) (the "add one" log table, -1 where the sum
vanishes) the log of r is m + L1[(jw - 2m) mod n], and u*r is primitive iff
gcd(log u + log r, R) = 1 where R = Rad(n).  No field multiplications happen
in any hot loop -- just index arithmetic on numpy arrays.

So each primitive a (r != 0) covers the classes k = log u mod R with
gcd(k + log r, R) = 1: a pattern, held as one R-bit int with bit k set iff
k is covered.  With c = log r mod R it is the complement of
`nonunits_R >> c`, the shift the direct pass ANDs in; by CRT, two patterns
meet in their AND.

Every e-free mask comes from `ntcore.coprime_mask`; the tables hold the
primitive one (`prim`, e = q - 1), built once per field.

Four checkers, two per set:

* `check_element_membership_logs` -- direct coverage over residues
  log u mod R, one w at a time, with the classes still uncovered held as
  one R-bit int (each w contributes at most R failing classes).  Only one
  w per class of log w mod g = gcd(2R, q - 1) gets a pass: with c =
  gamma^(tR), a witness a for (u c, v c^-1) gives the witness c a for
  (u, v), which leaves log u mod R alone and moves log w by 2tR.  And w^-1
  is mirrored from w (a witness a for (u, v) is one, a^-1, for (v, u)), so
  g/2 + 1 passes decide every w, not (q - 1)/2 + 1;
* `check_element_membership_cover` (`ie`) -- the same failure list, but
  each w first gets one accept-or-discard pass (`_rung_settles`), which
  settles it once U, the OR of the accepted patterns, covers every class
  mod R; only the w it leaves get the direct pass.  The signed family it
  keeps beside U feeds only `terms_peak`: the tests check its
  inclusion-exclusion count against U, the run does not.  `--algo both`
  fails if the two failure lists differ, which checks `_pattern` against
  the direct pass's `nonunits_R` shift;
* `check_pair_membership_lift` -- the pair problem decided on the failing
  classes (log u mod R, log w mod g) of `_failing_classes`, the one class
  pass both element checkers expand: an element witness a lifts to the
  pair witness (a, a^-1), so only those classes can fail, and the same c
  moves a pair witness (a, b) to (a c^-1, b c), so one witness scan
  decides each;
* `check_pair_membership` -- brute force over (u,v) orbits for the pair
  problem, vectorized over the second primitive element; the oracle of
  the lift.

The signed coverage family is one engine, pattern B -> net coefficient
c with sum c [k in B] = -[k in U] for every class k, U the union of the
accepted patterns.  `_join` is its one update: a new pattern P adds -c at
each nonempty meet B & P and -1 at P itself.  U is the OR of the stored
patterns and an offer gains popcount(P & ~U), so no meet is ever counted.
When 2 | R (every odd q), the pattern of c = log r mod R lies in the
classes k = c + 1 mod 2: `_rung_settles` keeps one half per parity, in
place for one w; `coverage_start` / `coverage_term` / `coverage_merge`
join one offer at a time on immutable states.

`_sum_log` is the one read of L1: log(u a + v b) = log u + x + L1[(jw + y -
x) mod n] for a = gamma^x, b = gamma^y, with b = a^-1 at y = -x.  The pair
problem's second sum needs no second read, since v a^-1 + u b^-1 =
(u a + v b) / (a b).  The checkers, the pair count `count_pairs_free`,
the *_grid counts (which the interval bounds get sandwich-tested against)
and the special-case witness search all go through it.

`count_single_free` does not.  It reads each sum once, so the log table
(a scatter over all q - 1 entries) and L1 (a gather over all of them)
would cost more than the count they serve: it adds u a and v a^-1, both
entries of the exp array, in the field, and folds the sum on gamma^(n/2)
= -1 and, when u = v, on x -> -x (at (1, 1) and q = 1 mod 4 it reads a
quarter of the exponents).  An odd prime field holds only `fd.exp_half`
in place of the exp array, and, when x -> x + n/2 keeps e1- and
e2-freeness, masks over only the exponents y < n/2 and the elements
s <= n/2.  For M(q, u, v) that needs q = 1 mod 4: for q = 3 mod 4, -1 is
a non-square and the masks cover all n.  The grid-versus-count tests
compare two independent derivations, field addition against L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import field as fd
from .ntcore import coprime_mask, profile

__all__ = [
    "CoverageState",
    "MembershipResult",
    "PairCountQuery",
    "SingleCountQuery",
    "check_element_membership_cover",
    "check_element_membership_logs",
    "check_pair_membership",
    "check_pair_membership_lift",
    "count_pairs_free",
    "count_single_free",
    "coverage_merge",
    "coverage_start",
    "coverage_term",
    "is_uv_primitive_element",
    "is_uv_primitive_pair",
    "pair_count_grid",
    "single_count_grid",
    "special_case_witnesses",
]


# --------------------------------------------------------------------------
# shared per-field tables

class _UVTables(NamedTuple):
    n: int  # q - 1
    R: int  # Rad(q - 1)
    g: int  # gcd(2R, q - 1): membership reads log w only mod g
    exp: np.ndarray  # `fd.log_table`'s arrays themselves, not copies
    log: np.ndarray
    L1: np.ndarray  # int32, L1[t] = log(1 + gamma^t), -1 where the sum vanishes
    prim: np.ndarray  # prim[x] = gcd(x, n) == 1, read-only
    prim_m: np.ndarray  # exponents of the primitive elements
    nonunits_R: int  # bit k set iff gcd(k, R) > 1, for 0 <= k < 2R


@lru_cache(maxsize=1)
def _uv_tables(F: fd.FieldSpec) -> _UVTables:
    """All of one field's tables.  Only the last field asked for stays
    cached (as in `fd.log_table`): no command goes back to a field it has
    left, and a switch holds at most two fields' tables."""
    n = F.q - 1
    R = F.q_minus_1.radical
    T = fd.log_table(F)
    L1 = np.empty(n, dtype=np.int32)
    for lo in range(0, n, fd.TABLE_SLICE):
        # add 1 to the low base-p digit, with no carry in characteristic p:
        # in a prime field p - 1 wraps to 0, whose log is -1
        plus_one = T.exp[lo : lo + fd.TABLE_SLICE] + 1
        plus_one[plus_one % F.p == 0] -= F.p
        L1[lo : lo + fd.TABLE_SLICE] = T.log[plus_one]
    prim = coprime_mask(n, F.q_minus_1.primes)
    prim.flags.writeable = False
    # R | n and R has the primes of n, so prim[:R] marks the units mod R
    nonunits = int.from_bytes(np.packbits(~prim[:R], bitorder="little").tobytes(), "little")
    return _UVTables(n, R, gcd(2 * R, n), T.exp, T.log, L1, prim, np.flatnonzero(prim), nonunits | nonunits << R)


def _free_masks(n: int, prim: np.ndarray, es) -> list[np.ndarray]:
    """For each e in `es` (None means q - 1, each passed by
    `fd.check_divisors`): mask[x] = True iff gamma**x is e-free, i.e.
    gcd(x, Rad(e)) = 1; for None that is `prim` itself."""
    return [prim if e is None else coprime_mask(n, profile(e).primes) for e in es]


def _sum_log(t: _UVTables, ju: int, jw: int, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """(log(u a + v b) mod n, mask of u a + v b != 0) for u = gamma**ju,
    v = u w with w = gamma**jw, a = gamma**xs and b = gamma**ys, broadcast
    like numpy; b = a^-1 is ys = -xs.  Since u a + v b = u a (1 + gamma^(jw
    + y - x)), this is the one read of the add-one table.  The logs are
    summed in intp, since int32 arithmetic on the int32 table entries made
    the small pair scans slower; the scalars are added first, so an int x
    costs no array pass."""
    l1 = t.L1[(ys + (jw - xs)) % t.n]
    return np.add(l1, ju + xs, dtype=np.intp) % t.n, l1 >= 0


def _pair_hits(t: _UVTables, ju: int, jw: int, xs, ys, m3: np.ndarray, m4: np.ndarray):
    """For each x in xs, yield the mask over ys of the y with u a + v b
    nonzero in m3 and v a^-1 + u b^-1 = (u a + v b) / (a b) nonzero in m4."""
    for x in map(int, xs):
        log3, ok = _sum_log(t, ju, jw, x, ys)
        yield ok & m3[log3] & m4[(log3 - x - ys) % t.n]


def _pair_witness(t: _UVTables, ju: int, jw: int, stats: dict) -> tuple[int, int] | None:
    """The exponents (x, y) of the first primitive pair witness for
    u = gamma**ju, w = gamma**jw, least x then least y; None if there is
    none.  Each x scanned counts in `stats["witness_scans"]`."""
    for i, hits in enumerate(_pair_hits(t, ju, jw, t.prim_m, t.prim_m, t.prim, t.prim)):
        stats["witness_scans"] += 1
        j = hits.argmax()  # the first hit, if there is one
        if hits[j]:
            return int(t.prim_m[i]), int(t.prim_m[j])
    return None


# --------------------------------------------------------------------------
# spot checks

def is_uv_primitive_element(F: fd.FieldSpec, a: int, u: int, v: int) -> bool:
    """a primitive and u*a + v*a^-1 nonzero primitive."""
    fd.check_nonzero(F, u=u, v=v, a=a or 1)  # a = 0 is never primitive
    if not fd.is_primitive(F, a):
        return False
    s = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, fd.inv(F, a)))
    return s != 0 and fd.is_primitive(F, s)


def is_uv_primitive_pair(F: fd.FieldSpec, a: int, b: int, u: int, v: int) -> bool:
    """(a, b) primitive with u*a + v*b and v*a^-1 + u*b^-1 nonzero primitive."""
    fd.check_nonzero(F, u=u, v=v, a=a or 1, b=b or 1)  # 0 is never primitive
    if not (fd.is_primitive(F, a) and fd.is_primitive(F, b)):
        return False
    s1 = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, b))
    s2 = fd.add(F, fd.mul(F, v, fd.inv(F, a)), fd.mul(F, u, fd.inv(F, b)))
    return s1 != 0 and s2 != 0 and fd.is_primitive(F, s1) and fd.is_primitive(F, s2)


# --------------------------------------------------------------------------
# exact counts

@dataclass(frozen=True)
class PairCountQuery:
    """Count pairs (a, b) with a e1-free, b e2-free, u*a+v*b nonzero e3-free
    and v*a^-1+u*b^-1 nonzero e4-free.  e_i = None means q - 1 (primitive)."""

    q: int
    u: int
    v: int
    e1: int | None = None
    e2: int | None = None
    e3: int | None = None
    e4: int | None = None


@dataclass(frozen=True)
class SingleCountQuery:
    """Count a with a e1-free and u*a+v*a^-1 nonzero e2-free."""

    q: int
    u: int
    v: int
    e1: int | None = None
    e2: int | None = None


def count_pairs_free(query: PairCountQuery) -> int:
    F = fd.build_field(query.q)
    fd.check_nonzero(F, u=query.u, v=query.v)
    es = fd.check_divisors(F, query.e1, query.e2, query.e3, query.e4)
    t = _uv_tables(F)
    m1, m2, m3, m4 = _free_masks(t.n, t.prim, es)
    ju = int(t.log[query.u])
    jw = (int(t.log[query.v]) - ju) % t.n
    xs, ys = np.flatnonzero(m1), np.flatnonzero(m2)
    return sum(int(np.count_nonzero(hits)) for hits in _pair_hits(t, ju, jw, xs, ys, m3, m4))


def _even_shift(n: int, e: int | None) -> bool:
    """True iff x -> x + n/2 keeps gamma**x e-free (e = None means n): n is
    even and every prime of e divides n/2, which fails only for 2 when
    n = 2 mod 4."""
    return n % 2 == 0 and (n % 4 == 0 or (e or n) % 2 == 1)


def _runs(start: int, stop: int, ju: int, jv: int, size: int):
    """Split [start, stop) into runs [lo, hi) of at most `fd.TABLE_SLICE`
    exponents x over which k1 = (x + ju) // size and k2 = (jv - x) // size
    stay fixed, and yield each as (lo, hi, k1, k2)."""
    lo = start
    while lo < stop:
        k1, k2 = (lo + ju) // size, (jv - lo) // size
        hi = min(stop, lo + fd.TABLE_SLICE, (k1 + 1) * size - ju, jv - k2 * size + 1)
        yield lo, hi, k1, k2
        lo = hi


def count_single_free(query: SingleCountQuery) -> int:
    """The count of `SingleCountQuery`, by field addition on the exp array
    alone: with a = gamma**x, u a = gamma**(x + log u) and v a^-1 =
    gamma**(log v - x), and their sum is looked up in a byte mask over the
    elements.

    For odd q, gamma**(n/2) = -1 with n = q - 1, so x + n/2 gives the sum at
    x negated, and -s is e2-free with s when `_even_shift(n, e2)`.  When
    that holds for e1 too, the summand has period P = n/2, else P = n; the
    e1-free x in [0, P) are summed and the sum multiplied by n/P.  When
    u = v, x and -x give the same sum u (a + a^-1), and gcd(x, e1) =
    gcd(-x, e1), so 0 < x < P/2 is summed once and counted twice, and the
    self-paired x = 0 and, for even P, x = P/2 are counted once each.

    An odd prime field reads only the first half of the exp array,
    `fd.exp_half`: gamma**y = (-1)**k gamma**(y - k n/2) with k = y //
    (n/2).  When `_even_shift(n, e2)` holds, -s is in the mask with s, so
    the mask is kept over the s <= n/2 alone and read at min(s, q - s),
    and only the sign of v a^-1 against u a matters.  Each exponent mask
    is as long as the exponents it is read at.  An extension field
    negates digit by digit, and F_2 has no half: both read the whole
    `fd.exp_table`."""
    F = fd.build_field(query.q)
    fd.check_nonzero(F, u=query.u, v=query.v)
    e1, e2 = fd.check_divisors(F, query.e1, query.e2)
    q, n = F.q, F.q - 1
    h = n // 2
    odd_prime = F.r == 1 and q > 2
    # the first table: a field over the cap is refused before any allocation
    exp = fd.exp_half(F) if odd_prime else fd.exp_table(F)
    N = exp.size
    folds = odd_prime and _even_shift(n, e2)
    P = h if _even_shift(n, e1) and _even_shift(n, e2) else n
    m2 = coprime_mask(h if folds else n, profile(e2 or n).primes)
    m1 = m2[:P] if e1 == e2 else coprime_mask(P, profile(e1 or n).primes)
    ju, jv = fd.discrete_log(F, query.u), fd.discrete_log(F, query.v)
    # target[s] iff s (with folds, s or q - s) is a nonzero e2-free
    # element; target[0] stays False
    target = np.zeros(h + 1 if folds else q, dtype=bool)
    for k, m2k in enumerate(m2.reshape(-1, N)):  # exponents k N + y, y < N
        for lo in range(0, N, fd.TABLE_SLICE):
            s = exp.take(np.flatnonzero(m2k[lo : lo + fd.TABLE_SLICE]) + lo)
            if folds:
                np.minimum(s, q - s, out=s)
            elif k:
                np.subtract(q, s, out=s)  # gamma**(y + n/2) = -gamma**y
            target[s] = True

    def hits(start: int, stop: int) -> int:
        # the x in [start, stop) with a = gamma**x e1-free and its sum in target
        count = 0
        for lo, hi, k1, k2 in _runs(start, stop, ju, jv, N):
            xs = np.flatnonzero(m1[lo:hi])
            a = exp.take(xs + (lo + ju - k1 * N))  # u a, up to the sign (-1)**k1
            b = exp.take((jv - k2 * N - lo) - xs)  # v a^-1, up to (-1)**k2
            if folds:
                # +-s folds to |a - b| or |a + b - q|, both below q, then to min(., q - .)
                s = a - b if (k1 + k2) % 2 else a + b - q
                np.abs(s, out=s)
                np.minimum(s, q - s, out=s)
            else:  # in an odd prime field, gamma**(y + n/2) = q - gamma**y
                s = fd.add(F, q - a if odd_prime and k1 % 2 else a, q - b if odd_prime and k2 % 2 else b)
            count += int(np.count_nonzero(target[s]))
        return count

    if query.u != query.v:
        count = hits(0, P)
    else:
        # the summand at x equals that at -x, so at P - x too
        count = hits(0, 1) + 2 * hits(1, (P + 1) // 2)
        if P % 2 == 0:
            count += hits(P // 2, P // 2 + 1)
    return count * (n // P)


def single_count_grid(q: int, e1: int | None = None, e2: int | None = None) -> np.ndarray:
    """grid[ju, jv] = the count of `count_single_free` at u = gamma**ju,
    v = gamma**jv -- every (u, v) at once via one circular correlation
    per difference jw."""
    F = fd.build_field(q)
    es = fd.check_divisors(F, e1, e2)
    t = _uv_tables(F)
    n = t.n
    m1, m2 = _free_masks(n, t.prim, es)
    xs = np.flatnonzero(m1)
    m2t = np.tile(m2, 2).astype(np.int64)
    grid = np.empty((n, n), dtype=np.int64)
    ju_idx = np.arange(n)
    for jw in range(n):
        log_r, ok = _sum_log(t, 0, jw, xs, -xs)
        h = np.bincount(log_r[ok], minlength=n)
        cnt = np.correlate(m2t, h, mode="valid")[:n]
        grid[ju_idx, (ju_idx + jw) % n] = cnt
    return grid


def pair_count_grid(q: int, es: tuple[int | None, int | None, int | None, int | None] = (None,) * 4) -> np.ndarray:
    """grid[ju, jv] = the count of `count_pairs_free` at u = gamma**ju,
    v = gamma**jv.  O(n^4) index work; meant for small q."""
    F = fd.build_field(q)
    fd.check_divisors(F, *es)
    t = _uv_tables(F)
    n = t.n
    m1, m2, m3, m4 = _free_masks(n, t.prim, es)
    xs = np.flatnonzero(m1)[:, None]
    ys = np.flatnonzero(m2)[None, :]
    grid = np.empty((n, n), dtype=np.int64)
    for jw in range(n):
        # the logs of both sums at u = 1; each ju shifts both by ju
        log3, ok = _sum_log(t, 0, jw, xs, ys)
        log3, log4 = log3[ok], (log3 - xs - ys)[ok]
        for ju in range(n):
            grid[ju, (ju + jw) % n] = np.count_nonzero(m3[(log3 + ju) % n] & m4[(log4 + ju) % n])
    return grid


# --------------------------------------------------------------------------
# membership results

@dataclass(frozen=True)
class MembershipResult:
    """Outcome of one exhaustive membership check.

    `failures` holds packed-element pairs (u, v) with no witness, sorted by
    (log u, log v).  Whether (u, v) fails depends only on its class (log u
    mod R, log w mod g), R = Rad(q - 1), g = gcd(2R, q - 1), w = u^-1 v.
    The element problem lists, for each log w, the pair with log u < R of
    each failing class, and every (u gamma^(jR), v gamma^(jR)) fails with it
    (q = 9 lists 4 of 16, q = 13 34 of 68); the pair problem lists every
    failing pair with log u <= log v.

    `stats` has one schema.  Every element pass (`logs`, `ie`, the lift's)
    reports `w_values` (the g/2 + 1 class representatives of log w) and
    the `primitives_consumed` and `logs_computed` of its direct passes;
    `ie` adds `stage_passes` and `terms_peak`, and the lift and `brute`
    report `orbits` and `witness_scans`.
    """

    q: int
    set: str  # "element" | "pair"
    member: bool
    failures: tuple[tuple[int, int], ...]
    algorithm: str  # "logs" | "ie" | "lift" | "brute"
    stats: dict


def _result(t: _UVTables, q: int, set: str, bad, algorithm: str, stats: dict) -> MembershipResult:
    """The one constructor of every membership result: `bad` lists the
    failing (log u, log v), already in report order."""
    failures = tuple((int(t.exp[ju]), int(t.exp[jv])) for ju, jv in bad)
    return MembershipResult(q=q, set=set, member=not failures, failures=failures, algorithm=algorithm, stats=stats)


_CHUNK = 192


def _log_r_chunks(t: _UVTables, jw: int):
    """For w = gamma**jw, yield each chunk of primitive exponents m as (its
    size, log r mod n for its nonzero r = gamma^m (1 + gamma^(jw - 2m)))."""
    for lo in range(0, t.prim_m.size, _CHUNK):
        chunk = t.prim_m[lo : lo + _CHUNK]
        log_r, ok = _sum_log(t, 0, jw, chunk, -chunk)
        yield chunk.size, log_r[ok]


def _uncovered_for_w(t: _UVTables, jw: int, stats: dict) -> np.ndarray:
    """The residues k = log u mod R, ascending, that no primitive a covers
    at w = gamma**jw, consuming primitive exponents lazily in chunks and
    counting them in `stats`.  The uncovered set is one R-bit int; c = log
    r mod R keeps only the k with gcd(k + c, R) > 1, which is `nonunits_R`
    shifted down by c."""
    gaps = (1 << t.R) - 1
    for size, log_r in _log_r_chunks(t, jw):
        stats["primitives_consumed"] += size
        stats["logs_computed"] += log_r.size
        for c in (log_r % t.R).tolist():
            gaps &= t.nonunits_R >> c
            if not gaps:
                return np.empty(0, dtype=np.intp)
    octets = np.frombuffer(gaps.to_bytes(-(-t.R // 8), "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


def _failing_classes(t: _UVTables, reps, stats: dict) -> list[tuple[int, int]]:
    """The classes (k, r) = (log u mod R, log w mod g), g = gcd(2R, n), of
    the (u, v) with no element witness, each once.  With c = gamma^(tR), a
    witness a for (u c, v c^-1) gives the witness c a for (u, v), which
    keeps log u mod R and moves log w by 2tR, so only log w mod g matters.
    Each representative r <= g/2 in `reps`, the rest being known covered,
    gets the direct pass; a residue k it leaves uncovered fails as (k, r)
    and, as a witness a for (u, v) is one, a^-1, for (v, u), as ((k + r)
    mod R, g - r).  Writes the element pass's stats (`MembershipResult`)."""
    stats.update(primitives_consumed=0, logs_computed=0, w_values=t.g // 2 + 1)
    classes: list[tuple[int, int]] = []
    for r in reps:
        ks = _uncovered_for_w(t, r, stats).tolist()
        classes += [(k, r) for k in ks]
        if 2 * r % t.g:  # r = 0 and r = g/2 are their own mirrors
            classes += [((k + r) % t.R, t.g - r) for k in ks]
    return classes


def _element_membership(t: _UVTables, algorithm: str, stats: dict, reps) -> MembershipResult:
    """The element-set decision shared by both checkers: each failing class
    (k, r) of `_failing_classes` over `reps` is listed as (u, v) =
    (gamma**k, gamma**(k + jw)) at every jw = r mod g."""
    bad = sorted((k, (k + jw) % t.n) for k, r in _failing_classes(t, reps, stats) for jw in range(r, t.n, t.g))
    return _result(t, t.n + 1, "element", bad, algorithm, stats)


def check_element_membership_logs(q: int) -> MembershipResult:
    """Decide element-set membership by direct coverage, one pass per
    class of w (see `_failing_classes`)."""
    t = _uv_tables(fd.build_field(q))
    return _element_membership(t, "logs", {}, range(t.g // 2 + 1))


def check_pair_membership(q: int) -> MembershipResult:
    """Decide pair-set membership by brute force over (u, v) orbits.

    (u,v) and (v,u) are equivalent (swap and invert the witness pair), so
    only representatives with log u <= log v are tested and reported.
    """
    t = _uv_tables(fd.build_field(q))
    stats = {"orbits": 0, "witness_scans": 0}
    bad: list[tuple[int, int]] = []
    for ju in range(t.n):
        for jv in range(ju, t.n):
            stats["orbits"] += 1
            if _pair_witness(t, ju, jv - ju, stats) is None:
                bad.append((ju, jv))
    return _result(t, q, "pair", bad, "brute", stats)


def check_pair_membership_lift(q: int) -> MembershipResult:
    """Decide pair-set membership on the element problem's failing classes.

    An element witness a for (u, v) gives the pair witness (a, a^-1), both
    pair sums then being u a + v a^-1, so only the classes (k, r) of
    `_failing_classes` can fail.  With c = gamma^(tR), a pair witness (a, b)
    for (u, v) gives (a c^-1, b c) for (u c, v c^-1), both sums unchanged:
    one witness scan at log u = k, log w = r decides a class, and a failing
    one is expanded to every log w = r mod g and log u = k mod R and
    reported as `check_pair_membership` reports them.  "orbits" counts the
    classes scanned, beside the element pass's stats.
    """
    t = _uv_tables(fd.build_field(q))
    stats = {"orbits": 0, "witness_scans": 0}
    classes = _failing_classes(t, range(t.g // 2 + 1), stats)
    stats["orbits"] = len(classes)
    failing = [(k, r) for k, r in classes if _pair_witness(t, k, r, stats) is None]
    bad = sorted(
        (ju, jv)
        for k, r in failing
        for jw in range(r, t.n, t.g)
        for ju in range(k, t.n, t.R)
        if ju <= (jv := (ju + jw) % t.n)
    )
    return _result(t, q, "pair", bad, "lift", stats)


# --------------------------------------------------------------------------
# inclusion-exclusion coverage

@dataclass(frozen=True)
class CoverageState:
    """The signed coverage family of the accepted covered sets: `family`
    maps each pattern B (an R-bit int, bit k set iff the class k mod R lies
    in the set) to its nonzero net signed coefficient c, with sum c [k in B]
    = -[k in U] for every k, U the union of the accepted sets; so U is the
    OR of the keys, and `uncovered` = R - popcount(U) = R + sum c |B| is
    the number of classes mod R not yet covered.  Never changed once made:
    `coverage_merge` joins into a copy."""

    R: int
    family: dict[int, int]
    uncovered: int


def coverage_start(q: int) -> CoverageState:
    """The empty state of F_q: nothing accepted, all R classes uncovered."""
    R = fd.build_field(q).q_minus_1.radical
    return CoverageState(R=R, family={}, uncovered=R)


def _pattern(t: _UVTables, log_r: int) -> int:
    """The classes k mod R with gcd(k + log r, R) = 1, as an R-bit int: the
    complement of the `nonunits_R` shift that `_uncovered_for_w` ANDs in.
    By CRT, two patterns meet in their AND."""
    return ((1 << t.R) - 1) & ~(t.nonunits_R >> (log_r % t.R))


def coverage_term(F: fd.FieldSpec, w: int, a: int) -> int | None:
    """The pattern of the classes k = log u mod R that one primitive a
    covers at this w, as an R-bit int: bit k set iff gcd(k + log r, R) = 1
    where r = a + w*a^-1.  None when r = 0 (such a contributes nothing and
    is skipped)."""
    fd.check_nonzero(F, w=w, a=a)
    r = fd.add(F, a, fd.mul(F, w, fd.inv(F, a)))
    if r == 0:
        return None
    t = _uv_tables(F)
    return _pattern(t, int(t.log[r]))


def _join(family: dict[int, int], pattern: int) -> int:
    """Commit the covered set `pattern` into `family` in place: each stored
    pattern B with coefficient c adds -c at its nonempty meet B & pattern,
    and `pattern` itself gets -1, so that sum c [k in B] = -[k in U] still
    holds for the grown union U.  The meets are taken from a snapshot of
    the family before anything is added, so B = pattern meets itself once.
    Returns the change of the sum of |coefficients|.  Patterns whose
    coefficients cancel drop out of every later sum, which keeps the family
    near the number of distinct patterns."""
    change = 0
    for bits, dcoef in [(bits & pattern, -coef) for bits, coef in family.items()] + [(pattern, -1)]:
        if bits:
            old = family.get(bits, 0)
            coef = old + dcoef
            change += abs(coef) - abs(old)
            if coef:
                family[bits] = coef
            else:
                del family[bits]
    return change


def coverage_merge(
    state: CoverageState, term: int, always_accept: bool, factor: Fraction
) -> CoverageState:
    """Offer one covered set (a `coverage_term` pattern) to the state.

    The covered classes are U, the OR of the stored patterns (each lies in
    U, and each class of U in one of them, as sum c [k in B] = -[k in U]),
    so the offer would cover popcount(term & ~U) more.  It is committed
    (`_join` into a copy of the family) iff `always_accept` or the new
    uncovered count is at most `factor` times the old one (exact rational
    comparison): the result is then a new state.  A rejected offer returns
    `state` itself.  Raises ValueError unless 0 < term < 2**R.
    """
    if not 0 < term < 1 << state.R:
        raise ValueError(f"a coverage term must be a nonzero {state.R}-bit pattern")
    covered = 0
    for bits in state.family:
        covered |= bits
    uncovered = state.uncovered - (term & ~covered).bit_count()
    factor = Fraction(factor)
    if not always_accept and uncovered * factor.denominator > state.uncovered * factor.numerator:
        return state
    family = dict(state.family)
    _join(family, term)
    return CoverageState(R=state.R, family=family, uncovered=uncovered)


def _rung_settles(t: _UVTables, jw: int, stats: dict) -> bool:
    """One accept-or-discard pass for w = gamma**jw: True iff the accepted
    covered sets reach every class mod R before the primitive exponents run
    out.  The first 10 offers are always taken; a later one only if it
    leaves at most 3/4 of the uncovered count.  False only means the pass
    gave up.  An offer P gains popcount(P & ~U), U the union accepted so
    far, so a rejected offer never reads the family.  When 2 | R the family
    is kept as two halves by c mod 2, which never meet, and an accepted
    offer is joined in place into its own; `stats["terms_peak"]` records
    the largest sum of |coefficients| over both and
    `stats["stage_passes"][0]` counts the w the pass settles."""
    halves: tuple[dict[int, int], ...] = ({}, {}) if t.R % 2 == 0 else ({},)
    covered = 0  # U
    uncovered = t.R
    terms = 0  # the sum of |coefficients| over both halves
    offered = 0
    for _, log_rs in _log_r_chunks(t, jw):
        for c in (log_rs % t.R).tolist():
            offered += 1
            pattern = _pattern(t, c)
            gain = (pattern & ~covered).bit_count()
            # (uncovered - gain) * 4 <= uncovered * 3, i.e. the 3/4 rule
            if offered > 10 and 4 * gain < uncovered:
                continue
            covered |= pattern
            uncovered -= gain
            terms += _join(halves[c % len(halves)], pattern)
            if terms > stats["terms_peak"]:
                stats["terms_peak"] = terms
            if uncovered == 0:
                stats["stage_passes"][0] += 1
                return True
    return False


def check_element_membership_cover(q: int) -> MembershipResult:
    """Decide element-set membership via the inclusion-exclusion counter:
    `_rung_settles` for each class representative w the `logs` checker
    passes, then the direct pass, counted, on every one it leaves (see
    `_failing_classes`).  The rung settles a w once the OR of its accepted
    patterns covers every class; its signed family feeds only `terms_peak`,
    so `ie` checks nothing on its own at run time."""
    t = _uv_tables(fd.build_field(q))
    stats = {"stage_passes": [0], "terms_peak": 0}
    reps = (r for r in range(t.g // 2 + 1) if not _rung_settles(t, r, stats))
    return _element_membership(t, "ie", stats, reps)


# --------------------------------------------------------------------------
# the four classic special cases

def special_case_witnesses(q: int) -> dict[str, tuple[bool, tuple[int, ...] | int | None]]:
    """Existence and a first witness for the four classic (u, v) choices:

    * "element-sum":  primitive a with a + a^-1 primitive        (u, v) = (1, 1)
    * "element-diff": primitive a with a - a^-1 primitive        (u, v) = (1, -1)
    * "pair-sum":     primitive a, b with a+b and a^-1+b^-1 primitive
    * "pair-diff":    primitive a, b with a-b and b^-1-a^-1 primitive

    Witnesses are packed elements: a for the element cases, (a, b) for the
    pair cases; None when existence fails.
    """
    F = fd.build_field(q)
    t = _uv_tables(F)
    ms = t.prim_m  # ascending: the first witness has the least log a, then log b
    jw_minus = int(t.log[fd.neg(F, 1)])
    out: dict[str, tuple[bool, tuple[int, ...] | int | None]] = {}
    for name, jw in (("element-sum", 0), ("element-diff", jw_minus)):
        log_r, ok = _sum_log(t, 0, jw, ms, -ms)
        hits = np.flatnonzero(ok & t.prim[log_r])
        out[name] = (True, int(t.exp[ms[hits[0]]])) if hits.size else (False, None)
    for name, jw in (("pair-sum", 0), ("pair-diff", jw_minus)):
        xy = _pair_witness(t, 0, jw, {"witness_scans": 0})
        out[name] = (False, None) if xy is None else (True, tuple(int(t.exp[x]) for x in xy))
    return out
