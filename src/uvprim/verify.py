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
meet in their AND and a pattern's size is its popcount.

Every e-free mask comes from `ntcore.coprime_mask`; the tables hold the
primitive one (`prim`, e = q - 1), built once per field.

Four checkers, two per set:

* `check_element_membership_logs` -- direct coverage over residues
  log u mod R, one nonzero w at a time, with the classes still uncovered
  held as one R-bit int (each w contributes at most R failing classes),
  and w^-1 mirrored from w (a witness a for (u, v) is one, a^-1, for (v, u));
* `check_element_membership_cover` -- same decision, but w whose uncovered
  count the signed coverage family brings to zero in one accept-or-discard
  pass skip the direct pass;
* `check_pair_membership_lift` -- the pair problem decided from the
  element failures: an element witness a lifts to the pair witness
  (a, a^-1), so only the classes (log u mod R, log w) that fail the element
  problem get a pair witness scan;
* `check_pair_membership` -- brute force over (u,v) orbits for the pair
  problem, vectorized over the second primitive element; the oracle of
  the lift.

The signed coverage family is one engine, pattern -> net coefficient
with uncovered = R + sum of coefficient * popcount, grown by `_offer` and
`_commit`: in place for one w by `check_w`, one offer at a time on
immutable states by `coverage_start` / `coverage_term` / `coverage_merge`.

`_sum_log` is the one read of L1: log(u a + v b) = log u + x + L1[(jw + y -
x) mod n] for a = gamma^x, b = gamma^y, with b = a^-1 at y = -x.  The pair
problem's second sum needs no second read, since v a^-1 + u b^-1 =
(u a + v b) / (a b).  The checkers, the exact counts
(`count_pairs_free`, `count_single_free` and the *_grid variants, which the
interval bounds get sandwich-tested against) and the special-case witness
search all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidDivisorError
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
    "check_w",
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
    primes: tuple[int, ...]  # the primes of R
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
    prof = F.q_minus_1
    R = prof.radical
    T = fd.log_table(F)
    L1 = np.empty(n, dtype=np.int32)
    for lo in range(0, n, fd.TABLE_SLICE):
        plus_one = T.exp[lo : lo + fd.TABLE_SLICE] + 1
        if F.r > 1:
            # add 1 to the low base-p digit; no carries in characteristic p
            plus_one[plus_one % F.p == 0] -= F.p
        # in a prime field exp = p - 1 reads the sentinel log[q] = -1
        L1[lo : lo + fd.TABLE_SLICE] = T.log[plus_one]
    prim = coprime_mask(n, prof.primes)
    prim.flags.writeable = False
    # R | n and R has the primes of n, so prim[:R] marks the units mod R
    nonunits = int.from_bytes(np.packbits(~prim[:R], bitorder="little").tobytes(), "little")
    return _UVTables(n, R, prof.primes, T.exp, T.log, L1, prim, np.flatnonzero(prim), nonunits | nonunits << R)


def _free_masks(t: _UVTables, es) -> list[np.ndarray]:
    """For each e in `es` (None means q - 1): mask[x] = True iff gamma**x is
    e-free, i.e. gcd(x, Rad(e)) = 1; for None that is the table's own
    read-only `prim`.  Raises InvalidDivisorError unless every e divides
    n = q - 1."""
    for e in es:
        if e is not None and (e < 1 or t.n % e):
            raise InvalidDivisorError(f"e={e} does not divide q-1={t.n}")
    return [t.prim if e is None else coprime_mask(t.n, profile(e).primes) for e in es]


def _exponents(t: _UVTables, mask: np.ndarray) -> np.ndarray:
    """The exponents `mask` marks, ascending: the table's own `prim_m` when
    `mask` is its `prim`."""
    return t.prim_m if mask is t.prim else np.flatnonzero(mask)


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


def _pair_witness(t: _UVTables, ju: int, jw: int, stats: dict | None = None) -> tuple[int, int] | None:
    """The exponents (x, y) of the first primitive pair witness for
    u = gamma**ju, w = gamma**jw, least x then least y; None if there is
    none.  Each x scanned counts in `stats["witness_scans"]`, if given."""
    for i, hits in enumerate(_pair_hits(t, ju, jw, t.prim_m, t.prim_m, t.prim, t.prim)):
        if stats is not None:
            stats["witness_scans"] += 1
        j = hits.argmax()  # the first hit, if there is one
        if hits[j]:
            return int(t.prim_m[i]), int(t.prim_m[j])
    return None


# --------------------------------------------------------------------------
# spot checks

def is_uv_primitive_element(F: fd.FieldSpec, a: int, u: int, v: int) -> bool:
    """a primitive and u*a + v*a^-1 nonzero primitive."""
    fd.check_nonzero(F.q, u=u, v=v, a=a or 1)  # a = 0 is never primitive
    if not fd.is_primitive(F, a):
        return False
    s = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, fd.inv(F, a)))
    return s != 0 and fd.is_primitive(F, s)


def is_uv_primitive_pair(F: fd.FieldSpec, a: int, b: int, u: int, v: int) -> bool:
    """(a, b) primitive with u*a + v*b and v*a^-1 + u*b^-1 nonzero primitive."""
    fd.check_nonzero(F.q, u=u, v=v, a=a or 1, b=b or 1)  # 0 is never primitive
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
    fd.check_nonzero(query.q, u=query.u, v=query.v)
    F = fd.build_field(query.q)
    t = _uv_tables(F)
    m1, m2, m3, m4 = _free_masks(t, (query.e1, query.e2, query.e3, query.e4))
    ju = fd.discrete_log(F, query.u)
    jw = (fd.discrete_log(F, query.v) - ju) % t.n
    xs, ys = _exponents(t, m1), _exponents(t, m2)
    return sum(int(np.count_nonzero(hits)) for hits in _pair_hits(t, ju, jw, xs, ys, m3, m4))


def count_single_free(query: SingleCountQuery) -> int:
    fd.check_nonzero(query.q, u=query.u, v=query.v)
    F = fd.build_field(query.q)
    t = _uv_tables(F)
    m1, m2 = _free_masks(t, (query.e1, query.e2))
    ju = fd.discrete_log(F, query.u)
    jw = (fd.discrete_log(F, query.v) - ju) % t.n
    exponents = _exponents(t, m1)
    count = 0
    for lo in range(0, exponents.size, fd.TABLE_SLICE):
        xs = exponents[lo : lo + fd.TABLE_SLICE]
        log2, ok = _sum_log(t, ju, jw, xs, -xs)
        count += int(np.count_nonzero(ok & m2[log2]))
    return count


def single_count_grid(q: int, e1: int | None = None, e2: int | None = None) -> np.ndarray:
    """grid[ju, jv] = the count of `count_single_free` at u = gamma**ju,
    v = gamma**jv -- every (u, v) at once via one circular correlation
    per difference jw."""
    t = _uv_tables(fd.build_field(q))
    n = t.n
    m1, m2 = _free_masks(t, (e1, e2))
    xs = _exponents(t, m1)
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
    t = _uv_tables(fd.build_field(q))
    n = t.n
    m1, m2, m3, m4 = _free_masks(t, es)
    xs = _exponents(t, m1)[:, None]
    ys = _exponents(t, m2)[None, :]
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
    (log u, log v); for the pair problem only the representative with
    log u <= log v of each symmetric orbit is listed.
    """

    q: int
    set: str  # "element" | "pair"
    member: bool
    failures: tuple[tuple[int, int], ...]
    algorithm: str  # "logs" | "ie" | "lift" | "brute"
    stats: dict


_CHUNK = 192


def _log_r_chunks(t: _UVTables, jw: int):
    """For w = gamma**jw, yield each chunk of primitive exponents m as (its
    size, log r mod n for its nonzero r = gamma^m (1 + gamma^(jw - 2m)))."""
    for lo in range(0, t.prim_m.size, _CHUNK):
        chunk = t.prim_m[lo : lo + _CHUNK]
        log_r, ok = _sum_log(t, 0, jw, chunk, -chunk)
        yield chunk.size, log_r[ok]


def _uncovered_for_w(t: _UVTables, jw: int, counters: dict | None = None) -> np.ndarray:
    """The residues k = log u mod R, ascending, that no primitive a covers
    at w = gamma**jw, consuming primitive exponents lazily in chunks.  The
    uncovered set is one R-bit int; c = log r mod R keeps only the k with
    gcd(k + c, R) > 1, which is `nonunits_R` shifted down by c."""
    gaps = (1 << t.R) - 1
    for size, log_r in _log_r_chunks(t, jw):
        if counters is not None:
            counters["primitives_consumed"] += size
            counters["logs_computed"] += log_r.size
        for c in (log_r % t.R).tolist():
            gaps &= t.nonunits_R >> c
            if not gaps:
                return np.empty(0, dtype=np.intp)
    # unpack only the bytes that hold a gap
    octets = np.frombuffer(gaps.to_bytes(-(-t.R // 8), "little"), dtype=np.uint8)
    at = np.flatnonzero(octets)
    rows, bits = np.nonzero(np.unpackbits(octets[at, None], axis=1, bitorder="little"))
    return at[rows] * 8 + bits


def _element_membership(
    F: fd.FieldSpec, algorithm: str, stats: dict, settled, counters: dict | None = None
) -> MembershipResult:
    """The element-set decision shared by both checkers: every w = gamma**jw
    with jw <= n/2 that `settled(jw)` cannot show fully covered gets the
    direct coverage pass, and each residue k it leaves uncovered fails as
    (u, v) = (gamma**k, gamma**(k + jw)) and, since a witness a for (u, v)
    is one, a^-1, for (v, u), at w^-1 as (gamma**k', gamma**(k' - jw)) with
    k' = (k + jw) mod R.  `counters`, if given, tallies the primitive
    exponents and logs those passes consume."""
    t = _uv_tables(F)
    bad: list[tuple[int, int]] = []
    for jw in range(t.n // 2 + 1):
        if not settled(jw):
            for k in map(int, _uncovered_for_w(t, jw, counters)):
                bad.append((k, (k + jw) % t.n))
                if 2 * jw % t.n:  # jw = 0 and jw = n/2 are their own mirrors
                    bad.append(((k + jw) % t.R, ((k + jw) % t.R - jw) % t.n))
    bad.sort()
    failures = tuple((int(t.exp[k]), int(t.exp[jv])) for k, jv in bad)
    return MembershipResult(
        q=F.q, set="element", member=not failures, failures=failures,
        algorithm=algorithm, stats=stats,
    )


def check_element_membership_logs(q: int) -> MembershipResult:
    """Decide element-set membership by direct coverage (one pass per w and w^-1)."""
    stats = {"primitives_consumed": 0, "logs_computed": 0, "w_values": (q - 1) // 2 + 1}
    return _element_membership(fd.build_field(q), "logs", stats, lambda jw: False, stats)


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
    failures = tuple((int(t.exp[a]), int(t.exp[b])) for a, b in bad)
    return MembershipResult(
        q=q, set="pair", member=not failures, failures=failures,
        algorithm="brute", stats=stats,
    )


def check_pair_membership_lift(q: int) -> MembershipResult:
    """Decide pair-set membership from the element check's failures.

    An element witness a for (u, v) gives the pair witness (a, a^-1), since
    both pair sums are then u a + v a^-1.  So (u, v) can fail the pair
    problem only if it fails the element problem (and then so does (v, u),
    whose element witnesses are the inverses of those of (u, v)).  Both pair
    sums are u times a function of w = u^-1 v, so whether (u, v) fails
    depends only on its class (k, jw) = (log u mod R, log w), the key the
    element check lists its failures by (once per class, at log u = k < R).
    One witness scan at log u = k decides a class; its failures are
    expanded to every log u = k mod R and reported as
    `check_pair_membership` reports them.  The stats are the scan's
    counters ("orbits" counts classes scanned) and the element check's.
    """
    t = _uv_tables(fd.build_field(q))
    # looked up in the module at call time, so a wrapped replacement runs
    element = check_element_membership_logs(q)
    classes = {
        (int(t.log[u]) % t.R, int(t.log[v] - t.log[u]) % t.n) for u, v in element.failures
    }
    stats = {"orbits": len(classes), "witness_scans": 0, **element.stats}
    failing: list[tuple[int, int]] = []
    for k, jw in classes:
        if _pair_witness(t, k, jw, stats) is None:
            failing.append((k, jw))
    bad = sorted(
        (ju, jv) for k, jw in failing for ju in range(k, t.n, t.R) if ju <= (jv := (ju + jw) % t.n)
    )
    failures = tuple((int(t.exp[a]), int(t.exp[b])) for a, b in bad)
    return MembershipResult(
        q=q, set="pair", member=not failures, failures=failures,
        algorithm="lift", stats=stats,
    )


# --------------------------------------------------------------------------
# inclusion-exclusion coverage

@dataclass(frozen=True)
class CoverageState:
    """The signed coverage family of the accepted covered sets: `family`
    maps each pattern (an R-bit int, bit k set iff the class k mod R lies in
    the set) to its nonzero net signed coefficient, and `uncovered` = R +
    sum of coefficient * popcount = the classes mod R not yet covered.
    Never changed once made: `coverage_merge` commits into a copy."""

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
    fd.check_nonzero(F.q, w=w, a=a)
    r = fd.add(F, a, fd.mul(F, w, fd.inv(F, a)))
    if r == 0:
        return None
    return _pattern(_uv_tables(F), fd.discrete_log(F, r))


def _offer(family: dict[int, int], pattern: int) -> tuple[int, list]:
    """(change of the uncovered count, children) if the covered set
    `pattern` joins the union: the set itself with coefficient -1, and its
    intersection with every stored pattern (empty ones dropped) with the
    stored coefficient negated."""
    delta = -pattern.bit_count()
    children = [(pattern, -1)]
    for bits, coef in family.items():
        meet = bits & pattern
        if meet:
            children.append((meet, -coef))
            delta -= coef * meet.bit_count()
    return delta, children


def _commit(family: dict[int, int], children: list) -> int:
    """Add the children into `family`; returns the change of the sum of
    |coefficients|.  Patterns whose coefficients cancel drop out of every
    later sum, which keeps the family near the number of distinct
    patterns."""
    change = 0
    for bits, dcoef in children:
        old = family.get(bits, 0)
        coef = old + dcoef
        change += abs(coef) - abs(old)
        if coef:
            family[bits] = coef
        else:
            del family[bits]
    return change


def _accepts(uncovered: int, delta: int, num: int, den: int) -> bool:
    return (uncovered + delta) * den <= uncovered * num


def coverage_merge(
    state: CoverageState, term: int, always_accept: bool, factor: Fraction
) -> CoverageState:
    """Offer one covered set (a `coverage_term` pattern) to the state.

    The offer is committed iff `always_accept` or the new uncovered count is
    at most `factor` times the old one (exact rational comparison): the
    result is then a new state.  A rejected offer returns `state` itself.
    Raises ValueError unless 0 < term < 2**R.
    """
    if not 0 < term < 1 << state.R:
        raise ValueError(f"a coverage term must be a nonzero {state.R}-bit pattern")
    delta, children = _offer(state.family, term)
    factor = Fraction(factor)
    if not always_accept and not _accepts(state.uncovered, delta, factor.numerator, factor.denominator):
        return state
    family = dict(state.family)
    _commit(family, children)
    return CoverageState(R=state.R, family=family, uncovered=state.uncovered + delta)


def check_w(F: fd.FieldSpec, w: int, nc: int, factor: Fraction, stats: dict | None = None) -> bool:
    """One accept/reject pass for one w: True iff the accepted covered sets
    reach every residue class before the primitive-element list runs out.

    The first `nc` nonzero r values are always accepted; later ones only if
    they shrink the uncovered count to at most `factor` of its value.
    False only means *these* parameters gave up -- at nc = phi(q-1),
    factor = 1 everything is accepted and the answer is definitive.

    The family is the one `coverage_merge` keeps, updated in place, so the
    uncovered counts agree exactly; `stats["terms_peak"]` records its
    largest sum of |coefficients|.
    """
    if w == 0:
        raise ZeroDivisionError("w must be non-zero")
    fd.check_nonzero(F.q, w=w)
    t = _uv_tables(F)
    jw = int(t.log[w])
    factor = Fraction(factor)
    num, den = factor.numerator, factor.denominator
    family: dict[int, int] = {}
    uncovered = t.R
    terms = 0  # the family's sum of |coefficients|
    c = 0
    for _, log_rs in _log_r_chunks(t, jw):
        for log_r in map(int, log_rs):
            c += 1
            delta, children = _offer(family, _pattern(t, log_r))
            if c > nc and not _accepts(uncovered, delta, num, den):
                continue
            uncovered += delta
            terms += _commit(family, children)
            if stats is not None and terms > stats.get("terms_peak", 0):
                stats["terms_peak"] = terms
            if uncovered == 0:
                return True
    return False


def check_element_membership_cover(q: int) -> MembershipResult:
    """Decide element-set membership via the inclusion-exclusion counter:
    one accept/reject pass, `check_w` at nc = 10, factor = 3/4, for each w
    the `logs` checker passes, then the direct pass decides every w it
    leaves and lists the failures.  So what `ie` checks on its own is that
    its signed count reaches zero only at fully covered w."""
    F = fd.build_field(q)
    t = _uv_tables(F)
    stats = {"stage_passes": [0], "terms_peak": 0}

    def settled(jw: int) -> bool:
        hit = check_w(F, int(t.exp[jw]), 10, Fraction(3, 4), stats)
        stats["stage_passes"][0] += hit
        return hit

    return _element_membership(F, "ie", stats, settled)


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
        xy = _pair_witness(t, 0, jw)
        out[name] = (False, None) if xy is None else (True, tuple(int(t.exp[x]) for x in xy))
    return out
