"""Exhaustive verification of (u,v)-primitivity over a whole field.

Everything runs in the exponent domain.  Fix the generator gamma and write
n = q - 1.  For nonzero u, v with w = u^-1 v and a = gamma^m:

    u a + v a^-1 = u * r,      r = a + w a^-1 = gamma^m (1 + gamma^(jw - 2m)),

so with L1[t] = log(1 + gamma^t) (the "add one" log table, -1 where the sum
vanishes) the log of r is m + L1[(jw - 2m) mod n], and u*r is primitive iff
gcd(log u + log r, R) = 1 where R = Rad(n).  No field multiplications happen
in any hot loop -- just index arithmetic on numpy arrays.

Three checkers:

* `check_element_membership_logs` -- direct coverage over residues
  log u mod R, one nonzero w at a time (the only thing that matters about u
  is its log mod R, so each w contributes at most R failing classes);
* `check_element_membership_cover` -- same decision, but counting the
  uncovered classes by inclusion-exclusion over tiny per-prime bitsets
  (`coverage_term` / `coverage_merge` / `check_w`), with an
  accept-or-discard ladder that keeps the term family small;
* `check_pair_membership` -- brute force over (u,v) orbits for the pair
  problem, vectorized over the second primitive element.

Counts (`count_pairs_free`, `count_single_free` and the *_grid variants) are
exact and sit behind the same L1 machinery; they are what the interval bounds
get sandwich-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidDivisorError
from . import field as fd
from .ntcore import profile

__all__ = [
    "CoverageState",
    "CoverageTerm",
    "MembershipResult",
    "PairCountQuery",
    "SingleCountQuery",
    "check_element_membership_cover",
    "check_element_membership_logs",
    "check_pair_membership",
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

@lru_cache(maxsize=32)
def _uv_tables(F: fd.FieldSpec):
    """(n, R, rad primes, L1, primitive exponents, units mod R) for F."""
    n = F.q - 1
    prof = F.q_minus_1
    R = prof.radical
    T = fd.log_table(F)
    exp, log = T.exp, T.log
    # add 1 to the low base-p digit; no carries in characteristic p
    low = exp % F.p
    plus_one = exp - low + (low + 1) % F.p
    L1 = log[plus_one]
    prim_m = np.nonzero(np.gcd(np.arange(n, dtype=np.int64), n) == 1)[0]
    units_R = np.nonzero(np.gcd(np.arange(R, dtype=np.int64), R) == 1)[0]
    return n, R, prof.primes, L1, prim_m, units_R


def _free_mask(n: int, e: int) -> np.ndarray:
    """mask[x] = True iff gamma**x is e-free, i.e. gcd(x, Rad(e)) = 1."""
    rad = profile(e).radical
    return np.gcd(np.arange(n, dtype=np.int64), rad) == 1


def _check_divisor(n: int, e: int) -> int:
    if e < 1 or n % e:
        raise InvalidDivisorError(f"e={e} does not divide q-1={n}")
    return e


# --------------------------------------------------------------------------
# spot checks

def is_uv_primitive_element(F: fd.FieldSpec, a: int, u: int, v: int) -> bool:
    """a primitive and u*a + v*a^-1 nonzero primitive."""
    if a == 0 or not fd.is_primitive(F, a):
        return False
    s = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, fd.inv(F, a)))
    return s != 0 and fd.is_primitive(F, s)


def is_uv_primitive_pair(F: fd.FieldSpec, a: int, b: int, u: int, v: int) -> bool:
    """(a, b) primitive with u*a + v*b and v*a^-1 + u*b^-1 nonzero primitive."""
    if 0 in (a, b) or not (fd.is_primitive(F, a) and fd.is_primitive(F, b)):
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
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    es = [_check_divisor(n, e) if e is not None else n for e in (query.e1, query.e2, query.e3, query.e4)]
    m1, m2, m3, m4 = (_free_mask(n, e) for e in es)
    ju = fd.discrete_log(F, query.u)
    jv = fd.discrete_log(F, query.v)
    jw = (jv - ju) % n
    ys = np.nonzero(m2)[0]
    total = 0
    for x in map(int, np.nonzero(m1)[0]):
        l1 = L1[(jw + ys - x) % n]
        valid = l1 >= 0
        log3 = (ju + x + l1) % n
        log4 = (log3 - x - ys) % n
        total += int(np.count_nonzero(valid & m3[log3] & m4[log4]))
    return total


def count_single_free(query: SingleCountQuery) -> int:
    fd.check_nonzero(query.q, u=query.u, v=query.v)
    F = fd.build_field(query.q)
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    e1 = _check_divisor(n, query.e1) if query.e1 is not None else n
    e2 = _check_divisor(n, query.e2) if query.e2 is not None else n
    m1, m2 = _free_mask(n, e1), _free_mask(n, e2)
    ju = fd.discrete_log(F, query.u)
    jw = (fd.discrete_log(F, query.v) - ju) % n
    xs = np.nonzero(m1)[0]
    l1 = L1[(jw - 2 * xs) % n]
    valid = l1 >= 0
    log2 = (ju + xs + l1) % n
    return int(np.count_nonzero(valid & m2[log2]))


def single_count_grid(q: int, e1: int | None = None, e2: int | None = None) -> np.ndarray:
    """grid[ju, jv] = the count of `count_single_free` at u = gamma**ju,
    v = gamma**jv -- every (u, v) at once via one circular correlation
    per difference jw."""
    F = fd.build_field(q)
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    m1 = _free_mask(n, _check_divisor(n, e1) if e1 is not None else n)
    m2 = _free_mask(n, _check_divisor(n, e2) if e2 is not None else n)
    xs = np.nonzero(m1)[0]
    m2t = np.tile(m2, 2).astype(np.int64)
    grid = np.empty((n, n), dtype=np.int64)
    ju_idx = np.arange(n)
    for jw in range(n):
        l1 = L1[(jw - 2 * xs) % n]
        s = (xs + l1)[l1 >= 0] % n  # log r per surviving a
        h = np.bincount(s, minlength=n)
        cnt = np.correlate(m2t, h, mode="valid")[:n]
        grid[ju_idx, (ju_idx + jw) % n] = cnt
    return grid


def pair_count_grid(q: int, es: tuple[int | None, int | None, int | None, int | None] = (None,) * 4) -> np.ndarray:
    """grid[ju, jv] = the count of `count_pairs_free` at u = gamma**ju,
    v = gamma**jv.  O(n^4) index work; meant for small q."""
    F = fd.build_field(q)
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    masks = [_free_mask(n, _check_divisor(n, e) if e is not None else n) for e in es]
    m1, m2, m3, m4 = masks
    xs = np.nonzero(m1)[0]
    ys = np.nonzero(m2)[0]
    m3t = np.tile(m3, 2)
    m4t = np.tile(m4, 3)  # B + ju can reach 2n + n
    grid = np.empty((n, n), dtype=np.int64)
    for jw in range(n):
        l1 = L1[(jw + ys[None, :] - xs[:, None]) % n]
        valid = l1 >= 0
        A = (xs[:, None] + l1) % n
        B = (A - xs[:, None] - ys[None, :]) % n + n  # keep indices positive
        Af, Bf = A[valid], B[valid]
        for ju in range(n):
            grid[ju, (ju + jw) % n] = np.count_nonzero(m3t[Af + ju] & m4t[Bf + ju - n])
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
    algorithm: str  # "logs" | "ie" | "brute"
    stats: dict


_CHUNK = 192


def _covered_for_w(n, R, L1, prim_m, units_R, jw, counters=None):
    """Boolean coverage over residues k = log u mod R for one w = gamma**jw,
    consuming primitive exponents lazily in chunks."""
    covered = np.zeros(R, dtype=bool)
    seen = np.zeros(R, dtype=bool)
    for lo in range(0, prim_m.size, _CHUNK):
        chunk = prim_m[lo : lo + _CHUNK]
        l1 = L1[(jw - 2 * chunk) % n]
        if counters is not None:
            counters["primitives_consumed"] += int(chunk.size)
            counters["logs_computed"] += int(np.count_nonzero(l1 >= 0))
        cs = np.unique((chunk + l1)[l1 >= 0] % n % R)
        new = cs[~seen[cs]]
        if new.size:
            seen[new] = True
            covered[(units_R[None, :] - new[:, None]) % R] = True
            if covered.all():
                break
    return covered


def check_element_membership_logs(q: int) -> MembershipResult:
    """Decide element-set membership by direct coverage (one pass per w)."""
    F = fd.build_field(q)
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    exp = fd.log_table(F).exp
    counters = {"primitives_consumed": 0, "logs_computed": 0}
    bad: list[tuple[int, int]] = []
    for jw in range(n):
        covered = _covered_for_w(n, R, L1, prim_m, units_R, jw, counters)
        for k in map(int, np.nonzero(~covered)[0]):
            bad.append((k, (k + jw) % n))
    bad.sort()
    failures = tuple((int(exp[k]), int(exp[jv])) for k, jv in bad)
    counters["w_values"] = n
    return MembershipResult(
        q=q, set="element", member=not failures, failures=failures,
        algorithm="logs", stats=counters,
    )


def check_pair_membership(q: int) -> MembershipResult:
    """Decide pair-set membership by brute force over (u, v) orbits.

    (u,v) and (v,u) are equivalent (swap and invert the witness pair), so
    only representatives with log u <= log v are tested and reported.
    """
    F = fd.build_field(q)
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    exp = fd.log_table(F).exp
    prim_mask = np.gcd(np.arange(n, dtype=np.int64), n) == 1
    pm3 = np.tile(prim_mask, 2)
    stats = {"orbits": 0, "witness_scans": 0}
    bad: list[tuple[int, int]] = []
    for ju in range(n):
        for jv in range(ju, n):
            stats["orbits"] += 1
            jw = (jv - ju) % n
            found = False
            for x in map(int, prim_m):
                l1 = L1[(jw + prim_m - x) % n]
                valid = l1 >= 0
                log3 = (ju + x + l1) % n
                log4 = (log3 - x - prim_m) % n
                stats["witness_scans"] += 1
                if np.any(valid & pm3[log3] & pm3[log4]):
                    found = True
                    break
            if not found:
                bad.append((ju, jv))
    failures = tuple((int(exp[a]), int(exp[b])) for a, b in bad)
    return MembershipResult(
        q=q, set="pair", member=not failures, failures=failures,
        algorithm="brute", stats=stats,
    )


# --------------------------------------------------------------------------
# inclusion-exclusion coverage

@dataclass(frozen=True)
class CoverageTerm:
    """One inclusion-exclusion term: per-prime residue bitsets (bit l set =
    residue l still admissible) and the generation = number of covered sets
    intersected to make it.  Only the generation's parity matters: it is the
    sign of the term in the uncovered count."""

    generation: int
    bitsets: tuple[int, ...]

    def size(self) -> int:
        out = 1
        for b in self.bitsets:
            out *= b.bit_count()
        return out


@dataclass(frozen=True)
class CoverageState:
    """A family of inclusion-exclusion terms for the union of accepted
    covered sets.  `uncovered` = R + sum over terms of (-1)^generation *
    |term| = the number of residue classes mod R not yet covered."""

    R: int
    primes: tuple[int, ...]
    terms: tuple[CoverageTerm, ...]
    uncovered: int


def coverage_start(q: int) -> CoverageState:
    """The empty state: nothing accepted, all R classes uncovered."""
    prof = profile(q - 1)
    return CoverageState(R=prof.radical, primes=prof.primes, terms=(), uncovered=prof.radical)


def _term_from_log(primes: tuple[int, ...], log_r: int) -> CoverageTerm:
    bits = tuple(((1 << p) - 1) & ~(1 << ((-log_r) % p)) for p in primes)
    return CoverageTerm(generation=1, bitsets=bits)


def coverage_term(F: fd.FieldSpec, w: int, a: int) -> CoverageTerm | None:
    """The covered-residue term contributed by one primitive a at this w:
    residues k with gcd(k + log r, R) = 1 where r = a + w*a^-1.  None when
    r = 0 (such a contributes nothing and is skipped)."""
    r = fd.add(F, a, fd.mul(F, w, fd.inv(F, a)))
    if r == 0:
        return None
    return _term_from_log(F.q_minus_1.primes, fd.discrete_log(F, r))


def _consolidate(terms: list[CoverageTerm]) -> tuple[CoverageTerm, ...]:
    # terms with the same bitsets and opposite parity cancel in every sum
    # they will ever appear in (their future intersections pair up too), so
    # drop matched pairs; this keeps the family near the number of distinct
    # patterns instead of 2^(accepted terms)
    net: dict[tuple[int, ...], int] = {}
    for t in terms:
        net[t.bitsets] = net.get(t.bitsets, 0) + (-1 if t.generation % 2 else 1)
    out = []
    for bits, m in net.items():
        if m:
            out.extend([CoverageTerm(generation=1 if m < 0 else 2, bitsets=bits)] * abs(m))
    return tuple(out)


def coverage_merge(
    state: CoverageState, term: CoverageTerm, always_accept: bool, factor: Fraction
) -> CoverageState:
    """Offer one new covered set to the state.

    The new term is intersected with every stored term (per-prime AND;
    empty products dropped) and appended, and the signed uncovered count is
    updated.  The result is committed iff `always_accept` or the new
    uncovered count is at most `factor` times the old one (exact rational
    comparison); otherwise the state is returned unchanged.
    """
    appended = [term]
    delta = -term.size()
    for t in state.terms:
        bits = tuple(b1 & b2 for b1, b2 in zip(t.bitsets, term.bitsets))
        nt = CoverageTerm(generation=t.generation + 1, bitsets=bits)
        size = nt.size()
        if size:
            appended.append(nt)
            delta += -size if nt.generation % 2 else size
    new_uncovered = state.uncovered + delta
    if not always_accept:
        if not isinstance(factor, Fraction):
            factor = Fraction(factor)
        if new_uncovered * factor.denominator > state.uncovered * factor.numerator:
            return state
    return CoverageState(
        R=state.R,
        primes=state.primes,
        terms=_consolidate(list(state.terms) + appended),
        uncovered=new_uncovered,
    )


def check_w(F: fd.FieldSpec, w: int, nc: int, factor: Fraction, stats: dict | None = None) -> bool:
    """One accept/reject pass for one w: True iff the accepted covered sets
    reach every residue class before the primitive-element list runs out.

    The first `nc` nonzero r values are always accepted; later ones only if
    they shrink the uncovered count to at most `factor` of its value.
    False only means *these* parameters gave up -- at nc = phi(q-1),
    factor = 1 everything is accepted and the answer is definitive.

    The term family lives in a consolidated map pattern -> (net signed
    coefficient, set size): the same signed sum `coverage_merge` maintains,
    just regrouped, so the uncovered counts agree exactly.
    """
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    jw = int(fd.log_table(F).log[w])
    if jw < 0:
        raise ZeroDivisionError("w must be non-zero")
    if not isinstance(factor, Fraction):
        factor = Fraction(factor)
    fnum, fden = factor.numerator, factor.denominator
    full = tuple((1 << p) - 1 for p in primes)
    fam: dict[tuple[int, ...], tuple[int, int]] = {}
    uncovered = R
    c = 0
    for lo in range(0, prim_m.size, _CHUNK):
        chunk = prim_m[lo : lo + _CHUNK]
        l1 = L1[(jw - 2 * chunk) % n]
        for log_r in map(int, (chunk + l1)[l1 >= 0] % n):
            c += 1
            new = tuple(m & ~(1 << ((-log_r) % p)) for m, p in zip(full, primes))
            children: list[tuple[tuple[int, ...], int, int]] = []
            delta = 0
            for bits, (coef, _) in fam.items():
                nb = tuple(b1 & b2 for b1, b2 in zip(bits, new))
                sz = 1
                for b in nb:
                    sz *= b.bit_count()
                if sz:
                    children.append((nb, -coef, sz))
                    delta -= coef * sz
            sz_new = 1
            for b in new:
                sz_new *= b.bit_count()
            children.append((new, -1, sz_new))
            delta -= sz_new
            if c > nc and (uncovered + delta) * fden > uncovered * fnum:
                continue
            uncovered += delta
            for nb, dcoef, sz in children:
                old = fam.get(nb)
                coef = (old[0] if old else 0) + dcoef
                if coef:
                    fam[nb] = (coef, sz)
                elif old:
                    del fam[nb]
            if stats is not None:
                peak = sum(abs(co) for co, _ in fam.values())
                if peak > stats.get("terms_peak", 0):
                    stats["terms_peak"] = peak
            if uncovered == 0:
                return True
    return False


_LADDER = ((10, Fraction(3, 4)), (10, Fraction(4, 5)), (12, Fraction(5, 6)))


def check_element_membership_cover(q: int) -> MembershipResult:
    """Decide element-set membership via the inclusion-exclusion counter,
    escalating through accept/reject parameters and finishing with an
    exhaustive pass, so both answers are definitive.  Failing (u, v) are
    then enumerated with the direct coverage pass (only failing w need it)."""
    F = fd.build_field(q)
    n, R, primes, L1, prim_m, units_R = _uv_tables(F)
    exp = fd.log_table(F).exp
    phi = prim_m.size
    stats = {"stage_passes": [0] * (len(_LADDER) + 1), "terms_peak": 0}
    bad: list[tuple[int, int]] = []
    for jw in range(n):
        w = int(exp[jw])
        for i, (nc, f) in enumerate(_LADDER + ((phi, Fraction(1)),)):
            if check_w(F, w, nc, f, stats):
                stats["stage_passes"][i] += 1
                break
        else:
            for k in map(int, np.nonzero(~_covered_for_w(n, R, L1, prim_m, units_R, jw))[0]):
                bad.append((k, (k + jw) % n))
    bad.sort()
    failures = tuple((int(exp[k]), int(exp[jv])) for k, jv in bad)
    return MembershipResult(
        q=q, set="element", member=not failures, failures=failures,
        algorithm="ie", stats=stats,
    )


# --------------------------------------------------------------------------
# the four classic special cases

_SPECIAL_CASES = ("element-sum", "element-diff", "pair-sum", "pair-diff")


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
    prims = fd.primitive_elements(F)
    minus_one = fd.neg(F, 1)
    out: dict[str, tuple[bool, tuple[int, ...] | int | None]] = {}
    for name, v in (("element-sum", 1), ("element-diff", minus_one)):
        hit = next((a for a in prims if is_uv_primitive_element(F, a, 1, v)), None)
        out[name] = (hit is not None, hit)
    for name, v in (("pair-sum", 1), ("pair-diff", minus_one)):
        hit = next(
            ((a, b) for a in prims for b in prims if is_uv_primitive_pair(F, a, b, 1, v)),
            None,
        )
        out[name] = (hit is not None, hit)
    return out
