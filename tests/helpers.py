"""Shared oracles and reference data for the test suite.

The brute-force counters here are deliberately written in the dumbest
possible style (explicit loops over field elements) so the fast
implementations are checked against code with no shared structure.
"""

import json
from collections import Counter
from importlib import resources

import numpy as np

from uvprim import field as fd
from uvprim import ntcore as nt
from uvprim import verify as vf

# The two frozen exceptional sets, shipped with the package so the CLI's
# --expect flag has ready-made reference lists.
EXC_ELEMENT = tuple(json.loads(resources.files("uvprim.data").joinpath("exceptional_element.json").read_text()))
EXC_PAIR = tuple(json.loads(resources.files("uvprim.data").joinpath("exceptional_pair.json").read_text()))


def brute_M(F, u, v):
    """Count primitive a with u*a + v*a^-1 nonzero and primitive."""
    count = 0
    for a in fd.primitive_elements(F):
        t = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, fd.inv(F, a)))
        if t != 0 and fd.is_primitive(F, t):
            count += 1
    return count


def brute_N(F, u, v):
    """Count primitive pairs (a, b) with u*a + v*b and v*a^-1 + u*b^-1
    both nonzero and primitive."""
    prim = fd.primitive_elements(F)
    count = 0
    for a in prim:
        ai = fd.inv(F, a)
        for b in prim:
            t3 = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, b))
            if t3 == 0 or not fd.is_primitive(F, t3):
                continue
            t4 = fd.add(F, fd.mul(F, v, ai), fd.mul(F, u, fd.inv(F, b)))
            if t4 != 0 and fd.is_primitive(F, t4):
                count += 1
    return count


def brute_M_free(F, u, v, e1, e2):
    """M_{e1,e2}: a is e1-free, u*a + v*a^-1 nonzero and e2-free."""
    count = 0
    for a in range(1, F.q):
        if not fd.is_e_free(F, a, e1):
            continue
        t = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, fd.inv(F, a)))
        if t != 0 and fd.is_e_free(F, t, e2):
            count += 1
    return count


def brute_N_free(F, u, v, e1, e2, e3, e4):
    """N_{e1,e2,e3,e4}: a is e1-free, b is e2-free, u*a + v*b nonzero and
    e3-free, v*a^-1 + u*b^-1 nonzero and e4-free."""
    count = 0
    for a in range(1, F.q):
        if not fd.is_e_free(F, a, e1):
            continue
        ai = fd.inv(F, a)
        for b in range(1, F.q):
            if not fd.is_e_free(F, b, e2):
                continue
            t3 = fd.add(F, fd.mul(F, u, a), fd.mul(F, v, b))
            if t3 == 0 or not fd.is_e_free(F, t3, e3):
                continue
            t4 = fd.add(F, fd.mul(F, v, ai), fd.mul(F, u, fd.inv(F, b)))
            if t4 != 0 and fd.is_e_free(F, t4, e4):
                count += 1
    return count


def int64_tables(F):
    """(exp, log, L1) as int64 arrays of sizes q - 1, q and q - 1, built in
    whole-table passes: exp by blocks of powers of gamma (prime fields) or
    by a matrix on base-p digit vectors (extension fields), log by one
    scatter of an arange, and L1 = log(exp + 1) through the low base-p digit
    of exp, the way the package built them before its tables were int32."""
    p, r, n = F.p, F.r, F.q - 1
    exp = np.empty(n, dtype=np.int64)
    m = min(n, 1 << 12)
    x = 1
    for j in range(m):
        exp[j] = x
        x = fd.mul(F, x, F.gamma)
    if n > m and r == 1:
        gm = pow(F.gamma, m, p)
        for a in range(m, n, m):
            b = min(a + m, n)
            exp[a:b] = exp[a - m : b - m] * gm % p
    elif n > m:
        gm = fd.power(F, F.gamma, m)
        M = np.empty((r, r), dtype=np.int64)
        for i in range(r):
            M[:, i] = fd.to_coeffs(F, fd.mul(F, gm, fd.from_coeffs(F, [int(k == i) for k in range(r)])))
        pw = p ** np.arange(r, dtype=np.int64)
        digits = np.array([fd.to_coeffs(F, int(e)) for e in exp[:m]], dtype=np.int64)
        for a in range(m, n, m):
            b = min(a + m, n)
            digits = digits[: b - a] @ M.T % p
            exp[a:b] = digits @ pw
    log = np.full(F.q, -1, dtype=np.int64)
    log[exp] = np.arange(n, dtype=np.int64)
    low = exp % p
    L1 = log[exp - low + (low + 1) % p]
    return exp, log, L1


def whole_range_M_free(q, u, v, e1=None, e2=None):
    """M_{e1,e2}(q, u, v) the way `verify.count_single_free` counted it
    before it paired x with -x: the target mask filled by boolean
    compression, and every e1-free exponent x in [0, q - 1) summed."""
    F = fd.build_field(q)
    exp = fd.exp_table(F)
    n = exp.size
    m1, m2 = (nt.coprime_mask(n, nt.profile(n if e is None else e).primes) for e in (e1, e2))
    ju, jv = fd.discrete_log(F, u), fd.discrete_log(F, v)
    target = np.zeros(q, dtype=bool)
    for lo in range(0, n, fd.TABLE_SLICE):
        target[exp[lo : lo + fd.TABLE_SLICE][m2[lo : lo + fd.TABLE_SLICE]]] = True
    count = 0
    for lo in range(0, n, fd.TABLE_SLICE):
        xs = np.flatnonzero(m1[lo : lo + fd.TABLE_SLICE]) + lo
        s = fd.add(F, exp.take(xs + ju, mode="wrap"), exp.take(jv - xs, mode="wrap"))
        count += int(np.count_nonzero(target[s]))
    return count


def per_w_element_failures(q):
    """The element failures (packed (u, v), sorted by (log u, log v)) the
    way `verify._element_membership` listed them before it passed one w per
    class mod gcd(2R, q - 1): the direct pass at every log w = jw <= (q -
    1)/2, and w^-1 mirrored from w (a witness a for (u, v) is one, a^-1,
    for (v, u))."""
    t = vf._uv_tables(fd.build_field(q))
    bad = []
    for jw in range(t.n // 2 + 1):
        for k in map(int, vf._uncovered_for_w(t, jw, Counter())):
            bad.append((k, (k + jw) % t.n))
            if 2 * jw % t.n:  # jw = 0 and jw = n/2 are their own mirrors
                bad.append(((k + jw) % t.R, ((k + jw) % t.R - jw) % t.n))
    return tuple((int(t.exp[ju]), int(t.exp[jv])) for ju, jv in sorted(bad))


def element_failure_classes(q):
    """The classes (log u mod R, log w mod g), g = gcd(2R, q - 1), of the
    element failures, the way `verify.check_pair_membership_lift` found them
    before `verify._failing_classes` handed them over: every listed (u, v)
    mapped back through the log table."""
    t = vf._uv_tables(fd.build_field(q))
    failures = vf.check_element_membership_logs(q).failures
    return {(int(t.log[u]) % t.R, int(t.log[v] - t.log[u]) % t.g) for u, v in failures}
