"""The signed coverage family with each pattern kept as a tuple of per-prime
bitsets, as an oracle for the one-integer patterns of `uvprim.verify`.

A pattern here holds, for each prime p of R = Rad(q - 1), the bitset of
the residues l mod p that are still admissible; its size is the product of
the popcounts and two patterns meet prime by prime.  The log r values come
from the package's add-one table (`verify._log_r_chunks`), so only the
family bookkeeping is independent.
"""

from fractions import Fraction
from math import prod

from uvprim import field as fd
from uvprim import verify as vf


def pattern(primes, log_r):
    # gcd(k + log_r, R) = 1 iff k != -log_r mod every prime of R
    return tuple(((1 << p) - 1) & ~(1 << ((-log_r) % p)) for p in primes)


def offer(family, pat):
    """(change of the uncovered count, children) if the covered set `pat`
    joins the union: itself with coefficient -1, and its intersection with
    every stored pattern (empty ones dropped) with the stored coefficient
    negated."""
    size = prod(map(int.bit_count, pat))
    delta = -size
    children = [(pat, -1, size)]
    for bits, (coef, _) in family.items():
        meet = tuple(map(int.__and__, bits, pat))
        size = prod(map(int.bit_count, meet))
        if size:
            children.append((meet, -coef, size))
            delta -= coef * size
    return delta, children


def commit(family, children):
    for bits, dcoef, size in children:
        coef = family.get(bits, (0,))[0] + dcoef
        if coef:
            family[bits] = (coef, size)
        else:
            del family[bits]


def check_w(F, w, nc, factor, stats=None):
    """`verify.check_w` on tuple patterns, re-summing the family's
    |coefficients| after every commit for `stats["terms_peak"]`."""
    t = vf._uv_tables(F)
    jw = int(fd.log_table(F).log[w])
    factor = Fraction(factor)
    family = {}
    uncovered = t.R
    c = 0
    for _, log_rs in vf._log_r_chunks(t, jw):
        for log_r in map(int, log_rs):
            c += 1
            delta, children = offer(family, pattern(t.primes, log_r))
            if c > nc and (uncovered + delta) * factor.denominator > uncovered * factor.numerator:
                continue
            uncovered += delta
            commit(family, children)
            if stats is not None:
                peak = sum(abs(coef) for coef, _ in family.values())
                if peak > stats.get("terms_peak", 0):
                    stats["terms_peak"] = peak
            if uncovered == 0:
                return True
    return False
