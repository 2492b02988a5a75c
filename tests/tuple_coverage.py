"""The signed coverage family with each pattern kept as a tuple of per-prime
bitsets, as an oracle for the one-integer patterns of `uvprim.verify`:
`rung_settles` is the `ie` checker's one accept-or-discard pass,
`verify._rung_settles`, at its one setting.

A pattern here holds, for each prime p of R = Rad(q - 1), the bitset of
the residues l mod p that are still admissible; its size is the product of
the popcounts and two patterns meet prime by prime.  The log r values come
from the package's add-one table (`verify._log_r_chunks`), so only the
family bookkeeping is independent.
"""

from math import prod

from uvprim import ntcore
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


def rung_settles(t, jw, stats):
    """`verify._rung_settles` on tuple patterns: the first 10 offers are
    taken, later ones only if they leave at most 3/4 of the uncovered
    count; the family's |coefficients| are re-summed after every commit
    for `stats["terms_peak"]`."""
    primes = ntcore.profile(t.R).primes
    family = {}
    uncovered = t.R
    offered = 0
    for _, log_rs in vf._log_r_chunks(t, jw):
        for log_r in map(int, log_rs):
            offered += 1
            delta, children = offer(family, pattern(primes, log_r))
            if offered > 10 and 4 * (uncovered + delta) > 3 * uncovered:
                continue
            uncovered += delta
            commit(family, children)
            peak = sum(abs(coef) for coef, _ in family.values())
            stats["terms_peak"] = max(stats["terms_peak"], peak)
            if uncovered == 0:
                stats["stage_passes"][0] += 1
                return True
    return False
