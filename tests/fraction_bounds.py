"""The screening criteria written directly in `fractions.Fraction`, as an
oracle for the integer margins of `uvprim.screening`.

Each function returns (alpha, beta, scale) of one criterion: it holds iff
alpha > beta*sqrt(q), and its certified lower bound is scale times a
rational lower bound for alpha - beta*sqrt(q).  theta, tau and delta_j are
computed from their definitions here, not from the package's integer terms.
"""

from fractions import Fraction

from uvprim import ntcore as nt
from uvprim.errors import BoundNotApplicableError


def primes_of(m):
    return [p for p, _ in nt.factorize(m)]


def theta(primes):
    out = Fraction(1)
    for p in primes:
        out *= 1 - Fraction(1, p)
    return out


def tau(primes):
    out = Fraction(1)
    for p in primes:
        out *= 1 - Fraction(1, p - 1) + Fraction(1, (p - 1) ** 2)
    return out


def delta(j, primes):
    return 1 - j * sum((Fraction(1, p) for p in primes), Fraction(0))


def gt_sqrt(alpha, beta, q):
    """alpha > beta*sqrt(q), exactly, for rationals of any sign."""
    if beta == 0:
        return alpha > 0
    if beta > 0:
        return alpha > 0 and alpha * alpha > beta * beta * q
    return alpha >= 0 or alpha * alpha < beta * beta * q


def lower_bound(alpha, beta, scale, q):
    lo, hi = nt.sqrt_bounds(q)
    return scale * (alpha - beta * (hi if beta >= 0 else lo))


def _stats(q):
    primes = primes_of(q - 1)
    return primes, theta(primes), tau(primes), 2 ** len(primes)


def prime_pair_interval(p):
    _, th, ta, w = _stats(p)
    return th**3 * ta * (p - 1) ** 2, 5 * th**4 * w**4 * p, 1


def pair_interval(q):
    _, th, ta, w = _stats(q)
    return th**3 * ta * (q - 1) * q, th**4 * w**3 * (q - 1), 1


def _config(q, s):
    """(primes of k, sieving primes): the s largest primes of q - 1 are sieved."""
    primes = primes_of(q - 1)
    if not 0 <= s <= len(primes):
        raise BoundNotApplicableError(s)
    return primes[: len(primes) - s], primes[len(primes) - s :]


def pair_sieve(q, s):
    kept, sieving = _config(q, s)
    d4 = delta(4, sieving)
    if q <= 2 or d4 <= 0:
        raise BoundNotApplicableError(s)
    th, w = theta(kept), 2 ** len(kept)
    scale = d4 * th**3 * (q - 1)
    return scale * tau(kept) * q, scale * th * w**3, 1


def pair_sieve_asym(q, s):
    kept, sieving = _config(q, s)
    d3 = delta(3, sieving)
    if q <= 2 or d3 <= 0:
        raise BoundNotApplicableError(s)
    th, w = theta(kept), 2 ** len(kept)
    scale = th**2 * theta(kept + sieving) * (q - 1)
    return scale * d3 * tau(kept) * q, scale * th * w**3, 1


def pair_w6(q):
    return Fraction(q - 2 ** (6 * len(primes_of(q - 1)))), Fraction(0), 1


def element_interval(q, eps):
    _, th, _, w = _stats(q)
    return th**2 * (q - 1 - eps * w), 2 * th**2 * (w**2 - w - (1 / th - 1) / 2), 1


def element_sieve(q, s):
    kept, sieving = _config(q, s)
    d2 = delta(2, sieving)
    if q <= 3 or d2 <= 0:
        raise BoundNotApplicableError(s)
    w = 2 ** len(kept)
    C = Fraction(2 * s - 1) / d2 + 2
    return q - C * w, C * w * (2 * w - 1), theta(kept) ** 2


def element_w4(q):
    return Fraction(q - 4 * 2 ** (4 * len(primes_of(q - 1)))), Fraction(0), 1


SIEVES = {"element": element_sieve, "pair": pair_sieve, "pair-asym": pair_sieve_asym}


def best_config(q, objective):
    """(s, (alpha, beta, scale)) with the largest margin alpha - beta*sqrt(q)
    over every applicable s < max(omega(q - 1), 1); ties keep the smaller s."""
    best = None
    for s in range(max(len(primes_of(q - 1)), 1)):
        try:
            terms = SIEVES[objective](q, s)
        except BoundNotApplicableError:
            continue
        if best is None or gt_sqrt(terms[0] - best[1][0], terms[1] - best[1][1], q):
            best = (s, terms)
    return best
