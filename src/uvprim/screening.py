"""Sufficient criteria for the existence of (u,v)-primitive elements and pairs.

For a prime power q and nonzero u, v in F_q, write N(q,u,v) for the number of
pairs (a,b) of primitive elements such that ua+vb and va^-1+ub^-1 are both
primitive, and M(q,u,v) for the number of primitive a such that ua+va^-1 is
primitive.  ``q in the pair set`` means N > 0 for every nonzero (u,v);
``q in the element set`` means M > 0 for every nonzero (u,v), which implies
pair-set membership via (a, a^-1).

Every criterion here is a margin alpha - beta*sqrt(q) with rational alpha and
beta, built in one place per formula.  Each formula writes alpha = A/D and
beta = B/D with Python ints A, B and D > 0, from the integer numerators and
denominators of theta, tau and delta_j (`ntcore.density_terms`,
`ntcore.sieve_terms`).  The criterion holds iff A > B*sqrt(q), decided
*exactly* by sign analysis plus integer squaring, and `best_config` compares
two configs by cross-multiplying their denominators; no `Fraction` takes
part in a decision.  The `Fraction`s of a report (``lower_bound`` and the
config's deltas) are derived from those integers when they are read.
``lower_bound`` is a positive scale times a certified rational lower bound
for the margin, obtained through a tight rational enclosure of sqrt(q), and
is a lower bound for the true count.

With theta, tau, W as in `ntcore` and stats taken at q-1:

  pair interval (q > 2; the pair sieve below at s = 0):
      |N - theta^3 tau (q-1) q| <= theta^4 W^3 (q-1) sqrt(q)

  prime pair interval (odd prime p, classic form):
      |N - theta^3 tau (p-1)^2| <= 5 theta^4 W^4 p^(3/2)

Sieved refinements factor Rad(q-1) = k * p_1 ... p_s (the p_i are the s
largest primes of q-1 here) and take stats at k, with
delta_j = 1 - j * sum(1/p_i):

  pair sieve        (delta_4 > 0):  N >= delta_4 theta^3 (q-1) {tau q - theta W^3 sqrt(q)}
  pair sieve, asym  (delta_3 > 0):  N >= theta^2 theta(q-1) (q-1) {delta_3 tau q - theta W^3 sqrt(q)}

For the element count, with eps the number of roots of u a^2 + v (0 or 2 for
odd q, 1 for even q):

  element interval:
      |M - theta^2 (q-1-eps)| <= theta^2 {2 sqrt(q) [W^2 - W - (1/theta - 1)/2] + eps (W-1)}

  element sieve (q > 3, delta_2 > 0, stats at k, C = (2s-1)/delta_2 + 2):
      M > theta^2 sqrt(q) {sqrt(q) - 2C [W^2 - (W/2)(1 - 1/sqrt(q))]}

  whose positivity is exactly the workhorse criterion
      sqrt(q) > 2C [W^2 - (W/2)(1 - 1/sqrt(q))].

One evaluator, `_sieve`, weighs the sieving configs s: each per-s bound
calls it for one s, and `best_config` for all s to keep the report with the
largest margin (one objective serves all three sieves).  There is one stage
order: `screen` runs the element stage (W^4 criterion; the interval bound
when omega = 1, else the best element sieve), then the pair stage (pair
interval, best symmetric sieve, best asymmetric sieve), and stops at the
first criterion that holds.  `survey` reproduces, for one value of
omega(q-1), the finite candidate list that the element stage cannot settle;
`sweep` merges all surveys and sends each listed q through the pair stage,
giving the global needs-check list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

from .errors import BoundNotApplicableError
from . import field as fd
from .ntcore import (
    density_terms,
    first_primes,
    is_prime,
    omega_prime_powers,
    primorial,
    profile,
    sieve_terms,
)

__all__ = [
    "ELEMENT_PROVED",
    "NEEDS_CHECK",
    "PAIR_PROVED",
    "BoundReport",
    "ScreeningVerdict",
    "SieveConfig",
    "SurveyRow",
    "auto_threshold",
    "best_config",
    "element_interval",
    "element_sieve_criterion",
    "element_w4",
    "epsilon",
    "generic_q_max",
    "pair_interval",
    "pair_sieve_asym_bound",
    "pair_sieve_bound",
    "pair_w6",
    "prime_pair_interval",
    "screen",
    "sieve_config",
    "survey",
    "sweep",
]

ELEMENT_PROVED = "element_proved"
PAIR_PROVED = "pair_proved"
NEEDS_CHECK = "needs_check"


# --------------------------------------------------------------------------
# exact comparisons against beta*sqrt(q)

def _gt_sqrt(alpha: int, beta: int, q: int) -> bool:
    """Decide alpha > beta*sqrt(q) exactly for integers of any sign."""
    if beta == 0:
        return alpha > 0
    if beta > 0:
        return alpha > 0 and alpha * alpha > beta * beta * q
    # beta < 0: RHS negative
    return alpha >= 0 or alpha * alpha < beta * beta * q


# --------------------------------------------------------------------------
# report types

@dataclass(frozen=True)
class SieveConfig:
    """A factorization Rad(q-1) = k * P, P the product of the s sieving
    primes (the s largest primes of q-1).  With `slack` = sum(P/p),
    delta_j = 1 - j * sum(1/p) is `delta_num(j)`/P: the bounds use that
    integer numerator, and the `Fraction`s `delta2`, `delta3`, `delta4` are
    derived on access."""

    k: int
    sieving_primes: tuple[int, ...]
    s: int
    product: int
    slack: int

    def delta_num(self, j: int) -> int:
        return self.product - j * self.slack

    @property
    def delta2(self) -> Fraction:
        return Fraction(self.delta_num(2), self.product)

    @property
    def delta3(self) -> Fraction:
        return Fraction(self.delta_num(3), self.product)

    @property
    def delta4(self) -> Fraction:
        return Fraction(self.delta_num(4), self.product)


@dataclass(frozen=True)
class BoundReport:
    """One criterion evaluated at one q.  Its margin alpha - beta*sqrt(q) is
    (A - B*sqrt(q))/D with `terms` = (A, B, D), ints and D > 0: the
    criterion holds iff A > B*sqrt(q).  `lower_bound`, a `Fraction`
    derived on access, is a certified rational lower bound for the relevant
    count (or criterion margin): the positive `scale` (numerator,
    denominator) times a rational lower bound for alpha - beta*sqrt(q)."""

    theorem: str
    q: int
    holds: bool
    terms: tuple[int, int, int]
    scale: tuple[int, int] = (1, 1)
    config: SieveConfig | None = None
    epsilon: int | None = None

    @property
    def lower_bound(self) -> Fraction:
        A, B, D = self.terms
        # root / 2**40 is sqrt_bounds(q)'s hi if B >= 0, else its lo, so that
        # B*root / 2**40 >= B*sqrt(q)
        root = isqrt(self.q << 80) + (B >= 0)
        num, den = self.scale
        return Fraction(num * ((A << 40) - B * root), (den * D) << 40)


def _report(theorem: str, q: int, A: int, B: int, D: int, scale: tuple[int, int] = (1, 1), **extra) -> BoundReport:
    """The one constructor of every criterion's report."""
    return BoundReport(theorem=theorem, q=q, holds=_gt_sqrt(A, B, q), terms=(A, B, D), scale=scale, **extra)


@dataclass(frozen=True)
class ScreeningVerdict:
    q: int
    status: str  # ELEMENT_PROVED | PAIR_PROVED | NEEDS_CHECK
    witness: BoundReport | None
    all_reports: tuple[BoundReport, ...]


@dataclass(frozen=True)
class SurveyRow:
    """Everything the coarse criteria say about one value of omega(q-1)."""

    omega: int
    chosen_s: int | None
    q_min: int
    q_max: int
    candidates: int
    failing_primes: tuple[int, ...]
    failing_prime_powers: tuple[int, ...]

    @property
    def failing_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.failing_primes + self.failing_prime_powers))


# --------------------------------------------------------------------------
# configs

def _split(primes: tuple[int, ...] | list[int], s: int):
    """(kept, sieving, P, slack) when the s largest of `primes` are sieved:
    `kept` are the primes of k and delta_j = (P - j*slack)/P."""
    if not 0 <= s <= len(primes):
        raise BoundNotApplicableError(f"s={s} out of range for omega={len(primes)}")
    kept, sieving = primes[: len(primes) - s], primes[len(primes) - s :]
    return kept, sieving, *sieve_terms(sieving)


def sieve_config(q: int, s: int) -> SieveConfig:
    """Sieve the s largest primes of q-1; stats at the cofactor k."""
    prof = profile(q - 1)
    _, sieving, P, slack = _split(prof.primes, s)
    return SieveConfig(k=prof.radical // P, sieving_primes=sieving, s=s, product=P, slack=slack)


# --------------------------------------------------------------------------
# pair-count bounds
#
# With theta = a/b and tau = c/a**2 (`density_terms`), each bound's alpha and
# beta are put over one positive integer denominator.

def _prime_pair_interval_terms(p: int, primes: tuple[int, ...]) -> tuple[int, int, int]:
    """alpha = theta^3 tau (p-1)^2 and beta = 5 theta^4 W^4 p, over b^4, with
    theta, tau and W = 2^omega taken from `primes`."""
    a, b, c = density_terms(primes)
    w = 1 << len(primes)
    return a * c * (p - 1) ** 2 * b, 5 * a**4 * w**4 * p, b**4


def prime_pair_interval(p: int) -> BoundReport:
    """Classic interval bound for the pair count over a prime field (odd p)."""
    if p < 3 or not is_prime(p):
        raise BoundNotApplicableError("this bound needs an odd prime")
    return _report("prime-pair-interval", p, *_prime_pair_interval_terms(p, profile(p - 1).primes))


def pair_interval(q: int) -> BoundReport:
    """Interval bound for the pair count, q > 2: the pair sieve at s = 0."""
    if q <= 2:
        raise BoundNotApplicableError("the pair interval bound needs q > 2")
    return _report("pair-interval", q, *_pair_sieve_terms(q, 0, profile(q - 1).primes, 1, 1))


def _pair_sieve_terms(q: int, s: int, kept: tuple[int, ...], P: int, d4: int) -> tuple[int, int, int]:
    """alpha = scale tau q and beta = scale theta W^3 with scale =
    delta_4 theta^3 (q-1), stats at k, over P b^4 (delta_4 = d4/P)."""
    a, b, c = density_terms(kept)
    w = 1 << len(kept)
    return d4 * a * c * (q - 1) * q * b, d4 * a**4 * (q - 1) * w**3, P * b**4


def _pair_sieve_asym_terms(q: int, s: int, kept: tuple[int, ...], P: int, d3: int) -> tuple[int, int, int]:
    """alpha = scale delta_3 tau q and beta = scale theta W^3 with scale =
    theta^2 theta(q-1) (q-1), stats at k, over b^3 f P where theta(q-1) = e/f
    (delta_3 = d3/P)."""
    a, b, c = density_terms(kept)
    w = 1 << len(kept)
    e, f, _ = density_terms(profile(q - 1).primes)
    return e * (q - 1) * d3 * c * q * b, a**3 * e * (q - 1) * w**3 * P, b**3 * f * P


def pair_sieve_bound(q: int, s: int) -> BoundReport:
    """Sieved pair bound; needs q > 2 and delta_4 > 0."""
    return _sieve("pair", q, s)


def pair_sieve_asym_bound(q: int, s: int) -> BoundReport:
    """Asymmetric pair sieve; needs q > 2 and delta_3 > 0.  Often stronger
    than the symmetric sieve because it tolerates more sieving primes."""
    return _sieve("pair-asym", q, s)


def pair_w6(q: int) -> BoundReport:
    """Crude pair criterion q > W(q-1)**6; lower_bound is the margin."""
    return _report("pair-w6", q, q - profile(q - 1).w ** 6, 0, 1)


# --------------------------------------------------------------------------
# element-count bounds

def epsilon(q: int, u: int, v: int) -> int:
    """The number of roots of u*a**2 + v in F_q (all such roots are nonzero):
    1 for even q; for odd q, 2 if -v/u is a square and 0 otherwise."""
    F = fd.build_field(q)
    fd.check_nonzero(F, u=u, v=v)
    if F.p == 2:
        return 1
    w = fd.mul(F, fd.neg(F, v), fd.inv(F, u))
    return 2 if fd.is_square(F, w) else 0


def element_interval(q: int, eps: int | None = None) -> BoundReport:
    """Interval bound for the element count.  `eps` is the exact root count
    for a specific (u,v); None takes the worst case for q's parity."""
    if eps is None:
        eps = 2 if q % 2 else 1
    st = profile(q - 1)
    a, b, _ = density_terms(st.primes)
    return _report("element-interval", q, *_element_interval_terms(q, a, b, st.w, eps), epsilon=eps)


def _element_interval_terms(q: int, a: int, b: int, w: int, eps: int) -> tuple[int, int, int]:
    """alpha = theta^2 (q-1-eps W) and beta = 2 theta^2 (W^2 - W - (1/theta -
    1)/2), over b^2, for theta = a/b."""
    return a * a * (q - 1 - eps * w), 2 * a * a * (w * w - w) - a * (b - a), b * b


def element_sieve_criterion(q: int, s: int) -> BoundReport:
    """Sieved element criterion: with C = (2s-1)/delta_2 + 2 and stats at k,
    membership follows from sqrt(q) > 2C[W^2 - (W/2)(1 - 1/sqrt(q))], i.e.
    exactly from (q - CW) > (2CW^2 - CW) sqrt(q) after clearing sqrt(q).
    Needs q > 3 and delta_2 > 0.  The margin terms are (q - CW, CW(2W - 1));
    lower_bound certifies theta^2 {(q - CW) - (2CW^2 - CW) sqrt(q)}, a lower
    bound for the count."""
    return _sieve("element", q, s)


def _element_sieve_margin(q: int, s: int, P: int, d2: int, w: int) -> tuple[int, int]:
    """The element sieve's margin terms (q - CW, CW(2W - 1)) times d2 > 0,
    where delta_2 = d2/P and C = (2s-1)/delta_2 + 2, so that
    C*d2 = (2s-1)P + 2*d2 is an integer."""
    cd2 = (2 * s - 1) * P + 2 * d2
    return q * d2 - cd2 * w, cd2 * w * (2 * w - 1)


def _element_sieve_terms(q: int, s: int, kept: tuple[int, ...], P: int, d2: int) -> tuple[int, int, int]:
    """The element sieve's margin over d2, with W = 2**omega(k)."""
    return (*_element_sieve_margin(q, s, P, d2, 1 << len(kept)), d2)


def _element_sieve_scale(kept: tuple[int, ...]) -> tuple[int, int]:
    """theta(k)^2, the positive factor from the margin to the count bound."""
    a, b, _ = density_terms(kept)
    return a * a, b * b


def element_w4(q: int) -> BoundReport:
    """Crude element criterion q > 4*W(q-1)**4; lower_bound is the margin."""
    return _report("element-w4", q, q - 4 * profile(q - 1).w ** 4, 0, 1)


# --------------------------------------------------------------------------
# the sieves and their best configuration

# objective -> (theorem, the j whose delta_j must be positive, least q,
# margin terms (A, B, D) from (q, s, primes of k, P, delta_j * P), scale of
# the reported bound from the primes of k, or None for 1)
_SIEVES = {
    "element": ("element-sieve", 2, 4, _element_sieve_terms, _element_sieve_scale),
    "pair": ("pair-sieve", 4, 3, _pair_sieve_terms, None),
    "pair-asym": ("pair-sieve-asym", 3, 3, _pair_sieve_asym_terms, None),
}


def _sieve(objective: str, q: int, s: int | None = None) -> BoundReport:
    """The report of one sieve at config s or, for s=None, the one of
    largest margin over s = 0 .. omega(q-1)-1 (ties keep the smaller s),
    carrying P and slack from each s to the next; only that report and its
    config are built.  BoundNotApplicableError if q is too small, s out of
    range or the first delta_j <= 0."""
    theorem, j, q_least, terms, scale = _SIEVES[objective]
    if q < q_least:
        raise BoundNotApplicableError(f"the {theorem} bound needs q > {q_least - 1}")
    prof = profile(q - 1)
    primes, omega = prof.primes, prof.omega
    if s is None:
        first, stop, P, slack = 0, max(omega, 1), 1, 0
    else:
        first, stop, P, slack = s, s + 1, *_split(primes, s)[2:]
    best = None
    for s in range(first, stop):
        if s > first:  # sieve one more prime p: P' = P*p, slack' = p*slack + P
            p = primes[omega - s]
            P, slack = P * p, p * slack + P
        d = P - j * slack
        if d <= 0:
            break  # each further s sieves one more prime, so delta_j only falls
        kept = primes[: omega - s]
        A, B, D = terms(q, s, kept, P, d)
        # A/D - B/D sqrt(q) beats A0/D0 - B0/D0 sqrt(q)
        #   <=>  (A D0 - A0 D) > (B D0 - B0 D) sqrt(q)
        if best is None or _gt_sqrt(A * best[2] - best[0] * D, B * best[2] - best[1] * D, q):
            best, winner = (A, B, D), (s, kept, P, slack)
    if best is None:
        raise BoundNotApplicableError(f"delta_{j} = {Fraction(d, P)} <= 0")
    s, kept, P, slack = winner
    cfg = SieveConfig(k=prof.radical // P, sieving_primes=primes[len(kept) :], s=s, product=P, slack=slack)
    return _report(theorem, q, *best, scale(kept) if scale else (1, 1), config=cfg)


def best_config(q: int, objective: str) -> BoundReport | None:
    """The sieved report with the largest margin alpha - beta*sqrt(q) for one
    of the objectives "element", "pair" and "pair-asym", weighed by `_sieve`.

    For "element" the margin is (q - CW) - CW(2W - 1) sqrt(q), so the best
    config is the one with the smallest criterion RHS
    2C[W^2 - (W/2)(1 - 1/sqrt(q))]; for the pair sieves it is the exact lower
    bound up to its positive scale.  The best report holds iff some config
    holds.  Returns None when no config is applicable.
    """
    try:
        return _sieve(objective, q)
    except BoundNotApplicableError:
        return None


# --------------------------------------------------------------------------
# screening one q

def _element_stage(q: int):
    """The element-set criteria for q, lazily, in the order they are tried."""
    omega = profile(q - 1).omega
    yield element_w4(q)
    if omega == 1:
        yield element_interval(q)
    if omega >= 2:
        rep = best_config(q, "element")
        if rep is not None:
            yield rep


def _pair_stage(q: int):
    """The pair-set criteria for q, lazily, in the order they are tried."""
    if q <= 2:
        return
    yield pair_interval(q)
    for objective in ("pair", "pair-asym"):
        rep = best_config(q, objective)
        if rep is not None:
            yield rep


_STAGES = ((ELEMENT_PROVED, _element_stage), (PAIR_PROVED, _pair_stage))


def _classify(q: int, stages) -> ScreeningVerdict:
    """Try each stage's criteria in turn; the first that holds is the witness."""
    reports: list[BoundReport] = []
    for status, stage in stages:
        for rep in stage(q):
            reports.append(rep)
            if rep.holds:
                return ScreeningVerdict(q, status, rep, tuple(reports))
    return ScreeningVerdict(q, NEEDS_CHECK, None, tuple(reports))


def screen(q: int) -> ScreeningVerdict:
    """Run the criteria in order of strength of conclusion: the element stage
    first (element-set membership implies pair-set membership), then the pair
    stage, else needs-check."""
    return _classify(q, _STAGES)


# --------------------------------------------------------------------------
# worst-case models and the survey

def _generic_element_passes(q: int, omega: int, s: int | None) -> bool:
    """Whether every field with this omega(q-1) and this order q passes the
    chosen criterion, using worst-case densities over all such fields
    (`generic_q_max` has checked that their delta_2 is positive)."""
    if omega == 1:
        # interval bound in the worst case theta = 1, W = 2, eps = 2
        return _gt_sqrt(*_element_interval_terms(q, 1, 1, 2, 2)[:2], q)
    P, d2 = _worst_sieve(omega, s)
    return _gt_sqrt(*_element_sieve_margin(q, s, P, d2, 1 << (omega - s)), q)


def _worst_sieve(omega: int, s: int) -> tuple[int, int]:
    """(P, d2) with delta_2 = d2/P when the s sieving primes are the largest
    of the first omega primes: the worst case over all q with
    omega(q-1) = omega."""
    _, _, P, slack = _split(first_primes(omega), s)
    return P, P - 2 * slack


def generic_q_max(omega: int, s: int | None = None) -> int:
    """The largest q that the worst-case criterion fails to settle for this
    omega (the failing region is an initial segment, so bisection is exact)."""
    if omega >= 2 and _worst_sieve(omega, s)[1] <= 0:
        raise BoundNotApplicableError(f"worst-case delta_2 <= 0 for omega={omega}, s={s}")
    lo, hi = 1, 64
    while not _generic_element_passes(hi, omega, s):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _generic_element_passes(mid, omega, s):
            hi = mid
        else:
            lo = mid
    return lo


def survey(omega: int, lo: int = 2, hi: int | float = inf) -> SurveyRow:
    """For one omega, the exact finite list of q that the element criteria
    cannot settle: pick the s whose worst-case model has the smallest q_max,
    list the prime powers q <= q_max with omega(q - 1) == omega, and
    re-test each with the element stage of `screen` at its own exact
    densities.

    The candidates come from `omega_prime_powers`, which builds them from
    the factorisation of q - 1, and only those in [lo, hi] are listed and
    re-tested; the row's q_min, q_max and chosen_s stay its own."""
    if omega < 1:
        raise ValueError("the survey covers omega >= 1")
    if omega == 1:
        chosen_s, q_max = None, generic_q_max(1)
    else:
        chosen_s, q_max = min(
            ((s, generic_q_max(omega, s)) for s in range(1, omega) if _worst_sieve(omega, s)[1] > 0),
            key=lambda t: (t[1], t[0]),
        )
    q_min = primorial(omega) + 1
    failing_p, failing_pp = [], []
    candidates = omega_prime_powers(max(q_min, lo), min(q_max, hi), omega)
    for pp in candidates:
        if not any(rep.holds for rep in _element_stage(pp.q)):
            (failing_p if pp.r == 1 else failing_pp).append(pp.q)
    return SurveyRow(
        omega=omega,
        chosen_s=chosen_s,
        q_min=q_min,
        q_max=q_max,
        candidates=len(candidates),
        failing_primes=tuple(failing_p),
        failing_prime_powers=tuple(failing_pp),
    )


MAX_SURVEY_OMEGA = 8


def sweep(min_q: int = 2, max_q: int | None = None) -> tuple[list[SurveyRow], list[ScreeningVerdict]]:
    """All surveys for omega = 1 .. 8 (beyond 8 the crude criteria pass
    everything; the tests verify that claim separately) restricted to the
    window [min_q, max_q], and a merged, ascending list of verdicts for
    every element-unproven q, each pushed through the pair stage of
    `screen`.  Rows enumerate only the window.  q = 2, the one prime power
    with omega(q - 1) = 0 and so in no row, fails both stages and is listed
    first when the window holds it."""
    hi = inf if max_q is None else max_q
    rows = [survey(om, min_q, hi) for om in range(1, MAX_SURVEY_OMEGA + 1)]
    qs = [2] if min_q <= 2 <= hi else []
    qs += sorted(x for row in rows for x in row.failing_list)
    verdicts = [_classify(q, _STAGES[1:]) for q in qs]
    return rows, verdicts


# --------------------------------------------------------------------------
# asymptotic autopass thresholds

def auto_threshold(kind: str = "pair", horizon: int = 300) -> int:
    """The least omega from which the interval criterion passes every q with
    omega(q-1) = omega, in the worst-case model q - 1 = primorial(omega).

    kind "pair" uses the pair interval, the pair sieve at s = 0 (positivity
    tau^2 q > theta^2 W^6); kind "prime-pair" uses the classic prime bound
    (tau^2 (p-1)^4 > 25 theta^2 W^8 p^3).  Exact integer arithmetic
    throughout; verified to hold at every omega from the returned value up
    to `horizon`; ValueError if `horizon` itself fails.
    """
    terms = {"pair": lambda q, ks: _pair_sieve_terms(q, 0, ks, 1, 1), "prime-pair": _prime_pair_interval_terms}.get(kind)
    if terms is None:
        raise ValueError(f"unknown kind {kind!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")

    def passes(omega: int) -> bool:
        q = primorial(omega) + 1
        return _gt_sqrt(*terms(q, first_primes(omega))[:2], q)

    # walk back from the horizon to the start of the final all-passing run
    threshold = horizon + 1
    while threshold > 1 and passes(threshold - 1):
        threshold -= 1
    if threshold > horizon:
        raise ValueError(f"omega = {horizon} fails, so no passing run starts within the horizon")
    return threshold
