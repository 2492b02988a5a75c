"""Sufficient criteria for the existence of (u,v)-primitive elements and pairs.

For a prime power q and nonzero u, v in F_q, write N(q,u,v) for the number of
pairs (a,b) of primitive elements such that ua+vb and va^-1+ub^-1 are both
primitive, and M(q,u,v) for the number of primitive a such that ua+va^-1 is
primitive.  ``q in the pair set`` means N > 0 for every nonzero (u,v);
``q in the element set`` means M > 0 for every nonzero (u,v), which implies
pair-set membership via (a, a^-1).

Every criterion here is a margin alpha - beta*sqrt(q) with rational alpha and
beta, built in one place per formula; it holds iff the margin is positive,
which is decided *exactly* by sign analysis plus squaring.  The reported
``lower_bound`` is a positive scale times a certified rational lower bound for
the margin, obtained through a tight rational enclosure of sqrt(q), and is a
lower bound for the true count.

With theta, tau, W as in `ntcore` and stats taken at q-1:

  pair interval (q > 2):
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

`best_config` keeps, over the sieving configs s, the report with the largest
margin; that one objective serves all three sieves.  There is one stage
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
from math import inf, prod

from .errors import BoundNotApplicableError
from . import field as fd
from .ntcore import (
    ArithmeticProfile,
    delta,
    enumerate_prime_powers,
    first_primes,
    is_prime,
    primorial,
    profile,
    sqrt_bounds,
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

def _gt_sqrt(alpha: Fraction, beta: Fraction, q: int) -> bool:
    """Decide alpha > beta*sqrt(q) exactly (any signs)."""
    if beta == 0:
        return alpha > 0
    if beta > 0:
        return alpha > 0 and alpha * alpha > beta * beta * q
    # beta < 0: RHS negative
    return alpha >= 0 or alpha * alpha < beta * beta * q


def _certified(alpha: Fraction, beta: Fraction, q: int) -> Fraction:
    """A rational lower bound for alpha - beta*sqrt(q)."""
    lo, hi = sqrt_bounds(q)
    return alpha - beta * (hi if beta >= 0 else lo)


# --------------------------------------------------------------------------
# report types

@dataclass(frozen=True)
class SieveConfig:
    """A factorization Rad(q-1) = k * (product of s sieving primes), with the
    exact densities the sieved bounds need."""

    q: int
    k: int
    sieving_primes: tuple[int, ...]
    s: int
    k_profile: ArithmeticProfile
    theta_q_minus_1: Fraction
    delta2: Fraction
    delta3: Fraction
    delta4: Fraction


@dataclass(frozen=True)
class BoundReport:
    """One criterion evaluated at one q.  `alpha` and `beta` are its exact
    margin terms: the criterion holds iff alpha > beta*sqrt(q).
    `lower_bound` is a certified rational lower bound for the relevant count
    (or criterion margin): a positive scale times a rational lower bound for
    alpha - beta*sqrt(q)."""

    theorem: str
    q: int
    lower_bound: Fraction
    holds: bool
    alpha: Fraction
    beta: Fraction
    config: SieveConfig | None = None
    epsilon: int | None = None


def _report(theorem: str, q: int, alpha: Fraction, beta: Fraction, scale: Fraction = 1, **extra) -> BoundReport:
    """The one constructor of every criterion's report."""
    return BoundReport(
        theorem=theorem,
        q=q,
        lower_bound=scale * _certified(alpha, beta, q),
        holds=_gt_sqrt(alpha, beta, q),
        alpha=alpha,
        beta=beta,
        **extra,
    )


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

def sieve_config(q: int, s: int) -> SieveConfig:
    """Sieve the s largest primes of q-1; stats at the cofactor k."""
    prof = profile(q - 1)
    if not 0 <= s <= prof.omega:
        raise BoundNotApplicableError(f"s={s} out of range for omega={prof.omega}")
    sieving = prof.primes[prof.omega - s :]
    k = prof.radical // prod(sieving)
    # delta_j = 1 - j * slack; the reciprocal sum is formed once for all j
    slack = sum((Fraction(1, p) for p in sieving), Fraction(0))
    return SieveConfig(
        q=q,
        k=k,
        sieving_primes=sieving,
        s=s,
        k_profile=profile(k),
        theta_q_minus_1=prof.theta,
        delta2=1 - 2 * slack,
        delta3=1 - 3 * slack,
        delta4=1 - 4 * slack,
    )


# --------------------------------------------------------------------------
# pair-count bounds

def prime_pair_interval(p: int) -> BoundReport:
    """Classic interval bound for the pair count over a prime field (odd p)."""
    if p < 3 or not is_prime(p):
        raise BoundNotApplicableError("this bound needs an odd prime")
    st = profile(p - 1)
    alpha = st.theta**3 * st.tau * (p - 1) ** 2
    beta = 5 * st.theta**4 * st.w**4 * p
    return _report("prime-pair-interval", p, alpha, beta)


def pair_interval(q: int) -> BoundReport:
    """Interval bound for the pair count over any F_q, q > 2."""
    if q <= 2:
        raise BoundNotApplicableError("the pair interval bound needs q > 2")
    st = profile(q - 1)
    alpha = st.theta**3 * st.tau * (q - 1) * q
    beta = st.theta**4 * st.w**3 * (q - 1)
    return _report("pair-interval", q, alpha, beta)


def pair_sieve_bound(q: int, s: int) -> BoundReport:
    """Sieved pair bound; needs q > 2 and delta_4 > 0."""
    if q <= 2:
        raise BoundNotApplicableError("the pair sieve needs q > 2")
    cfg = sieve_config(q, s)
    if cfg.delta4 <= 0:
        raise BoundNotApplicableError(f"delta_4 = {cfg.delta4} <= 0)")
    st = cfg.k_profile
    scale = cfg.delta4 * st.theta**3 * (q - 1)
    alpha = scale * st.tau * q
    beta = scale * st.theta * st.w**3
    return _report("pair-sieve", q, alpha, beta, config=cfg)


def pair_sieve_asym_bound(q: int, s: int) -> BoundReport:
    """Asymmetric pair sieve; needs q > 2 and delta_3 > 0.  Often stronger
    than the symmetric sieve because it tolerates more sieving primes."""
    if q <= 2:
        raise BoundNotApplicableError("the pair sieve needs q > 2")
    cfg = sieve_config(q, s)
    if cfg.delta3 <= 0:
        raise BoundNotApplicableError(f"delta_3 = {cfg.delta3} <= 0")
    st = cfg.k_profile
    scale = st.theta**2 * cfg.theta_q_minus_1 * (q - 1)
    alpha = scale * cfg.delta3 * st.tau * q
    beta = scale * st.theta * st.w**3
    return _report("pair-sieve-asym", q, alpha, beta, config=cfg)


def pair_w6(q: int) -> BoundReport:
    """Crude pair criterion q > W(q-1)**6; lower_bound is the margin."""
    return _report("pair-w6", q, Fraction(q - profile(q - 1).w ** 6), Fraction(0))


# --------------------------------------------------------------------------
# element-count bounds

def epsilon(q: int, u: int, v: int) -> int:
    """The number of roots of u*a**2 + v in F_q (all such roots are nonzero):
    1 for even q; for odd q, 2 if -v/u is a square and 0 otherwise."""
    fd.check_nonzero(q, u=u, v=v)
    F = fd.build_field(q)
    if F.p == 2:
        return 1
    w = fd.mul(F, fd.neg(F, v), fd.inv(F, u))
    return 2 if fd.is_square(F, w) else 0


def _worst_epsilon(q: int) -> int:
    return 2 if q % 2 else 1


def element_interval(q: int, eps: int | None = None) -> BoundReport:
    """Interval bound for the element count.  `eps` is the exact root count
    for a specific (u,v); None takes the worst case for q's parity."""
    if eps is None:
        eps = _worst_epsilon(q)
    st = profile(q - 1)
    alpha = st.theta**2 * (q - 1 - eps * st.w)
    beta = 2 * st.theta**2 * (st.w**2 - st.w - (1 / st.theta - 1) / 2)
    return _report("element-interval", q, alpha, beta, epsilon=eps)


def element_sieve_criterion(q: int, s: int) -> BoundReport:
    """Sieved element criterion: with C = (2s-1)/delta_2 + 2 and stats at k,
    membership follows from sqrt(q) > 2C[W^2 - (W/2)(1 - 1/sqrt(q))], i.e.
    exactly from (q - CW) > (2CW^2 - CW) sqrt(q) after clearing sqrt(q).
    Needs q > 3 and delta_2 > 0.  The margin terms are (q - CW, CW(2W - 1));
    lower_bound certifies theta^2 {(q - CW) - (2CW^2 - CW) sqrt(q)}, a lower
    bound for the count."""
    if q <= 3:
        raise BoundNotApplicableError("the element sieve needs q > 3")
    cfg = sieve_config(q, s)
    if cfg.delta2 <= 0:
        raise BoundNotApplicableError(f"delta_2 = {cfg.delta2} <= 0")
    st = cfg.k_profile
    alpha, beta = _element_sieve_terms(q, s, cfg.delta2, st.w)
    return _report("element-sieve", q, alpha, beta, st.theta**2, config=cfg)


def _element_sieve_terms(q: int, s: int, delta2: Fraction, w: int) -> tuple[Fraction, Fraction]:
    """The element sieve's margin terms (q - CW, CW(2W - 1)), C = (2s-1)/delta_2 + 2."""
    C = Fraction(2 * s - 1, 1) / delta2 + 2
    return q - C * w, C * w * (2 * w - 1)


def element_w4(q: int) -> BoundReport:
    """Crude element criterion q > 4*W(q-1)**4; lower_bound is the margin."""
    return _report("element-w4", q, Fraction(q - 4 * profile(q - 1).w ** 4), Fraction(0))


# --------------------------------------------------------------------------
# best configuration per objective

_SIEVES = {
    "element": element_sieve_criterion,
    "pair": pair_sieve_bound,
    "pair-asym": pair_sieve_asym_bound,
}


def best_config(q: int, objective: str) -> BoundReport | None:
    """The sieved report with the largest margin alpha - beta*sqrt(q) for one
    of the objectives "element", "pair" and "pair-asym".

    For "element" the margin is (q - CW) - CW(2W - 1) sqrt(q), so the best
    config is the one with the smallest criterion RHS
    2C[W^2 - (W/2)(1 - 1/sqrt(q))]; for the pair sieves it is the exact lower
    bound up to its positive scale.  The best report holds iff some config
    holds.

    Scans s = 0 .. omega(q-1)-1 over applicable configs (positive delta);
    exact sqrt(q) comparisons; ties keep the smaller s.  Returns None when no
    config is applicable.
    """
    make = _SIEVES[objective]
    best: BoundReport | None = None
    for s in range(max(profile(q - 1).omega, 1)):
        try:
            rep = make(q, s)
        except BoundNotApplicableError:
            continue
        # rep's margin beats best's  <=>  (a - a0) > (b - b0) sqrt(q)
        if best is None or _gt_sqrt(rep.alpha - best.alpha, rep.beta - best.beta, q):
            best = rep
    return best


# --------------------------------------------------------------------------
# screening one q

def _element_stage(q: int):
    """The element-set criteria for q, lazily, in the order they are tried."""
    omega = profile(q - 1).omega
    yield element_w4(q)
    if omega == 1:
        yield element_interval(q)
    if q > 3 and omega >= 2:
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
    chosen criterion, using worst-case densities over all such fields."""
    if omega == 1:
        # interval bound, worst case W=2, eps=2, bracket -> W^2 = 4
        return _gt_sqrt(Fraction(q - 5), Fraction(4), q)
    d2 = _worst_delta2(omega, s)
    if d2 <= 0:
        return False
    return _gt_sqrt(*_element_sieve_terms(q, s, d2, 1 << (omega - s)), q)


def _worst_delta2(omega: int, s: int) -> Fraction:
    """delta_2 when the s sieving primes are the largest of the first omega
    primes: the worst case over all q with omega(q-1) = omega."""
    return delta(2, first_primes(omega)[omega - s :]).value


def generic_q_max(omega: int, s: int | None = None) -> int:
    """The largest q that the worst-case criterion fails to settle for this
    omega (the failing region is an initial segment, so bisection is exact)."""
    if omega >= 2 and _worst_delta2(omega, s) <= 0:
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


def survey(omega: int) -> SurveyRow:
    """For one omega, the exact finite list of q that the element criteria
    cannot settle: pick the s whose worst-case model has the smallest q_max,
    enumerate the prime powers q <= q_max with omega(q - 1) == omega, and
    re-test each with the element stage of `screen` at its own exact
    densities."""
    return _survey_row(omega, 0, inf)


def _survey_row(omega: int, lo: int, hi: int | float) -> SurveyRow:
    """The survey row for omega, with candidates enumerated and re-tested
    only in [lo, hi] (the row's q_min, q_max and chosen_s stay its own).

    The candidates are the prime powers q with omega(q - 1) == omega from
    `enumerate_prime_powers`, which builds them from the factorisation of
    q - 1 where they are sparse (the rows omega >= 6) and sieves otherwise;
    each is re-tested with the element stage at its own exact densities."""
    if omega < 1:
        raise ValueError("the survey covers omega >= 1")
    if omega == 1:
        chosen_s, q_max = None, generic_q_max(1)
    else:
        chosen_s, q_max = min(
            ((s, generic_q_max(omega, s)) for s in range(1, omega) if _worst_delta2(omega, s) > 0),
            key=lambda t: (t[1], t[0]),
        )
    q_min = primorial(omega) + 1
    failing_p, failing_pp = [], []
    candidates = enumerate_prime_powers(max(q_min, lo), min(q_max, hi), omega)
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
    `screen`.  Rows enumerate only the window."""
    hi = inf if max_q is None else max_q
    rows = [_survey_row(om, min_q, hi) for om in range(1, MAX_SURVEY_OMEGA + 1)]
    verdicts = [_classify(q, _STAGES[1:]) for q in sorted(x for row in rows for x in row.failing_list)]
    return rows, verdicts


# --------------------------------------------------------------------------
# asymptotic autopass thresholds

def auto_threshold(kind: str = "pair", horizon: int = 300) -> int:
    """The least omega from which the interval criterion passes every q with
    omega(q-1) = omega, in the worst-case model q - 1 = primorial(omega).

    kind "pair" uses the pair interval (positivity tau^2 q > theta^2 W^6);
    kind "prime-pair" uses the classic prime bound (tau^2 (p-1)^4 > 25 theta^2
    W^8 p^3).  Exact rational arithmetic throughout; verified to hold at every
    omega from the returned value up to `horizon`.
    """

    def passes(omega: int) -> bool:
        P = primorial(omega)
        st = profile(P)
        if kind == "pair":
            return st.tau**2 * (P + 1) > st.theta**2 * Fraction(1 << (6 * omega))
        if kind == "prime-pair":
            return st.tau**2 * P**4 > 25 * st.theta**2 * Fraction(1 << (8 * omega)) * (P + 1) ** 3
        raise ValueError(f"unknown kind {kind!r}")

    ok = [passes(om) for om in range(1, horizon + 1)]
    # find the start of the final all-True run
    threshold = horizon + 1
    for om in range(horizon, 0, -1):
        if not ok[om - 1]:
            break
        threshold = om
    if threshold > horizon:  # pragma: no cover
        raise AssertionError("no passing omega within the horizon")
    return threshold
