"""Bound evaluation, configuration search, and the coarse-to-exact survey.

Frozen values below were computed once with the brute-force oracles (see
helpers.py and the N/M grids in the verification layer) and are asserted
exactly; every lower bound is certified rational, so equality comparisons
are legitimate.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_bounds as fb
import helpers
from uvprim import cli
from uvprim import field as fd
from uvprim import ntcore as nt
from uvprim import screening as sc
from uvprim import verify as vf
from uvprim.errors import BoundNotApplicableError


# ------------------------------------------------------------ sieve configs

def test_sieve_config_structure():
    cfg = sc.sieve_config(31651621, 5)
    prof = nt.profile(31651620)
    from math import prod

    assert cfg.s == 5 and len(cfg.sieving_primes) == 5
    # the s largest primes are sieved; the cofactor keeps the rest
    assert cfg.sieving_primes == prof.primes[-5:]
    assert cfg.k * prod(cfg.sieving_primes) == prof.radical


def test_sieve_config_s_zero_is_the_whole_radical():
    cfg = sc.sieve_config(13, 0)
    assert cfg.sieving_primes == ()
    assert cfg.k == 6
    assert cfg.delta2 == cfg.delta3 == cfg.delta4 == 1


def test_sieve_config_rejects_out_of_range_s():
    with pytest.raises(BoundNotApplicableError):
        sc.sieve_config(13, 3)  # omega(12) = 2
    with pytest.raises(BoundNotApplicableError):
        sc.sieve_config(13, -1)


@given(st.sampled_from([pp.q for pp in nt.enumerate_prime_powers(5, 2999)]), st.data())
def test_sieve_config_invariants(q, data):
    from math import prod

    prof = nt.profile(q - 1)
    s = data.draw(st.integers(0, prof.omega))
    cfg = sc.sieve_config(q, s)
    assert cfg.k * prod(cfg.sieving_primes) == prof.radical
    assert cfg.delta2 >= cfg.delta3 >= cfg.delta4


# ------------------------------------------------------------------- epsilon

@pytest.mark.parametrize("q,u,v,expected", [(13, 1, 1, 2), (7, 1, 1, 0), (4, 1, 1, 1), (4, 3, 2, 1), (13, 1, 12, 2), (9, 1, 1, 2), (7, 1, 6, 2)])
def test_epsilon_frozen(q, u, v, expected):
    assert sc.epsilon(q, u, v) == expected


@given(st.sampled_from([3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]), st.data())
def test_epsilon_counts_roots(q, data):
    F = fd.build_field(q)
    u = data.draw(st.integers(1, q - 1))
    v = data.draw(st.integers(1, q - 1))
    roots = sum(
        1
        for a in range(q)
        if fd.add(F, fd.mul(F, u, fd.mul(F, a, a)), v) == 0
    )
    assert sc.epsilon(q, u, v) == roots
    assert roots == (1 if q % 2 == 0 else 0 if roots == 0 else 2)


# ------------------------------------------------------------ interval bounds

def test_prime_pair_interval_applicability():
    for bad in (2, 4, 9, 15):
        with pytest.raises(BoundNotApplicableError):
            sc.prime_pair_interval(bad)
    rep = sc.prime_pair_interval(1009)
    assert rep.theorem == "prime-pair-interval" and not rep.holds
    # p - 1 = 2^16 keeps W small enough for the classic bound to certify
    assert sc.prime_pair_interval(65537).holds


def test_pair_interval_frozen():
    assert not sc.pair_interval(13).holds
    assert sc.pair_interval(257).holds
    with pytest.raises(BoundNotApplicableError):
        sc.pair_interval(2)


def test_crude_power_criteria():
    assert sc.pair_w6(257).holds
    assert not sc.pair_w6(256).holds
    assert not sc.element_w4(169).holds
    assert sc.element_w4(169).lower_bound == 169 - 4 * 8**4
    big = nt.primorial(17) * 5 + 1
    assert sc.element_w4(big).holds


def test_sieve_at_s_zero_equals_the_interval_lower_bound():
    # with no sieving primes the sieved pair bound degenerates to the exact
    # interval lower bound: same rational, same verdict
    for q in (5, 7, 9, 13, 31, 64, 121, 169, 257):
        a = sc.pair_interval(q)
        b = sc.pair_sieve_bound(q, 0)
        assert b.lower_bound == a.lower_bound
        assert b.holds == a.holds


def test_asymmetric_sieve_admits_larger_s():
    # at q = 1171 the two largest primes of q-1 = 2 * 3^2 * 5 * 13 are {5, 13};
    # their reciprocal sum kills delta_4 but not delta_3
    cfg = sc.sieve_config(1171, 2)
    assert cfg.sieving_primes == (5, 13)
    assert cfg.delta4 <= 0 < cfg.delta3
    with pytest.raises(BoundNotApplicableError):
        sc.pair_sieve_bound(1171, 2)
    rep = sc.pair_sieve_asym_bound(1171, 2)
    assert rep.theorem == "pair-sieve-asym"

    def max_applicable(make):
        best = -1
        for s in range(nt.profile(1170).omega + 1):
            try:
                make(1171, s)
                best = s
            except BoundNotApplicableError:
                pass
        return best

    assert max_applicable(sc.pair_sieve_asym_bound) > max_applicable(sc.pair_sieve_bound)


def test_sieve_bound_guards():
    with pytest.raises(BoundNotApplicableError):
        sc.pair_sieve_bound(2, 0)
    with pytest.raises(BoundNotApplicableError):
        sc.element_sieve_criterion(3, 0)  # needs q > 3


def test_element_interval_epsilon_handling():
    rep = sc.element_interval(13)
    assert rep.epsilon == 2  # worst parity case for odd q
    assert not rep.holds
    assert sc.element_interval(13, eps=0).epsilon == 0
    assert sc.element_interval(4).epsilon == 1  # even q has exactly one root


def test_interval_failure_on_omega_five_cured_by_sieving():
    # the first prime power with omega(q-1) = 5 where the plain pair interval
    # fails but two sieving primes rescue it
    assert nt.profile(50310).omega == 5
    assert not sc.pair_interval(50311).holds
    assert sc.pair_sieve_bound(50311, 2).holds
    # every earlier omega = 5 candidate either passes the plain interval or
    # stays unrescued, so 50311 really is the first of its kind
    for pp in nt.omega_prime_powers(2311, 50310, 5):
        if not sc.pair_interval(pp.q).holds:
            assert not sc.pair_sieve_bound(pp.q, 2).holds, pp.q


# --------------------------------------------------- bounds against brute N/M

ODD_PPS_TO_100 = [pp.q for pp in nt.enumerate_prime_powers(3, 100) if pp.p > 2]


@pytest.mark.parametrize("q", ODD_PPS_TO_100)
def test_certified_pair_bounds_never_exceed_brute_counts(q):
    """Every certified lower bound for the pair count must sit at or below
    the exact minimum of N(q,u,v) over all nonzero (u, v)."""
    grid = vf.pair_count_grid(q)
    exact_min = int(grid.min())
    reports = [sc.pair_interval(q)]
    for s in range(nt.profile(q - 1).omega + 1):
        for make in (sc.pair_sieve_bound, sc.pair_sieve_asym_bound):
            try:
                reports.append(make(q, s))
            except BoundNotApplicableError:
                pass
    for rep in reports:
        assert rep.lower_bound <= exact_min, (q, rep.theorem, rep.config and rep.config.s)


@pytest.mark.parametrize("q", [q for q in ODD_PPS_TO_100 if q <= 61])
def test_certified_element_bound_never_exceeds_brute_counts(q):
    grid = vf.single_count_grid(q)
    n = q - 1
    for ju in range(n):
        for jv in range(n):
            t = fd.log_table(fd.build_field(q))
            u, v = int(t.exp[ju]), int(t.exp[jv])
            rep = sc.element_interval(q, eps=sc.epsilon(q, u, v))
            assert rep.lower_bound <= int(grid[ju, jv])


# ------------------------------------- integer margins against Fractions

@pytest.mark.parametrize(
    "alpha,beta,q,expected",
    [
        (21, 3, 49, False),  # 21 = 3 * 7: a tie is no strict win
        (22, 3, 49, True),
        (20, 3, 49, False),
        (-21, -3, 49, False),  # -21 > -21 fails at the tie as well
        (-20, -3, 49, True),
        (-22, -3, 49, False),
        (7, 1, 50, False),  # 7 < sqrt(50) < 8
        (8, 1, 50, True),
        (-7, -1, 50, True),
        (-8, -1, 50, False),
        (0, -1, 4, True),
        (0, 1, 4, False),
        (1, 0, 4, True),
        (0, 0, 4, False),
        (-1, 0, 4, False),
    ],
)
def test_gt_sqrt_is_exact_at_ties(alpha, beta, q, expected):
    assert sc._gt_sqrt(alpha, beta, q) is expected


def _same_as_fractions(rep, terms):
    alpha, beta, scale = terms
    A, B, D = rep.terms
    assert (Fraction(A, D), Fraction(B, D)) == (alpha, beta)
    assert rep.holds == fb.gt_sqrt(alpha, beta, rep.q)
    assert rep.lower_bound == fb.lower_bound(alpha, beta, scale, rep.q)


def test_integer_margins_equal_the_fraction_formulas():
    """Every criterion at every prime power q <= 20000 and every s: the
    integer margins give the verdict, the alpha and beta and the certified
    lower bound of the formulas written in Fractions (fraction_bounds.py),
    and best_config picks the same s."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 20_000)):
        omega = nt.profile(q - 1).omega
        checks = [(sc.element_w4(q), fb.element_w4(q)), (sc.pair_w6(q), fb.pair_w6(q))]
        checks.append((sc.element_interval(q), fb.element_interval(q, 2 if q % 2 else 1)))
        checks += [(sc.element_interval(q, eps), fb.element_interval(q, eps)) for eps in (0, 1, 2)]
        if q > 2:
            checks.append((sc.pair_interval(q), fb.pair_interval(q)))
        if q > 2 and nt.is_prime(q):
            checks.append((sc.prime_pair_interval(q), fb.prime_pair_interval(q)))
        for objective, make in (
            ("element", sc.element_sieve_criterion),
            ("pair", sc.pair_sieve_bound),
            ("pair-asym", sc.pair_sieve_asym_bound),
        ):
            for s in range(omega + 1):
                try:
                    terms = fb.SIEVES[objective](q, s)
                except BoundNotApplicableError:
                    with pytest.raises(BoundNotApplicableError):
                        make(q, s)
                    continue
                rep = make(q, s)
                sieving = rep.config.sieving_primes
                assert [rep.config.delta2, rep.config.delta3, rep.config.delta4] == [
                    fb.delta(j, sieving) for j in (2, 3, 4)
                ], (q, s)
                checks.append((rep, terms))
            want = fb.best_config(q, objective)
            rep = sc.best_config(q, objective)
            if want is None:
                assert rep is None, (q, objective)
                continue
            assert rep.config.s == want[0], (q, objective)
            checks.append((rep, want[1]))
        for rep, terms in checks:
            _same_as_fractions(rep, terms)


# ----------------------------------------------------------- config search

SIEVE_BOUNDS = {
    "element": sc.element_sieve_criterion,
    "pair": sc.pair_sieve_bound,
    "pair-asym": sc.pair_sieve_asym_bound,
}


def test_best_config_is_the_per_s_bound_at_its_choice():
    """For every prime power q <= 20000 and each objective, best_config's
    report is the per-s bound's at the s it chose: the same theorem, terms,
    scale, config, verdict and certified bound."""
    fields = lambda r: (r.theorem, r.terms, r.scale, r.config, r.holds, r.lower_bound)
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 20_000)):
        for objective, make in SIEVE_BOUNDS.items():
            rep = sc.best_config(q, objective)
            if rep is None:
                with pytest.raises(BoundNotApplicableError):
                    make(q, 0)
                continue
            assert fields(rep) == fields(make(q, rep.config.s)), (q, objective)


def _verdicts_digest(verdicts) -> str:
    digest = hashlib.sha256()
    for v in verdicts:
        reports = [cli._witness_dict(r) for r in v.all_reports]
        line = json.dumps([v.q, v.status, cli._witness_dict(v.witness), reports], sort_keys=True)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_screen_and_sweep_weigh_each_config_once(monkeypatch):
    """With sieve_config and the per-s bounds made to raise, screen over
    [2, 20000] and sweep(3, 10**6) still give the same verdicts, every
    report included (hashed; frozen while best_config still re-evaluated
    its winner through them): best_config builds its report from its own
    scan."""

    def evaluated_again(*args):
        raise AssertionError("a sieve config was evaluated a second time")

    for name in ("sieve_config", *(make.__name__ for make in SIEVE_BOUNDS.values())):
        monkeypatch.setattr(sc, name, evaluated_again)
    screened = [sc.screen(pp.q) for pp in nt.enumerate_prime_powers(2, 20_000)]
    assert _verdicts_digest(screened) == "238bb3e30ed3ca4b45105620fc7708c613d60e5d01e64a35e235b5156ba60d12"
    _, verdicts = sc.sweep(3, 10**6)
    assert _verdicts_digest(verdicts) == "ccc2930b29a8c2be5542a106357399fa1efc75a1565ba9cb3c1e1dae9dd318bf"


def test_best_config_holds_iff_some_config_holds():
    # the best element config holds exactly when some applicable s holds,
    # which is what lets the survey re-test with the element stage; the
    # range covers omega(q-1) = 2..5
    omegas = set()
    for pp in nt.enumerate_prime_powers(5, 2500):
        omega = nt.profile(pp.q - 1).omega
        if omega < 2:
            continue
        omegas.add(omega)
        held = []
        for s in range(omega):
            try:
                held.append(sc.element_sieve_criterion(pp.q, s).holds)
            except BoundNotApplicableError:
                pass
        assert sc.best_config(pp.q, "element").holds == any(held), pp.q
    assert omegas == {2, 3, 4, 5}


@pytest.mark.parametrize(
    "q,objective,lower_bound",
    [
        (31651621, "element", "-372105637536943543507/8345953606041600"),
        (31651621, "pair", "-11270706025405742709/5217520"),
        (31651621, "pair-asym", "-1155620363587924167/2565640"),
        (50311, "element", "-12552840736871281025/2763347598508032"),
        (50311, "pair", "18174238256939/943718400"),
        (50311, "pair-asym", "-1040656798250530811/750277099520"),
    ],
)
def test_best_config_frozen_lower_bounds(q, objective, lower_bound):
    assert sc.best_config(q, objective).lower_bound == Fraction(lower_bound)


def test_best_config_frozen_choices():
    rep = sc.best_config(31651621, "element")
    assert (rep.theorem, rep.config.s, rep.holds) == ("element-sieve", 5, False)
    rep = sc.best_config(31651621, "pair")
    assert (rep.theorem, rep.config.s, rep.holds) == ("pair-sieve", 3, False)
    rep = sc.best_config(31651621, "pair-asym")
    assert (rep.theorem, rep.config.s, rep.holds) == ("pair-sieve-asym", 4, False)
    rep = sc.best_config(50311, "pair")
    assert (rep.config.s, rep.holds) == (2, True)
    rep = sc.best_config(50311, "pair-asym")
    assert (rep.config.s, rep.holds) == (3, False)


def test_best_config_unknown_objective():
    with pytest.raises(KeyError):
        sc.best_config(13, "pairs")


def test_best_config_none_when_nothing_applies():
    # q = 3: the element sieve needs q > 3, and omega(2) = 1 gives no pair
    # config with positive delta... the pair objective still has s = 0
    assert sc.best_config(3, "element") is None


# ------------------------------------------------------------------ screen

@pytest.mark.parametrize(
    "q,status,theorem",
    [
        (2, "needs_check", None),
        (13, "needs_check", None),
        (17, "pair_proved", "pair-interval"),
        (23, "pair_proved", "pair-sieve"),
        (32, "element_proved", "element-interval"),
        (169, "needs_check", None),
        (31651621, "needs_check", None),
    ],
)
def test_screen_frozen_verdicts(q, status, theorem):
    v = sc.screen(q)
    assert v.status == status
    assert (v.witness.theorem if v.witness else None) == theorem
    if status == "needs_check":
        assert v.witness is None and not any(r.holds for r in v.all_reports)
    else:
        assert v.witness.holds


def test_screen_large_omega_uses_the_crude_criterion():
    q = nt.primorial(17) * 5 + 1
    assert nt.is_prime(q) and nt.profile(q - 1).omega >= 17
    v = sc.screen(q)
    assert v.status == "element_proved"
    assert v.witness.theorem == "element-w4"


def test_screen_is_sound_against_the_exceptional_sets():
    for pp in nt.enumerate_prime_powers(2, 200):
        v = sc.screen(pp.q)
        if pp.q in helpers.EXC_ELEMENT:
            assert v.status != "element_proved", pp.q
        if pp.q in helpers.EXC_PAIR:
            assert v.status == "needs_check", pp.q


# ------------------------------------------------------ worst-case q_max

def test_generic_q_max_frozen():
    assert sc.generic_q_max(1) == 25
    assert sc.generic_q_max(8, 5) == 51_494_769


def test_generic_q_max_rejects_dead_slack():
    # sieving {3, 5} in the worst-case omega = 3 model: 2*(1/3 + 1/5) > 1
    with pytest.raises(BoundNotApplicableError):
        sc.generic_q_max(3, 2)


@pytest.mark.parametrize("s", [-1, 4])
def test_generic_q_max_rejects_s_out_of_range(s):
    # the worst-case model splits the first omega primes as sieve_config does
    with pytest.raises(BoundNotApplicableError, match="out of range"):
        sc.generic_q_max(3, s)


# -------------------------------------------------------------- the survey

def test_survey_row_omega_one_frozen():
    row = sc.survey(1)
    assert row == sc.SurveyRow(
        omega=1,
        chosen_s=None,
        q_min=3,
        q_max=25,
        candidates=6,
        failing_primes=(3, 5, 17),
        failing_prime_powers=(4, 8, 9),
    )
    assert row.failing_list == (3, 4, 5, 8, 9, 17)


def test_survey_row_omega_two_frozen():
    row = sc.survey(2)
    assert (row.chosen_s, row.q_min, row.q_max, row.candidates) == (1, 7, 919, 75)
    assert len(row.failing_primes) == 40
    assert (row.failing_primes[0], row.failing_primes[-1]) == (7, 769)
    assert row.failing_prime_powers == (16, 25, 27, 49, 64, 81, 125, 243, 289)


def test_survey_row_candidate_counts_frozen():
    # an empty window gives each row's own q_min and q_max without a re-test
    rows, _ = sc.sweep(3, 2)
    assert all(row.candidates == 0 for row in rows)
    counts = [len(nt.omega_prime_powers(row.q_min, row.q_max, row.omega)) for row in rows]
    assert counts == [6, 75, 692, 3391, 7722, 3968, 681, 49]


def test_survey_q_min_is_primorial_plus_one():
    for om in (1, 2, 3):
        assert sc.survey(om).q_min == nt.primorial(om) + 1


def test_survey_rejects_omega_zero():
    with pytest.raises(ValueError):
        sc.survey(0)


def test_survey_chosen_s_minimizes_the_generic_window():
    row = sc.survey(3)
    assert row.chosen_s == 1
    assert row.q_max == sc.generic_q_max(3, 1) == 10569


def test_survey_failing_exactly_matches_element_screen():
    """A candidate fails the survey re-test exactly when per-q screening
    cannot prove element-set membership (the pair stages may still fire,
    so the verdict itself is needs_check *or* pair_proved)."""
    for om in (1, 2, 3, 4):
        row = sc.survey(om)
        failing = set(row.failing_list)
        for pp in nt.omega_prime_powers(row.q_min, row.q_max, om):
            status = sc.screen(pp.q).status
            if pp.q in failing:
                assert status != "element_proved", pp.q
            else:
                assert status == "element_proved", pp.q


def test_survey_contains_the_exceptional_fields():
    # every exceptional q is, in particular, unprovable by the bounds
    for om in (1, 2, 3):
        row = sc.survey(om)
        exceptional_here = [
            q for q in helpers.EXC_ELEMENT if 3 <= q <= row.q_max and nt.profile(q - 1).omega == om
        ]
        assert set(exceptional_here) <= set(row.failing_list)


# ------------------------------------------------------------------- sweep

def test_sweep_small_window():
    rows, verdicts = sc.sweep(3, 200)
    assert len(rows) == sc.MAX_SURVEY_OMEGA
    qs = [v.q for v in verdicts]
    assert qs == sorted(qs)
    assert len(qs) == 57
    assert sum(1 for v in verdicts if nt.prime_power_decompose(v.q).r == 1) == 45
    by_status = {}
    for v in verdicts:
        by_status[v.status] = by_status.get(v.status, 0) + 1
    assert by_status == {"pair_proved": 22, "needs_check": 35}
    # no element_proved verdict can appear: these q already failed the
    # element stages inside the survey
    assert "element_proved" not in by_status


def test_sweep_lists_candidates_without_the_range_sieve(monkeypatch):
    """Each survey row builds its candidates by `omega_prime_powers` alone;
    no row lists a range of prime powers and filters it."""

    def no_range(*args):
        raise AssertionError("a survey row listed a plain range")

    for mod in (nt, sc):
        for name in ("iter_prime_powers", "enumerate_prime_powers"):
            monkeypatch.setattr(mod, name, no_range, raising=False)
    rows, verdicts = sc.sweep(3, 10**6)
    assert [row.omega for row in rows] == list(range(1, sc.MAX_SURVEY_OMEGA + 1))
    assert sum(row.candidates for row in rows) > 0 and verdicts


@pytest.fixture(scope="module")
def rows_to_104597():
    """The full survey rows that meet [3, 104597] (q_min of omega 7 is
    510511)."""
    return {om: sc.survey(om) for om in range(1, 7)}


@pytest.mark.parametrize("lo,hi", [(3, 200), (100, 5000), (900, 104597)])
def test_sweep_window_is_the_surveys_restricted_to_it(lo, hi, rows_to_104597):
    rows, verdicts = sc.sweep(lo, hi)
    in_window = lambda qs: tuple(q for q in qs if lo <= q <= hi)
    for row in rows:
        full = rows_to_104597.get(row.omega)
        if full is None:
            assert row.q_min > hi and row.candidates == 0 and row.failing_list == ()
            continue
        assert (row.chosen_s, row.q_min, row.q_max) == (full.chosen_s, full.q_min, full.q_max)
        assert row.failing_primes == in_window(full.failing_primes)
        assert row.failing_prime_powers == in_window(full.failing_prime_powers)
    failing = sorted(q for full in rows_to_104597.values() for q in in_window(full.failing_list))
    assert [v.q for v in verdicts] == failing
    # these q fail the element stage, so screen() decides them by the pair stage
    for v in verdicts:
        ref = sc.screen(v.q)
        assert (v.status, v.witness) == (ref.status, ref.witness), v.q


@pytest.mark.parametrize("lo,hi", [(2, 2), (2, 300), (100, 5000)])
def test_sweep_lists_every_q_screen_cannot_element_prove(lo, hi):
    """The sweep's verdicts are exactly screen()'s for the prime powers in
    [lo, hi] that it does not element-prove, q = 2 among them: omega(1) = 0
    puts 2 in no survey row, and it fails both stages."""
    _, verdicts = sc.sweep(lo, hi)
    refs = (sc.screen(pp.q) for pp in nt.enumerate_prime_powers(lo, hi))
    expected = [(r.q, r.status, r.witness) for r in refs if r.status != "element_proved"]
    assert [(v.q, v.status, v.witness) for v in verdicts] == expected


def test_sweep_witnesses_frozen(full_sweep):
    """What the needs-check sweep prints for each verdict: q, status and the
    witness (theorem, certified bound, config deltas), hashed.  Frozen from
    the Fraction implementation, so a changed bound cannot hide behind
    unchanged counts."""
    _, verdicts = full_sweep
    digest = hashlib.sha256()
    for v in verdicts:
        line = json.dumps([v.q, v.status, cli._witness_dict(v.witness)], sort_keys=True)
        digest.update(line.encode() + b"\n")
    assert len(verdicts) == 3031
    assert digest.hexdigest() == "76ef364c2e2ad4367215643d0d5e037552eeb3547e3ebfda82e9207169444d51"


# -------------------------------------------------------- auto thresholds

def test_auto_threshold_frozen():
    assert sc.auto_threshold("pair") == 47
    assert sc.auto_threshold("prime-pair") == 151
    # stable from the first horizon that holds it
    assert sc.auto_threshold("pair", horizon=47) == 47
    assert sc.auto_threshold("pair", horizon=80) == 47
    with pytest.raises(ValueError):
        sc.auto_threshold("pairs")


@pytest.mark.parametrize("horizon", [0, 46])
def test_auto_threshold_rejects_a_horizon_without_a_passing_run(horizon):
    # 0 holds no omega; at 46 the final passing run (from 47) lies beyond it
    with pytest.raises(ValueError):
        sc.auto_threshold("pair", horizon=horizon)
