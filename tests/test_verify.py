"""Exact counting, membership checks, and the signed coverage machinery.

The membership checkers are the part of the package where a silent bug
would be worst (a wrongly-empty failure list "proves" a theorem), so the
two independent algorithms are compared against each other and against
plain field-arithmetic brute force at every size where that is feasible.
"""

import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import tuple_coverage as tc
from uvprim import field as fd
from uvprim import ntcore as nt
from uvprim import verify as vf
from uvprim.errors import InvalidDivisorError, NotAPrimePowerError


# ----------------------------------------------------------- spot predicates

def test_is_uv_primitive_element_by_hand():
    F = fd.build_field(11)
    # a = 2 is primitive mod 11 and 2 + 2^-1 = 2 + 6 = 8 is primitive
    assert vf.is_uv_primitive_element(F, 2, 1, 1)
    # a = 0 never counts, whatever u and v say
    assert not vf.is_uv_primitive_element(F, 0, 1, 1)


@pytest.mark.parametrize("a,u,v", [(2, 0, 1), (2, 1, 0), (2, 13, 1), (2, 1, -1), (15, 1, 1), (13, 1, 1), (-2, 1, 1), (0, 0, 1)])
def test_is_uv_primitive_element_rejects_inputs_outside_the_field(a, u, v):
    # u = 0 lies outside the definition; a = 15 would otherwise be read as 2
    with pytest.raises(ValueError, match=r"\[1, 13\)"):
        vf.is_uv_primitive_element(fd.build_field(13), a, u, v)


def test_is_uv_primitive_pair_by_hand():
    F = fd.build_field(7)
    # 3 and 5 are primitive; 3 - 5 = 5 and 5^-1 - 3^-1 = 3 - 5 = 5 primitive
    assert vf.is_uv_primitive_pair(F, 3, 5, 1, 6)
    assert not vf.is_uv_primitive_pair(F, 0, 3, 1, 1)
    assert not vf.is_uv_primitive_pair(F, 3, 0, 1, 1)


@pytest.mark.parametrize("a,b,u,v", [(3, 5, 0, 6), (3, 5, 1, 7), (3, 12, 1, 6), (10, 5, 1, 6), (0, 7, 1, 6), (-4, 5, 1, 6)])
def test_is_uv_primitive_pair_rejects_inputs_outside_the_field(a, b, u, v):
    with pytest.raises(ValueError, match=r"\[1, 7\)"):
        vf.is_uv_primitive_pair(fd.build_field(7), a, b, u, v)


# ------------------------------------------------------------- exact counts

@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_pair_count_matches_brute_force_grid(q):
    F = fd.build_field(q)
    t = fd.log_table(F)
    n = q - 1
    grid = vf.pair_count_grid(q)
    for ju in range(n):
        for jv in range(n):
            u, v = int(t.exp[ju]), int(t.exp[jv])
            assert grid[ju, jv] == helpers.brute_N(F, u, v), (q, u, v)


@pytest.mark.parametrize("q", [11, 13])
def test_pair_count_matches_brute_force_spots(q):
    F = fd.build_field(q)
    rng = random.Random(q)
    t = fd.log_table(F)
    for _ in range(6):
        u = int(t.exp[rng.randrange(q - 1)])
        v = int(t.exp[rng.randrange(q - 1)])
        got = vf.count_pairs_free(vf.PairCountQuery(q, u, v))
        assert got == helpers.brute_N(F, u, v)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16])
def test_single_count_matches_brute_force(q):
    F = fd.build_field(q)
    t = fd.log_table(F)
    n = q - 1
    grid = vf.single_count_grid(q)
    for ju in range(n):
        for jv in range(n):
            u, v = int(t.exp[ju]), int(t.exp[jv])
            assert grid[ju, jv] == helpers.brute_M(F, u, v)


def test_single_count_frozen():
    assert vf.count_single_free(vf.SingleCountQuery(13, 1, 1)) == 0
    assert vf.count_single_free(vf.SingleCountQuery(11, 1, 1)) == 2


@pytest.mark.parametrize("q,count", [(1025641, 42076), (1051051, 38748)])
def test_single_count_near_2_pow_20_frozen(q, count):
    # q - 1 = 1025640 lies just below 2**20 and 1051050 above it, so a stride
    # or slicing fault that shows only at large n fails here; the counts are
    # those frozen in perfbench/data/large_field.json
    assert vf.count_single_free(vf.SingleCountQuery(q, 1, 1)) == count


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 13, 31, 64, 211, 961, 2311])
def test_uv_tables_masks_match_gcd(q):
    """The one coprimality sieve gives the gcd definition of the primitive
    exponents and of the non-units mod R (over two periods), is what
    e = None reads, and cannot be written through."""
    t = vf._uv_tables(fd.build_field(q))
    prim = np.gcd(np.arange(t.n), t.n) == 1
    assert np.array_equal(t.prim, prim)
    assert np.array_equal(t.prim_m, np.flatnonzero(prim))
    assert t.nonunits_R == sum(1 << k for k in range(2 * t.R) if gcd(k, t.R) > 1)
    assert vf._free_masks(t, (None,))[0] is t.prim
    assert not t.prim.flags.writeable
    with pytest.raises(ValueError):
        t.prim[0] = True


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 13, 31, 64, 2311, 3**7, 1025641, 3**13, 5**8, 2**20])
def test_add_one_table_is_int32_and_matches_the_int64_build(q):
    _, _, L1 = helpers.int64_tables(fd.build_field(q))
    t = vf._uv_tables(fd.build_field(q))
    assert t.L1.dtype == np.int32
    assert np.array_equal(t.L1, L1)


def _single_queries(q):
    """(u, v) = (1, 1) and random (u, v), with divisor arguments on some."""
    n = q - 1
    divisors = [e for e in range(1, n) if n % e == 0]
    rng = random.Random(q)
    queries = [vf.SingleCountQuery(q, 1, 1)]
    for _ in range(4):
        u, v = rng.randrange(1, q), rng.randrange(1, q)
        queries.append(vf.SingleCountQuery(q, u, v))
        queries.append(vf.SingleCountQuery(q, u, v, rng.choice(divisors), rng.choice(divisors)))
    return queries


@pytest.mark.parametrize("q", [2311, 3**7])
def test_sliced_fills_and_counts_match_unsliced(q, monkeypatch):
    """With 64-entry slices, phi(q - 1) (480 and 1,092) spans several of
    them, yet the log table, L1 and every count equal those of one slice."""
    F = fd.build_field(q)
    exp, log, L1 = helpers.int64_tables(F)
    queries = _single_queries(q)
    expected = [vf.count_single_free(query) for query in queries]
    monkeypatch.setattr(fd, "TABLE_SLICE", 64)
    fd.log_table.cache_clear()
    vf._uv_tables.cache_clear()
    try:
        T, t = fd.log_table(F), vf._uv_tables(F)
        assert np.array_equal(T.exp, exp)
        assert np.array_equal(T.log[:q], log) and T.log[q] == -1
        assert np.array_equal(t.L1, L1)
        assert [vf.count_single_free(query) for query in queries] == expected
    finally:
        fd.log_table.cache_clear()
        vf._uv_tables.cache_clear()


_TABLE_GROWTH = """
import sys
from uvprim import field, verify

def peak_kib():
    # VmHWM starts afresh at exec; ru_maxrss would start at the RSS of the
    # test process that forked this one
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

fields = [field.build_field(int(q)) for q in sys.argv[1:]]
before = peak_kib()
for F in fields:
    verify._uv_tables(F)
print((peak_kib() - before) * 1024 / max(F.q for F in fields))
"""


def _table_growth(*qs: int) -> float:
    """The peak RSS growth per element, in bytes, of a fresh interpreter
    that builds the tables of the fields `qs` in turn."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _TABLE_GROWTH, *map(str, qs)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("q", [4_194_301, 3**15])
def test_table_build_peak_is_bounded_per_element(q):
    """Building a field's tables (log_table, then L1 and the masks) lifts
    the peak RSS by at most 20 bytes per element.  This build measures
    16.0 (prime q = 4,194,301) and 17.0 (3**15); int64 tables measured 48,
    and an L1 built through whole-field int32 temporaries measures 25."""
    assert _table_growth(q) <= 20


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_field_switches_hold_at_most_two_fields():
    """Building four fields of about 4.19M elements in turn lifts the peak
    RSS by at most 40 bytes per element: the old field's tables are freed
    once the next one is built, so at most two fields are ever held.  This
    measures 34.8; caches that kept every field measured 66.9, and one
    field alone is 16.0."""
    assert _table_growth(4_194_301, 4_194_329, 4_194_353, 4_194_371) <= 40


def test_tables_of_a_left_field_are_freed():
    F1, F2 = fd.build_field(31), fd.build_field(37)
    t1 = vf._uv_tables(F1)
    refs = [weakref.ref(t1.L1), weakref.ref(t1.exp), weakref.ref(fd.log_table(F1))]
    del t1
    vf._uv_tables(F2)
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


@pytest.mark.parametrize("q", [2, 31, 3**4])
def test_uv_tables_hold_the_log_table_arrays(q):
    F = fd.build_field(q)
    t = vf._uv_tables(F)
    assert t.exp is fd.log_table(F).exp and t.log is fd.log_table(F).log


@given(st.sampled_from([7, 9, 11, 13, 16, 25]), st.data())
def test_free_counts_with_divisor_arguments(q, data):
    """M_{e1,e2} agrees with a double-loop oracle for arbitrary divisor
    pairs, not just the primitive/primitive corner."""
    F = fd.build_field(q)
    n = q - 1
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    e1 = data.draw(st.sampled_from(divisors))
    e2 = data.draw(st.sampled_from(divisors))
    u = data.draw(st.integers(1, n))
    v = data.draw(st.integers(1, n))
    got = vf.count_single_free(vf.SingleCountQuery(q, u, v, e1, e2))
    assert got == helpers.brute_M_free(F, u, v, e1, e2)


@pytest.mark.parametrize("q", [7, 9, 13])
def test_pair_counts_with_divisor_arguments(q):
    """N_{e1,e2,e3,e4} agrees with a plain loop over the field for
    divisor quadruples, not just the primitive corner."""
    F = fd.build_field(q)
    n = q - 1
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    rng = random.Random(q)
    for _ in range(6):
        es = [rng.choice(divisors) for _ in range(4)]
        u, v = rng.randrange(1, q), rng.randrange(1, q)
        got = vf.count_pairs_free(vf.PairCountQuery(q, u, v, *es))
        assert got == helpers.brute_N_free(F, u, v, *es), (q, u, v, es)


@pytest.mark.parametrize("q", [7, 9, 13])
def test_grids_with_divisor_arguments(q):
    """Both grids with non-default divisors equal the pointwise counts at
    every (u, v)."""
    t = fd.log_table(fd.build_field(q))
    n = q - 1
    divisors = [e for e in range(1, n) if n % e == 0]  # never q - 1 itself
    rng = random.Random(q)
    es = tuple(rng.choice(divisors) for _ in range(4))
    pg = vf.pair_count_grid(q, es)
    sg = vf.single_count_grid(q, es[0], es[1])
    for ju in range(n):
        for jv in range(n):
            u, v = int(t.exp[ju]), int(t.exp[jv])
            assert pg[ju, jv] == vf.count_pairs_free(vf.PairCountQuery(q, u, v, *es)), (q, es, u, v)
            assert sg[ju, jv] == vf.count_single_free(vf.SingleCountQuery(q, u, v, es[0], es[1])), (q, es, u, v)


def test_grids_validate_divisors():
    with pytest.raises(InvalidDivisorError):
        vf.single_count_grid(13, 5)
    with pytest.raises(InvalidDivisorError):
        vf.single_count_grid(13, None, 0)
    with pytest.raises(InvalidDivisorError):
        vf.pair_count_grid(13, (None, None, 7, None))


def test_trivial_freeness_counts_everything_nonvanishing():
    # e1 = e2 = 1: every nonzero a with u*a + v*a^-1 != 0
    from uvprim import screening as sc

    for q, u, v in [(13, 1, 1), (7, 1, 1), (4, 1, 1), (9, 2, 5)]:
        got = vf.count_single_free(vf.SingleCountQuery(q, u, v, 1, 1))
        assert got == q - 1 - sc.epsilon(q, u, v)


def test_count_queries_validate_divisors():
    with pytest.raises(InvalidDivisorError):
        vf.count_single_free(vf.SingleCountQuery(13, 1, 1, 5, None))
    with pytest.raises(InvalidDivisorError):
        vf.count_pairs_free(vf.PairCountQuery(13, 1, 1, e3=7))


@pytest.mark.parametrize("q,u,v", [(31, 40, 1), (31, -1, 1), (31, 0, 1), (31, 1, 31), (9, 9, 1)])
def test_count_queries_and_epsilon_validate_elements(q, u, v):
    # u and v must be nonzero elements of F_q, i.e. lie in [1, q): out-of-range
    # ints are rejected instead of being reduced mod p (or failing in BSGS)
    from uvprim import screening as sc

    with pytest.raises(ValueError, match="must lie in"):
        vf.count_single_free(vf.SingleCountQuery(q, u, v))
    with pytest.raises(ValueError, match="must lie in"):
        vf.count_pairs_free(vf.PairCountQuery(q, u, v))
    with pytest.raises(ValueError, match="must lie in"):
        sc.epsilon(q, u, v)


def test_sieve_splitting_identity_spot():
    # splitting one prime off the radical rescales the count exactly:
    # 5 * N(30, 6, 6, 6) = 4 * N(6, 6, 6, 6) in F_31
    n_scaled = vf.count_pairs_free(vf.PairCountQuery(31, 1, 1, 30, 6, 6, 6))
    n_base = vf.count_pairs_free(vf.PairCountQuery(31, 1, 1, 6, 6, 6, 6))
    assert 5 * n_scaled == 4 * n_base


def test_grids_against_pointwise_queries():
    rng = random.Random(99)
    for q in (9, 11, 13):
        t = fd.log_table(fd.build_field(q))
        n = q - 1
        pg = vf.pair_count_grid(q)
        sg = vf.single_count_grid(q)
        for _ in range(5):
            ju, jv = rng.randrange(n), rng.randrange(n)
            u, v = int(t.exp[ju]), int(t.exp[jv])
            assert pg[ju, jv] == vf.count_pairs_free(vf.PairCountQuery(q, u, v))
            assert sg[ju, jv] == vf.count_single_free(vf.SingleCountQuery(q, u, v))


# ----------------------------------------------------- element-set membership

def test_element_membership_f13():
    res = vf.check_element_membership_logs(13)
    assert res.set == "element" and res.algorithm == "logs"
    assert not res.member
    assert len(res.failures) == 34
    assert res.failures[:6] == ((1, 1), (1, 3), (1, 12), (1, 11), (1, 9), (1, 7))
    # failures come sorted by (log u, log v)
    t = fd.log_table(fd.build_field(13))
    keys = [(int(t.log[u]), int(t.log[v])) for u, v in res.failures]
    assert keys == sorted(keys)


def test_element_membership_f9():
    res = vf.check_element_membership_logs(9)
    assert res.failures == ((1, 1), (1, 2), (3, 8), (3, 4))


def test_element_membership_smallest_field():
    for res in (vf.check_element_membership_logs(2), vf.check_pair_membership(2)):
        assert not res.member
        assert res.failures == ((1, 1),)


@pytest.mark.parametrize("q,count", [(7, 18), (13, 34), (31, 73), (81, 20), (121, 44), (169, 54)])
def test_element_failure_counts_frozen(q, count):
    assert len(vf.check_element_membership_logs(q).failures) == count


def test_element_membership_member_field():
    res = vf.check_element_membership_logs(23)
    assert res.member and res.failures == ()
    assert res.stats["primitives_consumed"] > 0


def test_element_failures_really_fail():
    """Every reported failure (u, v) admits no (u,v)-primitive element, and
    a couple of unreported pairs do admit one."""
    q = 13
    F = fd.build_field(q)
    res = vf.check_element_membership_logs(q)
    failing = set(res.failures)
    for u, v in list(failing)[:8]:
        assert not any(vf.is_uv_primitive_element(F, a, u, v) for a in range(1, q))
    # (2, 1) is not among the failures: a witness must exist
    assert (2, 1) not in failing
    assert any(vf.is_uv_primitive_element(F, a, 2, 1) for a in range(1, q))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 11, 13, 19, 25, 29, 31, 61, 81, 97, 121])
def test_logs_and_coverage_algorithms_agree_on_exceptional_fields(q):
    a = vf.check_element_membership_logs(q)
    b = vf.check_element_membership_cover(q)
    assert a.member == b.member
    assert a.failures == b.failures
    assert b.algorithm == "ie"


@pytest.mark.parametrize("q", [17, 23, 27, 32, 53, 64, 101])
def test_logs_and_coverage_algorithms_agree_on_member_fields(q):
    a = vf.check_element_membership_logs(q)
    b = vf.check_element_membership_cover(q)
    assert a.member and b.member
    assert a.failures == b.failures == ()
    assert len(b.stats["stage_passes"]) == 1


@pytest.mark.parametrize("q", [q for q in range(2, 201) if nt.is_prime_power(q)])
def test_logs_failures_are_the_zero_cells_of_the_count_grid(q):
    """The failures are the (u, v) with log u < R whose exact count of
    (u,v)-primitive elements is zero, in (log u, log v) order: the grid
    counts every (u, v) on its own, so no w is mirrored from another."""
    t = vf._uv_tables(fd.build_field(q))
    zeros = np.argwhere(vf.single_count_grid(q)[: t.R] == 0)
    want = tuple((int(t.exp[ju]), int(t.exp[jv])) for ju, jv in zeros)
    assert vf.check_element_membership_logs(q).failures == want


def test_uncovered_residues_mirror_under_inversion():
    """A witness a for (u, v) is a witness a^-1 for (v, u), so w^-1 leaves
    uncovered exactly the residues k + log w mod R of those w leaves."""
    for q in (q for q in range(2, 401) if nt.is_prime_power(q)):
        t = vf._uv_tables(fd.build_field(q))
        for jw in range(t.n):
            mirrored = sorted((int(k) + jw) % t.R for k in vf._uncovered_for_w(t, jw))
            assert vf._uncovered_for_w(t, -jw % t.n).tolist() == mirrored, (q, jw)


# The full stats of the three checkers, captured at a reference commit: the
# CLI emits these dicts and perfbench/probes.py reads their keys.
FROZEN_STATS = {
    13: (
        {"primitives_consumed": 28, "logs_computed": 26, "w_values": 7},
        {"stage_passes": [0], "terms_peak": 3},
        {"orbits": 78, "witness_scans": 111},
    ),
    31: (
        {"primitives_consumed": 128, "logs_computed": 124, "w_values": 16},
        {"stage_passes": [2], "terms_peak": 27},
        {"orbits": 465, "witness_scans": 571},
    ),
    61: (
        {"primitives_consumed": 496, "logs_computed": 488, "w_values": 31},
        {"stage_passes": [2], "terms_peak": 31},
        {"orbits": 1830, "witness_scans": 1909},
    ),
}


@pytest.mark.parametrize("q", sorted(FROZEN_STATS))
def test_membership_stats_frozen(q):
    logs, ie, brute = FROZEN_STATS[q]
    assert vf.check_element_membership_logs(q).stats == logs
    assert vf.check_element_membership_cover(q).stats == ie
    assert vf.check_pair_membership(q).stats == brute


@pytest.mark.parametrize("q", [2, 3, 13, 31, 61, 64, 121])
def test_logs_passes_run_only_up_to_half_of_q_minus_1(q):
    """One direct pass per log w <= (q - 1)/2, and nothing else consumed."""
    t = vf._uv_tables(fd.build_field(q))
    want = {"primitives_consumed": 0, "logs_computed": 0}
    for jw in range(t.n // 2 + 1):
        vf._uncovered_for_w(t, jw, want)
    stats = vf.check_element_membership_logs(q).stats
    assert stats == {**want, "w_values": (q - 1) // 2 + 1}


# The `ie` stats and failure counts beyond q = 61, captured at a reference
# commit, where the accept-or-discard pass settles most w and the family
# grows to hundreds of terms.
FROZEN_IE_STATS = {
    121: ({"stage_passes": [40], "terms_peak": 55}, 44),
    211: ({"stage_passes": [106], "terms_peak": 188}, 0),
    243: ({"stage_passes": [122], "terms_peak": 130}, 0),
    256: ({"stage_passes": [128], "terms_peak": 1521}, 0),
}


@pytest.mark.parametrize("q", sorted(FROZEN_IE_STATS))
def test_cover_stats_frozen_beyond_61(q):
    res = vf.check_element_membership_cover(q)
    assert (res.stats, len(res.failures)) == FROZEN_IE_STATS[q]


# the lift's stats: its witness scans over the classes it scanned, then the
# counters of the element check it ran (the `logs` entries of FROZEN_STATS)
FROZEN_LIFT_STATS = {
    13: {"orbits": 34, "witness_scans": 52, "primitives_consumed": 28, "logs_computed": 26, "w_values": 7},
    31: {"orbits": 73, "witness_scans": 98, "primitives_consumed": 128, "logs_computed": 124, "w_values": 16},
    61: {"orbits": 142, "witness_scans": 147, "primitives_consumed": 496, "logs_computed": 488, "w_values": 31},
}


@pytest.mark.parametrize("q", sorted(FROZEN_LIFT_STATS))
def test_pair_lift_stats_frozen(q):
    assert vf.check_pair_membership_lift(q).stats == FROZEN_LIFT_STATS[q]


def _packed_add(F, a, b):
    """Elementwise sums of arrays of packed elements, base-p digit by digit."""
    out = np.zeros_like(a)
    for i in range(F.r):
        pw = F.p**i
        out += (a // pw % F.p + b // pw % F.p) % F.p * pw
    return out


@pytest.mark.parametrize("q", [2, 3, 13, 31, 61, 211, 2311, 3**7])
def test_uncovered_residues_match_the_gcd_definition(q):
    """For every w = gamma**jw, the direct pass returns exactly the k mod R
    with gcd(k + log r, R) > 1 for every primitive a = gamma**m whose
    r = a + w a^-1 = gamma**m + gamma**(jw - m) is nonzero, the sums taken
    by field addition rather than through the add-one table."""
    F = fd.build_field(q)
    T = fd.log_table(F)
    t = vf._uv_tables(F)
    n, R = q - 1, t.R
    shared = np.array([gcd(k, R) > 1 for k in range(R)])
    ms = np.array([m for m in range(n) if gcd(m, n) == 1])
    for jw in range(n):
        r = _packed_add(F, T.exp[ms], T.exp[(jw - ms) % n])
        left = np.arange(R)
        for c in T.log[r[r != 0]] % R:
            left = left[shared[(left + c) % R]]
            if not left.size:
                break
        assert np.array_equal(vf._uncovered_for_w(t, jw), left), (q, jw)


# ------------------------------------------------------- pair-set membership

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 13])
def test_pair_membership_exceptional(q):
    F = fd.build_field(q)
    prim = fd.primitive_elements(F)
    for res in (vf.check_pair_membership(q), vf.check_pair_membership_lift(q)):
        assert res.set == "pair" and not res.member
        assert res.failures
        for u, v in res.failures:
            assert not any(
                vf.is_uv_primitive_pair(F, a, b, u, v) for a in prim for b in prim
            ), (q, res.algorithm, u, v)


@pytest.mark.parametrize("q", [8, 9, 11, 16, 17, 19, 25])
def test_pair_membership_members(q):
    for res in (vf.check_pair_membership(q), vf.check_pair_membership_lift(q)):
        assert res.member and res.failures == ()


def test_pair_lift_matches_brute_to_100():
    """The lift reports brute force's verdict and failure tuple, in the same
    order, on every prime power up to 100."""
    for q in (q for q in range(2, 101) if nt.is_prime_power(q)):
        lift, brute = vf.check_pair_membership_lift(q), vf.check_pair_membership(q)
        assert (lift.member, lift.failures) == (brute.member, brute.failures), q
        assert (lift.algorithm, brute.algorithm) == ("lift", "brute")


def test_pair_failures_are_whole_classes_mod_R():
    """Both pair sums are u times a function of w = u^-1 v, so whether
    (u, v) fails depends only on (log u mod R, log w): brute force's
    failures, with their swaps, are whole classes {log u = k mod R} at each
    fixed log w.  The lift scans each class once, at log u = k."""
    for q in (q for q in range(2, 65) if nt.is_prime_power(q)):
        T = fd.log_table(fd.build_field(q))
        n, R = q - 1, nt.profile(q - 1).radical
        listed = {(int(T.log[u]), int(T.log[v])) for u, v in vf.check_pair_membership(q).failures}
        failing = listed | {(jv, ju) for ju, jv in listed}
        for ju, jv in failing:
            jw = (jv - ju) % n
            assert all((k, (k + jw) % n) in failing for k in range(ju % R, n, R)), (q, ju, jv)


def test_pair_membership_reports_orbit_representatives():
    # (u, v) and (v, u) induce the same pair condition (swap a and b), so
    # only representatives with log u <= log v are reported
    res = vf.check_pair_membership(13)
    t = fd.log_table(fd.build_field(13))
    for u, v in res.failures:
        assert int(t.log[u]) <= int(t.log[v])


# ----------------------------------------------------------- signed coverage

def test_coverage_start():
    state = vf.coverage_start(13)
    assert state.R == 6
    assert state.family == {} and state.uncovered == 6


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_coverage_start_rejects_a_non_field_order(q):
    with pytest.raises(NotAPrimePowerError):
        vf.coverage_start(q)


def test_coverage_term_by_hand():
    F = fd.build_field(13)
    term = vf.coverage_term(F, 1, 2)  # r = 2 + 1/2 = 9 = gamma^8
    # gcd(k + 8, 6) = 1 for k in [0, 6) exactly at k = 3, 5
    assert term == 0b101000 and term.bit_count() == 2


@pytest.mark.parametrize("w,a", [(1, 15), (1, 13), (1, -1), (1, 0), (0, 2), (13, 2), (-12, 2)])
def test_coverage_term_rejects_elements_outside_the_field(w, a):
    # a = 15 would otherwise be read as 2
    with pytest.raises(ValueError, match=r"\[1, 13\)"):
        vf.coverage_term(fd.build_field(13), w, a)


def test_coverage_term_vanishing_r():
    F = fd.build_field(13)
    # w = -1: r = a + w/a vanishes at a = 1 (and a = 12)
    assert vf.coverage_term(F, 12, 1) is None
    assert vf.coverage_term(F, 12, 12) is None


def test_coverage_merge_basics():
    F = fd.build_field(13)
    state = vf.coverage_start(13)
    term = vf.coverage_term(F, 1, 2)
    one = vf.coverage_merge(state, term, True, Fraction(1))
    assert one.uncovered == state.R - 2
    assert len(one.family) == 1

    # merging the identical term again changes nothing: its copy (-1) and
    # its meet with the stored term (+1) cancel, as (1 - [P])^2 = 1 - [P]
    two = vf.coverage_merge(one, term, True, Fraction(1))
    assert two.uncovered == one.uncovered
    assert two.family == one.family == {term: -1}


def test_coverage_merge_rejects_a_term_of_another_field():
    # F_31 has R = 30, F_13 has R = 6: a 30-bit term is no pattern of F_13,
    # and merged anyway it would drive the uncovered count negative
    state = vf.coverage_start(13)
    big = vf.coverage_term(fd.build_field(31), 1, 3)
    assert big >= 1 << state.R
    with pytest.raises(ValueError, match="6-bit"):
        vf.coverage_merge(state, big, True, Fraction(1))
    for bad in (0, -1, 1 << 6):
        with pytest.raises(ValueError, match="6-bit"):
            vf.coverage_merge(state, bad, True, Fraction(1))
    assert vf.coverage_merge(state, (1 << 6) - 1, True, Fraction(1)).uncovered == 0


def test_coverage_merge_rejection_returns_the_same_state():
    F = fd.build_field(13)
    state = vf.coverage_start(13)
    term = vf.coverage_term(F, 1, 2)
    # demanding a 99% cut rejects this offer (it only covers 2 of 6)
    rejected = vf.coverage_merge(state, term, False, Fraction(1, 100))
    assert rejected is state
    accepted = vf.coverage_merge(state, term, False, Fraction(3, 4))
    assert accepted is not state
    # "at most": a cut to exactly 4/6 of the count is accepted at 2/3
    assert vf.coverage_merge(state, term, False, Fraction(2, 3)) is not state


def test_coverage_union_at_f13():
    """Offering every primitive element at w = 1 covers exactly the residues
    {3, 5} of log u mod 6, matching the direct double loop; the uncovered
    count 4 is why 13 is exceptional."""
    F = fd.build_field(13)
    t = fd.log_table(F)
    state = vf.coverage_start(13)
    for a in fd.primitive_elements(F):
        term = vf.coverage_term(F, 1, a)
        if term is not None:
            state = vf.coverage_merge(state, term, True, Fraction(1))
    assert state.uncovered == 4

    covered = set()
    for a in fd.primitive_elements(F):
        r = fd.add(F, a, fd.inv(F, a))
        if r == 0:
            continue
        lr = int(t.log[r])
        covered.update(k for k in range(6) if gcd(k + lr, 6) == 1)
    assert covered == {3, 5}
    assert state.uncovered == 6 - len(covered)


@given(
    st.sampled_from([q for q in range(7, 300) if nt.is_prime_power(q)]),
    st.randoms(use_true_random=False),
)
def test_coverage_signed_count_equals_union_bitmap(q, rng):
    """The inclusion-exclusion bookkeeping must agree with an explicit
    union bitmap after every accepted merge."""
    F = fd.build_field(q)
    t = fd.log_table(F)
    n = q - 1
    R = F.q_minus_1.radical
    w = int(t.exp[rng.randrange(n)])
    prim = fd.primitive_elements(F)
    state = vf.coverage_start(q)
    covered = np.zeros(R, dtype=bool)
    ks = np.arange(R, dtype=np.int64)
    for _ in range(6):
        a = prim[rng.randrange(len(prim))]
        term = vf.coverage_term(F, w, a)
        if term is None:
            continue
        state = vf.coverage_merge(state, term, True, Fraction(1))
        r = fd.add(F, a, fd.mul(F, w, fd.inv(F, a)))
        covered |= np.gcd(ks + int(t.log[r]), R) == 1
        assert state.uncovered == R - int(covered.sum())


def test_check_w_frozen():
    assert vf.check_w(fd.build_field(23), 1, 10, Fraction(3, 4))
    assert not vf.check_w(fd.build_field(13), 1, 10, Fraction(3, 4))


@pytest.mark.parametrize("q", [q for q in range(2, 129) if nt.is_prime_power(q)])
def test_exhaustive_check_w_equals_direct_coverage(q):
    """With every offer accepted, the signed count reaches zero exactly when
    the direct pass covers every residue, for every w."""
    F = fd.build_field(q)
    t = vf._uv_tables(F)
    exp = fd.log_table(F).exp
    phi = len(fd.primitive_elements(F))
    for jw in range(q - 1):
        assert vf.check_w(F, int(exp[jw]), phi, Fraction(1)) == (vf._uncovered_for_w(t, jw).size == 0), (q, jw)


@pytest.mark.parametrize("q", [q for q in range(2, 65) if nt.is_prime_power(q)])
def test_check_w_matches_the_tuple_pattern_oracle(q):
    """For every w and each (nc, factor) below, from the `ie` checker's
    10, 3/4 to the exhaustive phi(q - 1), 1, `check_w` on one-integer
    patterns gives the answer and `terms_peak` of the engine that kept each
    pattern as a tuple of per-prime bitsets."""
    F = fd.build_field(q)
    exp = fd.log_table(F).exp
    cases = (
        (10, Fraction(3, 4)), (10, Fraction(4, 5)), (12, Fraction(5, 6)),
        (vf._uv_tables(F).prim_m.size, Fraction(1)),
    )
    for jw in range(q - 1):
        w = int(exp[jw])
        for nc, factor in cases:
            got, want = {}, {}
            assert vf.check_w(F, w, nc, factor, got) == tc.check_w(F, w, nc, factor, want), (q, w, nc)
            assert got == want, (q, w, nc)


def test_check_w_stats_and_zero_w():
    stats = {}
    assert vf.check_w(fd.build_field(23), 1, 10, Fraction(3, 4), stats)
    assert stats["terms_peak"] >= 1
    with pytest.raises(ZeroDivisionError):
        vf.check_w(fd.build_field(23), 0, 10, Fraction(3, 4))


@pytest.mark.parametrize("w", [23, -1, 24, 10**6])
def test_check_w_rejects_w_outside_the_field(w):
    with pytest.raises(ValueError, match=r"\[1, 23\)"):
        vf.check_w(fd.build_field(23), w, 10, Fraction(3, 4))


# ------------------------------------------------------------- special cases

def test_special_cases_f7():
    cases = vf.special_case_witnesses(7)
    assert cases["element-sum"] == (False, None)
    assert cases["element-diff"][0] is True
    assert cases["pair-sum"] == (False, None)
    ok, (a, b) = cases["pair-diff"]
    assert ok
    F = fd.build_field(7)
    assert vf.is_uv_primitive_pair(F, a, b, 1, fd.neg(F, 1))


def test_special_cases_f61():
    cases = vf.special_case_witnesses(61)
    assert cases["element-diff"][0] is False
    for name in ("element-sum", "pair-sum", "pair-diff"):
        assert cases[name][0] is True


@pytest.mark.parametrize("q", [q for q in range(2, 200) if nt.is_prime_power(q)])
def test_special_cases_match_the_plain_loops(q):
    """The first witnesses are those of plain loops over the primitive
    elements in ascending exponent order, b inside a for the pairs."""
    F = fd.build_field(q)
    prims = fd.primitive_elements(F)
    minus = fd.neg(F, 1)
    expected = {}
    for name, v in (("element-sum", 1), ("element-diff", minus)):
        hit = next((a for a in prims if vf.is_uv_primitive_element(F, a, 1, v)), None)
        expected[name] = (hit is not None, hit)
    for name, v in (("pair-sum", 1), ("pair-diff", minus)):
        hit = next(((a, b) for a in prims for b in prims if vf.is_uv_primitive_pair(F, a, b, 1, v)), None)
        expected[name] = (hit is not None, hit)
    assert vf.special_case_witnesses(q) == expected


def test_special_cases_f2():
    cases = vf.special_case_witnesses(2)
    assert all(ok is False for ok, _ in cases.values())


def test_special_case_witnesses_are_genuine():
    F = fd.build_field(31)
    minus = fd.neg(F, 1)
    cases = vf.special_case_witnesses(31)
    ok, a = cases["element-sum"]
    assert ok and vf.is_uv_primitive_element(F, a, 1, 1)
    ok, a = cases["element-diff"]
    assert ok and vf.is_uv_primitive_element(F, a, 1, minus)
    ok, (a, b) = cases["pair-sum"]
    assert ok and vf.is_uv_primitive_pair(F, a, b, 1, 1)
    ok, (a, b) = cases["pair-diff"]
    assert ok and vf.is_uv_primitive_pair(F, a, b, 1, minus)
