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
import tracemalloc
import weakref
from collections import Counter
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
from uvprim.errors import InvalidDivisorError, InvalidElementError, LogTableTooLargeError, NotAPrimePowerError


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
    assert vf._free_masks(t.n, t.prim, (None,))[0] is t.prim
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
    divisors = [e for e in range(1, n) if n % e == 0] or [1]
    rng = random.Random(q)
    queries = [vf.SingleCountQuery(q, 1, 1)]
    for _ in range(4):
        u, v = rng.randrange(1, q), rng.randrange(1, q)
        queries.append(vf.SingleCountQuery(q, u, v))
        queries.append(vf.SingleCountQuery(q, u, v, rng.choice(divisors), rng.choice(divisors)))
    return queries


@pytest.mark.parametrize("q", [2311, 2357, 3**7])
def test_sliced_fills_and_counts_match_unsliced(q, monkeypatch):
    """With 64-entry slices, phi(q - 1) (480, 1,080 and 1,092) spans several
    of them, yet the log table, L1 and every count equal those of one
    slice.  The u = v counts, whose halved range ends inside a slice, equal
    the whole-range loop's.  At 2,357 (n = 4 * 19 * 31) the counts at
    e2 = None fill the mask from n/2 = 1,178 exponents and mirror it, and
    fold to the period n/2, across slice seams."""
    F = fd.build_field(q)
    exp, log, L1 = helpers.int64_tables(F)
    queries = _single_queries(q)
    expected = [vf.count_single_free(query) for query in queries]
    paired = [vf.SingleCountQuery(q, u, u, e1) for u in (2, q - 1) for e1 in (None, 1)]
    expected_paired = [helpers.whole_range_M_free(q, c.u, c.v, c.e1) for c in paired]
    monkeypatch.setattr(fd, "TABLE_SLICE", 64)
    caches = (fd.log_table, vf._uv_tables)
    for cache in caches:
        cache.cache_clear()
    try:
        T, t = fd.log_table(F), vf._uv_tables(F)
        assert np.array_equal(T.exp, exp)
        assert np.array_equal(T.log, log)
        assert np.array_equal(t.L1, L1)
        assert [vf.count_single_free(query) for query in queries] == expected
        assert [vf.count_single_free(query) for query in paired] == expected_paired
    finally:
        for cache in caches:
            cache.cache_clear()


# count_single_free over _single_queries(q), pinned from the add-one log
# table path the count took before it read the exp array alone
_PINNED_SINGLE_COUNTS = {
    2: [0, 0, 0, 0, 0, 0, 0, 0, 0],
    3: [0, 0, 2, 0, 2, 0, 2, 0, 0],
    4: [0, 1, 2, 1, 2, 1, 2, 1, 2],
    8: [6, 4, 6, 5, 6, 4, 6, 3, 6],
    9: [0, 0, 2, 2, 2, 2, 2, 2, 6],
    16: [8, 4, 5, 5, 9, 5, 9, 2, 11],
    25: [0, 4, 4, 4, 12, 4, 6, 4, 4],
    27: [6, 5, 11, 6, 24, 5, 6, 5, 26],
    81: [16, 12, 12, 14, 32, 10, 32, 12, 28],
    2311: [88, 103, 388, 101, 463, 105, 986, 103, 531],
    3**7: [546, 546, 2184, 546, 2184, 545, 2184, 544, 1090],
    2**12: [768, 729, 988, 735, 1440, 716, 1238, 751, 1680],
    5**5: [760, 616, 1242, 638, 776, 618, 1400, 634, 642],
    7**4: [208, 174, 788, 188, 388, 172, 504, 170, 264],
}


@pytest.mark.parametrize("q", sorted(_PINNED_SINGLE_COUNTS))
def test_single_count_reads_no_log_table(q, monkeypatch):
    """The count takes its logs by Pohlig-Hellman and its sums by field
    addition, so it runs with the log table and the add-one table out of
    reach, and gives the counts the add-one table gave."""

    def refuse(F):
        raise AssertionError("count_single_free built a log table")

    monkeypatch.setattr(fd, "log_table", refuse)
    monkeypatch.setattr(vf, "_uv_tables", refuse)
    assert [vf.count_single_free(query) for query in _single_queries(q)] == _PINNED_SINGLE_COUNTS[q]


def test_prime_single_count_reads_only_half_the_exp_array(monkeypatch):
    """An odd prime field is counted from `fd.exp_half` with `fd.exp_table`
    out of reach, and gives the pinned counts and those frozen above 2**20.
    At 1,000,003 and 2,097,211 (q = 3 mod 4, so n = 2 mod 4) an even e2 is
    not kept by x -> x + n/2: the target is filled whole, its second half
    from q - gamma**y, and checked against the whole-range loop."""
    queries = [vf.SingleCountQuery(q, 1, 1) for q in (1025641, 1051051)]
    for q in (1_000_003, 2_097_211):
        queries += [vf.SingleCountQuery(q, u, v, e1, 2) for u, v in ((1, 1), (5, 7)) for e1 in (None, 2)]
    expected = [42076, 38748] + [helpers.whole_range_M_free(c.q, c.u, c.v, c.e1, c.e2) for c in queries[2:]]

    def refuse(F):
        raise AssertionError("count_single_free built the whole exp array")

    monkeypatch.setattr(fd, "exp_table", refuse)
    assert [vf.count_single_free(query) for query in _single_queries(2311)] == _PINNED_SINGLE_COUNTS[2311]
    assert [vf.count_single_free(query) for query in queries] == expected


def test_single_count_refuses_a_field_over_the_cap():
    """As `fd.log_table` does: refused before any table is allocated (the
    exp array would take 256 MiB, each byte mask 64 MiB)."""
    tracemalloc.start()
    try:
        with pytest.raises(LogTableTooLargeError):
            vf.count_single_free(vf.SingleCountQuery(67_108_879, 1, 1))  # the first prime above 2**26
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


_TABLE_GROWTH = """
import sys
from uvprim import field, verify

def peak_kib():
    # VmHWM starts afresh at exec; ru_maxrss would start at the RSS of the
    # test process that forked this one
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

def count(F):
    verify.count_single_free(verify.SingleCountQuery(F.q, 1, 1))

build = {"tables": verify._uv_tables, "count": count}[sys.argv[1]]
fields = [field.build_field(int(q)) for q in sys.argv[2:]]
before = peak_kib()
for F in fields:
    build(F)
print((peak_kib() - before) * 1024 / max(F.q for F in fields))
"""


def _table_growth(*qs: int, build: str = "tables") -> float:
    """The peak RSS growth per element, in bytes, of a fresh interpreter
    that builds the tables of the fields `qs` in turn (or, with build =
    "count", counts M(q, 1, 1) in each)."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _TABLE_GROWTH, build, *map(str, qs)],
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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_single_count_peak_is_bounded_per_element():
    """Counting M(q, 1, 1) lifts the peak RSS by at most 6 bytes per element
    at q = 4,194,301 and 4.5 at q = 31,651,621: half the exp array (2), one
    primitive mask and the folded target mask over half the exponents and
    elements (0.5 each), and slice temporaries.  These measure 4.9 and 3.2;
    the count through the whole exp array measured 7.7 and 6.2, and through
    the log table and the add-one table 21.6 at 4,194,301.  At q = 4,194,319
    = 3 mod 4, -1 is a non-square, so the primitive mask and the target
    cover every exponent and element (1 each): at most 8.5, measured 7.3."""
    assert _table_growth(4_194_301, build="count") <= 6
    assert _table_growth(31_651_621, build="count") <= 4.5
    assert _table_growth(4_194_319, build="count") <= 8.5


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


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 11, 16, 19, 23, 27, 32])
def test_single_count_at_u_equal_v_pairs_x_with_minus_x(q):
    """At u = v the count sums 0 < x < n/2 once and doubles it, then adds
    the self-paired x = 0 and, for even n, x = n/2.  q even gives n odd;
    q = 3 mod 4 gives n/2 odd, so gcd(n/2, Rad(e1)) = 1 holds at e1 = 1
    and 2.  Every u = v, every e1, and e2 drawn by a seeded RNG."""
    F = fd.build_field(q)
    n = q - 1
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    rng = random.Random(q)
    for u in range(1, q):
        for e1 in [None, *divisors]:
            e2 = rng.choice([None, *divisors])
            got = vf.count_single_free(vf.SingleCountQuery(q, u, u, e1, e2))
            assert got == helpers.brute_M_free(F, u, u, e1 or n, e2 or n), (u, e1, e2)


@pytest.mark.parametrize("q", [100_003, 100_049, 1_000_003, 1_000_033])
def test_single_count_equals_the_whole_range_loop(q):
    """The count equals the loop over every e1-free x with the mask filled
    by boolean compression, for (1, 1), two (u, u) and two (u, v) with
    u != v, with and without divisor arguments.  100,049 and 1,000,033 have
    4 | n, so (None, None) folds to the period n/2 and mirrors the mask;
    100,003 and 1,000,003 have n = 2 mod 4, where only odd e1 and e2 fold.
    The (e1, e2) pairs take every parity."""
    n = q - 1
    divisors = [e for e in range(1, n + 1) if n % e == 0]
    odd = [e for e in divisors if e % 2]
    rng = random.Random(q)
    a, b, c, d, e, f = rng.sample(range(2, q), 6)
    for u, v in [(1, 1), (a, a), (b, b), (c, d), (e, f)]:
        drawn = [(rng.choice(odd), rng.choice(odd)), (rng.choice(divisors), rng.choice(divisors))]
        for e1, e2 in [(None, None), (1, 2), (2, 1), *drawn]:
            got = vf.count_single_free(vf.SingleCountQuery(q, u, v, e1, e2))
            assert got == helpers.whole_range_M_free(q, u, v, e1, e2), (u, v, e1, e2)


def test_single_count_equals_the_whole_range_loop_to_300():
    """Every prime power q <= 300, at (u, v) = (1, 1), (1, -1) and (2, 3),
    with e1 and e2 each of None, 1, 2, n/2 and the odd part of n (those
    that divide n = q - 1).  The fields of odd order fold to the period n/2
    wherever 4 | n or e1 and e2 are odd, and the odd extension fields
    (9, 25, 27, 49, 81, 121, 125, 169, 243, 289) are where mirroring the
    mask by q - s would be wrong."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 300)):
        F = fd.build_field(q)
        n = q - 1
        odd_part = n // (n & -n)
        es = [None, *sorted({e for e in (1, 2, n // 2, odd_part) if e and n % e == 0})]
        uvs = [(1, 1), (1, fd.neg(F, 1))]
        if q > 3:
            uvs.append((2, 3))
        for u, v in uvs:
            for e1 in es:
                for e2 in es:
                    got = vf.count_single_free(vf.SingleCountQuery(q, u, v, e1, e2))
                    assert got == helpers.whole_range_M_free(q, u, v, e1, e2), (q, u, v, e1, e2)


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


def _refuse_tables(monkeypatch):
    def no_table(F):
        raise AssertionError(f"tables of F_{F.q} built")

    monkeypatch.setattr(fd, "exp_table", no_table)
    monkeypatch.setattr(fd, "exp_half", no_table)
    monkeypatch.setattr(vf, "_uv_tables", no_table)


def test_grids_validate_divisors(monkeypatch):
    _refuse_tables(monkeypatch)
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


def test_count_queries_validate_divisors(monkeypatch):
    """A bad e is refused before any table is built: at q = 31,651,621 the
    exp array alone is 127 MB, and `_uv_tables` near the cap over a GB."""
    _refuse_tables(monkeypatch)
    with pytest.raises(InvalidDivisorError):
        vf.count_single_free(vf.SingleCountQuery(13, 1, 1, 5, None))
    with pytest.raises(InvalidDivisorError, match=r"e=1000000007 does not divide q-1=31651620"):
        vf.count_single_free(vf.SingleCountQuery(31651621, 1, 1, 10**9 + 7))
    with pytest.raises(InvalidDivisorError, match=r"e=7 does not divide q-1=12"):
        vf.count_pairs_free(vf.PairCountQuery(13, 1, 1, e3=7))


@pytest.mark.parametrize("q,u,v", [(31, 40, 1), (31, -1, 1), (31, 0, 1), (31, 1, 31), (9, 9, 1)])
def test_count_queries_and_epsilon_validate_elements(q, u, v):
    # u and v must be nonzero elements of F_q, i.e. lie in [1, q): out-of-range
    # ints are rejected instead of being reduced mod p (or failing in BSGS)
    from uvprim import screening as sc

    with pytest.raises(InvalidElementError, match="must lie in"):
        vf.count_single_free(vf.SingleCountQuery(q, u, v))
    with pytest.raises(InvalidElementError, match="must lie in"):
        vf.count_pairs_free(vf.PairCountQuery(q, u, v))
    with pytest.raises(InvalidElementError, match="must lie in"):
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


@pytest.mark.parametrize("q", [pp.q for pp in nt.enumerate_prime_powers(2, 200)])
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
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 400)):
        t = vf._uv_tables(fd.build_field(q))
        for jw in range(t.n):
            mirrored = sorted((int(k) + jw) % t.R for k in vf._uncovered_for_w(t, jw, Counter()))
            assert vf._uncovered_for_w(t, -jw % t.n, Counter()).tolist() == mirrored, (q, jw)


def test_uncovered_residues_depend_on_log_w_mod_g():
    """With c = gamma^(tR), a witness a for (u c, v c^-1) gives the witness
    c a for (u, v), log(u c) = log u mod R and log w drops by 2tR: so every
    w leaves uncovered the residues its class log w mod g = gcd(2R, q - 1)
    leaves.  Checked for every jw on every prime power up to 1200 with
    g < q - 1."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 1200)):
        t = vf._uv_tables(fd.build_field(q))
        if t.g == t.n:
            continue
        reps = [vf._uncovered_for_w(t, r, Counter()).tolist() for r in range(t.g)]
        for jw in range(t.g, t.n):
            assert vf._uncovered_for_w(t, jw, Counter()).tolist() == reps[jw % t.g], (q, jw)


def test_checkers_equal_the_per_w_loop_to_1000():
    """Both element checkers, one pass per class of log w mod g, list the
    failures of the direct pass at every log w <= (q - 1)/2 with w^-1
    mirrored, on every prime power up to 1000: q = 2, 4, 8 and 128 (q - 1
    odd, g = R) among them."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 1000)):
        want = helpers.per_w_element_failures(q)
        for check in (vf.check_element_membership_logs, vf.check_element_membership_cover):
            res = check(q)
            assert (res.member, res.failures) == (not want, want), (q, res.algorithm)


def test_failing_classes_are_the_classes_of_the_element_failures_to_1000():
    """The one class pass lists each failing class (log u mod R, log w mod
    g) once, and they are the classes of the listed element failures, on
    every prime power up to 1000."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 1000)):
        t = vf._uv_tables(fd.build_field(q))
        classes = vf._failing_classes(t, range(t.g // 2 + 1), {})
        assert len(set(classes)) == len(classes), q
        assert set(classes) == helpers.element_failure_classes(q), q


# The full stats of the three checkers, captured at a reference commit: the
# CLI emits these dicts and perfbench/probes.py reads their keys.
FROZEN_STATS = {
    13: (
        {"primitives_consumed": 28, "logs_computed": 26, "w_values": 7},
        {"stage_passes": [0], "terms_peak": 3, "primitives_consumed": 28, "logs_computed": 26, "w_values": 7},
        {"orbits": 78, "witness_scans": 111},
    ),
    31: (
        {"primitives_consumed": 128, "logs_computed": 124, "w_values": 16},
        {"stage_passes": [2], "terms_peak": 27, "primitives_consumed": 112, "logs_computed": 108, "w_values": 16},
        {"orbits": 465, "witness_scans": 571},
    ),
    61: (
        {"primitives_consumed": 496, "logs_computed": 488, "w_values": 31},
        {"stage_passes": [2], "terms_peak": 31, "primitives_consumed": 464, "logs_computed": 456, "w_values": 31},
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
    """One direct pass per class representative log w <= g/2, g = gcd(2R,
    q - 1) <= q - 1, and nothing else consumed."""
    t = vf._uv_tables(fd.build_field(q))
    want = {"primitives_consumed": 0, "logs_computed": 0}
    for jw in range(t.g // 2 + 1):
        vf._uncovered_for_w(t, jw, want)
    stats = vf.check_element_membership_logs(q).stats
    assert stats == {**want, "w_values": t.g // 2 + 1}


def test_logs_passes_at_65537_are_three(monkeypatch):
    """q - 1 = 2^16, R = 2, g = 4: the representatives log w = 0, 1, 2."""
    t = vf._uv_tables(fd.build_field(65537))
    passes = []
    real = vf._uncovered_for_w

    def counted(t, jw, stats):
        passes.append(jw)
        return real(t, jw, stats)

    monkeypatch.setattr(vf, "_uncovered_for_w", counted)
    res = vf.check_element_membership_logs(65537)
    assert (t.R, t.g, passes, res.stats["w_values"]) == (2, 4, [0, 1, 2], 3)
    assert res.member


# The `ie` stats and failure counts beyond q = 61, captured at a reference
# commit, where the accept-or-discard pass settles most w and the family
# grows to hundreds of terms.
FROZEN_IE_STATS = {
    121: ({"stage_passes": [20], "terms_peak": 45, "primitives_consumed": 352, "logs_computed": 344, "w_values": 31}, 44),
    211: ({"stage_passes": [106], "terms_peak": 188, "primitives_consumed": 0, "logs_computed": 0, "w_values": 106}, 0),
    243: ({"stage_passes": [12], "terms_peak": 18, "primitives_consumed": 0, "logs_computed": 0, "w_values": 12}, 0),
    256: ({"stage_passes": [128], "terms_peak": 1521, "primitives_consumed": 0, "logs_computed": 0, "w_values": 128}, 0),
    331: ({"stage_passes": [166], "terms_peak": 249, "primitives_consumed": 0, "logs_computed": 0, "w_values": 166}, 0),
    421: ({"stage_passes": [211], "terms_peak": 251, "primitives_consumed": 0, "logs_computed": 0, "w_values": 211}, 0),
    729: ({"stage_passes": [183], "terms_peak": 390, "primitives_consumed": 0, "logs_computed": 0, "w_values": 183}, 0),
    911: ({"stage_passes": [456], "terms_peak": 928, "primitives_consumed": 0, "logs_computed": 0, "w_values": 456}, 0),
    967: ({"stage_passes": [484], "terms_peak": 673, "primitives_consumed": 0, "logs_computed": 0, "w_values": 484}, 0),
    1024: ({"stage_passes": [512], "terms_peak": 2310, "primitives_consumed": 0, "logs_computed": 0, "w_values": 512}, 0),
}


@pytest.mark.parametrize("q", sorted(FROZEN_IE_STATS))
def test_cover_stats_frozen_beyond_61(q):
    res = vf.check_element_membership_cover(q)
    assert (res.stats, len(res.failures)) == FROZEN_IE_STATS[q]


@pytest.mark.parametrize("q", [13, 31, 61, 64, 97, 121, 243, 911])
def test_cover_counts_the_direct_passes_its_rung_leaves(q):
    """`ie` counts what its direct passes consume, as `logs` does, but only
    for the class representatives its accept-or-discard pass leaves."""
    t = vf._uv_tables(fd.build_field(q))
    rung = {"stage_passes": [0], "terms_peak": 0}
    want = {"primitives_consumed": 0, "logs_computed": 0}
    for r in range(t.g // 2 + 1):
        if not vf._rung_settles(t, r, rung):
            vf._uncovered_for_w(t, r, want)
    assert vf.check_element_membership_cover(q).stats == {**rung, **want, "w_values": t.g // 2 + 1}


def test_cover_counts_equal_logs_when_nothing_settles_and_vanish_when_all_do():
    """At q = 13 the rung settles none of the 7 representatives, so `ie`
    consumes what `logs` does (28 exponents, 26 logs); at q = 911 it
    settles all 456, so no direct pass runs."""
    ie, logs = vf.check_element_membership_cover(13).stats, vf.check_element_membership_logs(13).stats
    assert ie["stage_passes"] == [0]
    assert (ie["primitives_consumed"], ie["logs_computed"]) == (logs["primitives_consumed"], logs["logs_computed"]) == (28, 26)
    ie = vf.check_element_membership_cover(911).stats
    assert ie["stage_passes"] == [ie["w_values"]] == [456]
    assert (ie["primitives_consumed"], ie["logs_computed"]) == (0, 0)


# the lift's stats: its witness scans over the classes it scanned, then the
# counters of the element check it ran (the `logs` entries of FROZEN_STATS)
FROZEN_LIFT_STATS = {
    13: {"orbits": 34, "witness_scans": 52, "primitives_consumed": 28, "logs_computed": 26, "w_values": 7},
    31: {"orbits": 73, "witness_scans": 98, "primitives_consumed": 128, "logs_computed": 124, "w_values": 16},
    61: {"orbits": 142, "witness_scans": 147, "primitives_consumed": 496, "logs_computed": 488, "w_values": 31},
    # g = 12 < q - 1 = 96: one group of the 8 failing classes, one scan
    97: {"orbits": 1, "witness_scans": 1, "primitives_consumed": 224, "logs_computed": 222, "w_values": 7},
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
        assert np.array_equal(vf._uncovered_for_w(t, jw, Counter()), left), (q, jw)


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
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 100)):
        lift, brute = vf.check_pair_membership_lift(q), vf.check_pair_membership(q)
        assert (lift.member, lift.failures) == (brute.member, brute.failures), q
        assert (lift.algorithm, brute.algorithm) == ("lift", "brute")


def test_pair_failures_are_whole_classes_mod_R():
    """Both pair sums are u times a function of w = u^-1 v, so whether
    (u, v) fails depends only on (log u mod R, log w): brute force's
    failures, with their swaps, are whole classes {log u = k mod R} at each
    fixed log w.  The lift scans each class once, at log u = k."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 64)):
        T = fd.log_table(fd.build_field(q))
        n, R = q - 1, nt.profile(q - 1).radical
        listed = {(int(T.log[u]), int(T.log[v])) for u, v in vf.check_pair_membership(q).failures}
        failing = listed | {(jv, ju) for ju, jv in listed}
        for ju, jv in failing:
            jw = (jv - ju) % n
            assert all((k, (k + jw) % n) in failing for k in range(ju % R, n, R)), (q, ju, jv)


def test_counts_are_invariant_under_the_R_shift():
    """With c = gamma^R, a -> c a maps the witnesses of (u c, v c^-1) onto
    those of (u, v), and (a, b) -> (a c^-1, b c) the pair witnesses of
    (u, v) onto those of (u c, v c^-1): so both exact count grids satisfy
    grid[ju + R, jv - R] = grid[ju, jv], which is what lets the element pass
    and the lift read log w only mod g = gcd(2R, q - 1).  Checked on every
    prime power below 65 with g < q - 1.  Every field with a pair-set
    failure has g = q - 1, so no failure list exercises the lift's expansion
    over log w; the next test forces one."""
    for q in (pp.q for pp in nt.enumerate_prime_powers(2, 64)):
        t = vf._uv_tables(fd.build_field(q))
        if t.g == t.n:
            continue
        for grid in (vf.single_count_grid(q), vf.pair_count_grid(q)):
            assert np.array_equal(np.roll(grid, (-t.R, t.R), axis=(0, 1)), grid), q
            assert not np.array_equal(np.roll(grid, (-1, 1), axis=(0, 1)), grid), q


def test_pair_lift_expands_a_failing_group_to_its_whole_class(monkeypatch):
    """With every witness scan failing, the lift lists every (u, v) with
    log u <= log v whose class (log u mod R, log w) the element check lists:
    each scanned group (k, log w mod g) stands for all of its log w."""
    monkeypatch.setattr(vf, "_pair_witness", lambda *args: None)
    for q in (97, 121, 169):
        t = vf._uv_tables(fd.build_field(q))
        assert t.g < t.n
        element = {(int(t.log[u]), int(t.log[v])) for u, v in vf.check_element_membership_logs(q).failures}
        want = tuple(
            (int(t.exp[ju]), int(t.exp[jv]))
            for ju in range(t.n)
            for jv in range(ju, t.n)
            if (ju % t.R, (ju % t.R + jv - ju) % t.n) in element
        )
        res = vf.check_pair_membership_lift(q)
        assert want and res.failures == want, q
        assert res.stats["orbits"] == len({(k, (jv - k) % t.g) for k, jv in element}), q


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
    st.sampled_from([pp.q for pp in nt.enumerate_prime_powers(7, 299)]),
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
    """The `ie` checker's one pass settles w = 1 at q = 23, not at q = 13."""
    for q, settles in ((23, True), (13, False)):
        stats = {"stage_passes": [0], "terms_peak": 0}
        assert vf._rung_settles(vf._uv_tables(fd.build_field(q)), 0, stats) is settles
        assert stats["stage_passes"] == [settles] and stats["terms_peak"] >= 1


@pytest.mark.parametrize("q", [pp.q for pp in nt.enumerate_prime_powers(2, 128)])
def test_exhaustive_check_w_equals_direct_coverage(q):
    """With every offer accepted, the public coverage family's uncovered
    count is the number of residues the direct pass leaves uncovered, for
    every w.  Merging stops once nothing is left uncovered."""
    F = fd.build_field(q)
    t = vf._uv_tables(F)
    prims = fd.primitive_elements(F)
    for jw in range(q - 1):
        w = int(t.exp[jw])
        state = vf.coverage_start(q)
        for a in prims:
            term = vf.coverage_term(F, w, a)
            if term is not None:
                state = vf.coverage_merge(state, term, True, Fraction(1))
                if not state.uncovered:
                    break
        assert state.uncovered == vf._uncovered_for_w(t, jw, Counter()).size, (q, jw)


@pytest.mark.parametrize(
    "q", [pp.q for pp in nt.enumerate_prime_powers(2, 64)] + [128, 211, 243, 256, 512, 729, 911, 1024]
)
def test_check_w_matches_the_tuple_pattern_oracle(q):
    """For every w below q = 65, and beyond it for every class
    representative log w <= g/2 the checkers pass, the `ie` checker's one
    pass on one-integer patterns gives the answer and the stats of the
    engine that kept each pattern as a tuple of per-prime bitsets.  The
    larger fields grow the family to hundreds of terms, with odd R (the
    powers of 2, one family) and even R (two halves by parity)."""
    t = vf._uv_tables(fd.build_field(q))
    for jw in range(q - 1 if q < 65 else t.g // 2 + 1):
        got, want = ({"stage_passes": [0], "terms_peak": 0} for _ in range(2))
        assert vf._rung_settles(t, jw, got) == tc.rung_settles(t, jw, want), (q, jw)
        assert got == want, (q, jw)


@settings(max_examples=300)
@given(st.integers(1, 64), st.data())
def test_coverage_merge_keeps_the_union_identity_on_arbitrary_terms(R, data):
    """On arbitrary nonzero R-bit terms, not only CRT patterns: after each
    accepted merge the stored patterns OR to the union U of the accepted
    terms, `uncovered` is R - |U|, and sum c [k in B] = -[k in U] for every
    class k.  A rejected offer returns the state itself."""
    state = vf.CoverageState(R=R, family={}, uncovered=R)
    union = 0
    for _ in range(data.draw(st.integers(1, 10))):
        term = data.draw(st.integers(1, (1 << R) - 1))
        always = data.draw(st.booleans())
        factor = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
        new = vf.coverage_merge(state, term, always, factor)
        if not always and R - (union | term).bit_count() > factor * state.uncovered:
            assert new is state
            continue
        assert new is not state
        state, union = new, union | term
        keys = 0
        for bits in state.family:
            keys |= bits
        assert keys == union
        assert state.uncovered == R - union.bit_count()
        for k in range(R):
            assert sum(c for bits, c in state.family.items() if bits >> k & 1) == -(union >> k & 1), k


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


@pytest.mark.parametrize("q", [pp.q for pp in nt.enumerate_prime_powers(2, 199)])
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
