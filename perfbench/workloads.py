"""Workload inputs and the reference checks of their outputs.

Pure stdlib and free of `uvprim` imports, so the parent process of a run
(and the tests) can use it without loading the package under test.

Every workload but `large-field` has fixed inputs; `large-field` draws
part of its field list from the seed.  Inputs are sized so that one
repetition fits the run length in BENCHMARK.json: the sweep and the
screen range are one CLI call each, as the user runs them; the element and
pair sets are the shipping `verify` commands cut to the prime powers below
ELEMENT_MAX / PAIR_MAX, because the full ranges (70 s and 13 s on a
2-core box) do not fit a run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

SWEEP_ARGV = ["screen", "--needs-check-only", "--min", "3", "--max", "51500000", "--jobs", "1"]
SCREEN_ARGV = ["screen", "--min", "3", "--max", "300000", "--jobs", "1"]
ELEMENT_MAX = 250
PAIR_MAX = 160

# The field whose `logs` check is OOM-killed; its count dominates the
# workload's time and its tables set the peak RSS.
LARGE_FIXED_Q = 31_651_621
LARGE_DRAWS = 12
# The drawn fields are the sweep's needs-check q in (10**6, this], the keys
# of data/large_field_ms.json (49 of the 94 above 10**6).  Every table the
# counts build stays cached, about 33 bytes per field element, so the drawn
# fields add up: twelve from this pool hold at most 1.42 GB with the fixed
# field's tables (the largest draw of seeds 0-2999), below the 1.72 GB the
# fixed count peaks at, and `peak_rss_mib` is the fixed field's on every
# seed.  Sixteen fields up to 4*10**6 held up to 1.83 GB, so the peak moved
# with the draw.  In sets of ten seeds, eight draws left `q_ms_p50` spread
# by 0.13 and 0.16, twelve by 0.06, 0.06 and 0.13.
LARGE_DRAW_MAX = 2_000_000

WORKLOADS = ("sweep", "screen", "element", "pair", "large-field")

# Workloads whose call times are given at the reference host speed
# (hostspeed.py).  Over ten 15 s runs of each on a 2-core box (five of the
# fixed large-field count), with the host's slowdown between 1.1x and 1.7x,
# their raw times moved with the calibration loop's slowdown to the power
# 0.9-1.2 (sweep 0.88, screen 0.97, element 1.16, pair 1.20), and
# normalising cut the spread of log(wall_s) from 0.06-0.13 to 0.03.  The
# fixed large-field count, whose GB-sized tables make it memory-bound,
# moved only with the power 0.26: normalising it would turn a host slowdown
# into a speed-up, so `large-field` reports measured time.
HOST_NORMALISED = ("sweep", "screen", "element", "pair")

# Percentile reported as `q_ms_tail`: the highest one with about ten
# per-call samples beyond it in one repetition.  The sweep and the screen
# range are one CLI call each, and the large-field repetition has
# thirteen counts, so their tail is the slowest call.
TAIL_PCT = {"sweep": 100, "screen": 100, "element": 80, "pair": 80, "large-field": 100}


def load(name: str):
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)


def verify_argv(which: str, q: int) -> list[str]:
    if which == "element":
        return ["verify", "--set", "T", "--algo", "both", "--q", str(q), "--jobs", "1"]
    return ["verify", "--set", "S", "--q", str(q), "--jobs", "1"]


def prime_powers_upto(n: int) -> list[int]:
    """Prime powers 2..n, by a plain sieve (independent of the package)."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            q = p
            while q <= n:
                out.append(q)
                q *= p
    return sorted(out)


def large_field_qs(seed: int, costs: dict[int, float]) -> list[int]:
    """The fixed field, then LARGE_DRAWS fields drawn by `seed`.  The pool
    is ordered by the cost of its count at the reference commit (`costs`,
    q -> ms) and cut into LARGE_DRAWS equal strata, and one q is drawn from
    each: every seed costs about the same, and the middle one of the
    thirteen counts, `q_ms_p50`, is always a field from the same stratum.
    With strata by q, the middle one's counts ranged over 370-640 ms on a
    2-core box, which moved `q_ms_p50` more than its bound."""
    drawable = sorted(costs, key=lambda q: (costs[q], q))
    rng = random.Random(seed)
    k = len(drawable)
    drawn = []
    for i in range(LARGE_DRAWS):
        stratum = drawable[i * k // LARGE_DRAWS : (i + 1) * k // LARGE_DRAWS]
        drawn.append(rng.choice(stratum))
    return [LARGE_FIXED_Q] + drawn


def inputs(workload: str, seed: int) -> list:
    """The per-call inputs of one repetition: q values for the per-q
    workloads, a single argv for the sweep and the screen range."""
    if workload == "sweep":
        return [SWEEP_ARGV]
    if workload == "screen":
        return [SCREEN_ARGV]
    if workload == "element":
        return prime_powers_upto(ELEMENT_MAX)
    if workload == "pair":
        return prime_powers_upto(PAIR_MAX)
    if workload == "large-field":
        return large_field_qs(seed, {int(q): ms for q, ms in load("large_field_ms").items()})
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# reference checks: each returns (operations attempted, operations failed)

def check_records(got: list[list], ref: dict[str, list[int]]) -> tuple[int, int]:
    """`got` holds (q, status) records; `ref` maps status -> q list.  One
    operation per reference record; a missing, duplicated or wrongly
    classified q fails, and so does every record for a q not in `ref`."""
    want = {q: status for status, qs in ref.items() for q in qs}
    seen: dict[int, str | None] = {}
    extra = 0
    for q, status in got:
        if q in seen or q not in want:
            extra += 1
            seen[q] = None
        else:
            seen[q] = status
    failed = sum(1 for q, status in want.items() if seen.get(q) != status) + extra
    return len(want), min(failed, len(want))


def check_members(got: list[list], qs: list[int], exceptional: list[int]) -> tuple[int, int]:
    """`got` holds (q, member) per verified q.  A q fails when its answer is
    missing or disagrees with the exceptional list."""
    answers = dict((q, m) for q, m in got)
    bad = set(exceptional)
    failed = sum(1 for q in qs if answers.get(q) != (q not in bad))
    return len(qs), failed


def check_counts(got: list[list], qs: list[int], ref: dict[str, int]) -> tuple[int, int]:
    """`got` holds (q, count, inside_interval) per count.  A count fails
    when it is missing, differs from the frozen exact value, or falls
    outside the interval bound the worker checked it against."""
    answers = {q: (c, ok) for q, c, ok in got}
    failed = 0
    for q in qs:
        c, ok = answers.get(q, (None, False))
        if c != ref[str(q)] or not ok:
            failed += 1
    return len(qs), failed


def check(workload: str, qs: list, got: list) -> tuple[int, int]:
    if workload in ("sweep", "screen"):
        return check_records(got, load(workload))
    if workload == "element":
        return check_members(got, qs, load("exceptional_element"))
    if workload == "pair":
        return check_members(got, qs, load("exceptional_pair"))
    return check_counts(got, qs, load("large_field"))


def operations(workload: str, qs: list) -> int:
    """Operations one repetition attempts, for counting a crashed one."""
    if workload in ("sweep", "screen"):
        return sum(len(v) for v in load(workload).values())
    return len(qs)
