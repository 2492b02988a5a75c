"""Batch front-end: screening sweeps, membership verification, survey rows,
and exact-count oracles, with JSON/CSV reports.

Subcommands

  screen   bound-based screening over a range (or --survey for one omega row,
           or --needs-check-only for the fast full-range sweep)
  verify   exhaustive membership checks (element set: logs, or both to
           cross-check it against inclusion-exclusion; pair set: lift, from
           the element failures)
  oracle   exact counts (N, M) and the four classic special cases

Every screen and verify record carries omega(q - 1); filter a range report
on that field to keep the q of one omega.

Reports are deterministic: records sorted ascending by q, identical inputs
give identical bytes apart from the elapsed-time fields.  A JSON report is
written byte for byte as json.dumps(report, indent=2, sort_keys=True) would
write it.  Each record is written as soon as it is made, so a range screen
and the sweep keep no record; the totals come last.  verify alone holds
its records, because its "expect", written before them, needs them all.
A new --out, or a regular file with one link and our owner and group, is
replaced only by a complete report (it is streamed into a temporary file
beside it); any other --out, and stdout, is written in place, where a run
that fails may leave a partial report.  Exact rationals are serialized as
"num/den" strings with a 12-significant-digit decimal convenience field
alongside, rounded half-even whatever the caller's decimal context.  Exit
codes: 0 success (and --expect match), 1 --expect mismatch, 2 invalid
input (the CLI's own checks, or NotAPrimePowerError, InvalidElementError,
InvalidDivisorError, whose rules take the field --q built: a --q that is
no prime power is named as such, whatever its --u, --v and --e).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import json
import math
import os
import stat
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import chain, islice

from . import __version__
from . import field, ntcore, screening, verify
from .errors import InvalidDivisorError, InvalidElementError, NotAPrimePowerError


# --------------------------------------------------------------------------
# serialization helpers

def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, as _frac writes it (den > 0)."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


# its own context, so that the caller's rounding, traps and exponent case
# leave the report as it is
_DECIMAL = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN, capitals=1)


def _frac_decimal(x: Fraction) -> str:
    return _DECIMAL.to_sci_string(_DECIMAL.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))


def _config_dict(cfg: screening.SieveConfig | None) -> dict | None:
    if cfg is None:
        return None
    return {
        "k": cfg.k,
        "s": cfg.s,
        "sieving_primes": list(cfg.sieving_primes),
        **{f"delta{j}": _ratio(cfg.delta_num(j), cfg.product) for j in (2, 3, 4)},
    }


def _witness_dict(rep: screening.BoundReport | None) -> dict | None:
    if rep is None:
        return None
    bound = rep.lower_bound
    out = {
        "theorem": rep.theorem,
        "bound": _frac(bound),
        "bound_decimal": _frac_decimal(bound),
        "config": _config_dict(rep.config),
    }
    if rep.epsilon is not None:
        out["epsilon"] = rep.epsilon
    return out


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def _indented(obj, ind: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, with each
    container joined in one step (json falls back to its pure-Python encoder
    for any indent).  Strings, exact ints, None and finite floats are
    written as json writes them; JSONEncoder().encode, which sets up a C
    encoder on every call, writes the rare rest.  `ind` is the newline and
    indentation of the enclosing level."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ind + "  "
        items = []
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):
                if not isinstance(k, (int, float)) and k is not None:
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
                k = _encode_scalar(k)
            items.append(_encode_str(k) + ": " + _indented(v, inner))
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ind + "  "
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in obj]) + ind + "]"
    return _encode_scalar(obj)


def _write_json(report: dict, fh) -> None:
    """report as json.dumps(report, indent=2, sort_keys=True) writes it, one
    value at a time in key order.  Each record of report["records"], which
    may be a lazy iterator, is written as soon as it exists, so a value that
    sorts after it (totals) may be counted while the records are written."""
    lead = "{"
    for key in sorted(report):
        fh.write(lead + "\n  " + _encode_str(key) + ": ")
        lead = ","
        if key != "records":
            fh.write(_indented(report[key], "\n  "))
            continue
        sep = "["
        for rec in report[key]:
            fh.write(sep + "\n    " + _indented(rec, "\n    "))
            sep = ","
        fh.write("[]" if sep == "[" else "\n  ]")
    fh.write("\n}\n")


def _write_csv(report: dict, fh) -> None:
    """One row per record, under the first record's keys sorted; every
    record must have those keys.  Nested values are written as JSON."""
    w = csv.writer(fh, lineterminator="\n")
    cols = None
    for r in report["records"]:
        if cols is None:
            cols = sorted(r)
            w.writerow(cols)
        elif sorted(r) != cols:
            raise ValueError(f"a record has the keys {sorted(r)}, not the columns {cols}")
        w.writerow(
            ""
            if (v := r[c]) is None
            else v
            if isinstance(v, (int, float, str))
            else json.dumps(v, sort_keys=True)
            for c in cols
        )
    if cols is None:
        w.writerow(())


def _out_plan(out: str) -> tuple[str | None, os.stat_result | None]:
    """Where a report for --out goes, and the stat of what is there now
    (None if nothing).  It is moved onto the returned path, `out` or a
    symlink's target, if that is new or a regular file with one link and
    our owner and group.  Any other --out (a device, a FIFO, a hard-linked
    or foreign file) gives no path and is written in place, as
    open(out, "w") writes it."""
    path = os.path.realpath(out)
    try:
        st = os.stat(out)
    except (FileNotFoundError, NotADirectoryError):
        return path, None
    except OSError:  # a symlink loop, say: open(out, "w") will say so
        return None, None
    if (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.path.lexists(path)
        and os.path.samestat(st, os.stat(path))
    ):
        return path, st
    return None, st


def _emit(report: dict, fmt: str, out: str | None) -> None:
    """Write the report to stdout or to `out`.  Where `out` is replaced, the
    report is streamed into a file beside it that is moved onto it once the
    last byte is written; an existing file's mode goes with it."""
    write = _write_json if fmt == "json" else _write_csv
    if not out:
        write(report, sys.stdout)
        return
    path, st = _out_plan(out)
    if path is None:
        with open(out, "w") as fh:
            write(report, fh)
        return
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(4).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            write(report, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# per-q workers (top level so process pools can pickle them)

def _q_fields(pp: ntcore.PrimePowerId) -> dict:
    """The q, p, r and omega(q - 1) fields every per-q record starts with."""
    return {"q": pp.q, "p": pp.p, "r": pp.r, "omega": ntcore.profile(pp.q - 1).omega}


def _verdict_record(pp: ntcore.PrimePowerId, verdict: screening.ScreeningVerdict, elapsed_ms: float | None) -> dict:
    """The one record of a screening verdict."""
    return {
        **_q_fields(pp),
        "status": verdict.status,
        "witness": _witness_dict(verdict.witness),
        "elapsed_ms": elapsed_ms,
    }


def _screen_record(pp: ntcore.PrimePowerId) -> dict:
    t0 = time.perf_counter()
    verdict = screening.screen(pp.q)
    return _verdict_record(pp, verdict, round((time.perf_counter() - t0) * 1e3, 3))


# the algorithms of each --set, the default first; "both" cross-checks logs
# against the inclusion-exclusion checker (stats key "ie")
_ALGOS = {"T": ("logs", "both"), "S": ("lift",)}


def _verify_record(job: tuple[str, ntcore.PrimePowerId]) -> dict:
    # the checkers are looked up in verify at each call, so a traced replacement runs
    algo, pp = job
    t0 = time.perf_counter()
    if algo == "both":
        a, b = verify.check_element_membership_logs(pp.q), verify.check_element_membership_cover(pp.q)
        if (a.member, a.failures) != (b.member, b.failures):
            raise RuntimeError(f"algorithm disagreement at q={pp.q}: {a.failures} vs {b.failures}")
        res, stats = a, {"logs": a.stats, "ie": b.stats}
    else:
        res = (verify.check_element_membership_logs if algo == "logs" else verify.check_pair_membership_lift)(pp.q)
        stats = res.stats
    return {
        **_q_fields(pp),
        "set": res.set,
        "member": res.member,
        "algorithm": algo,
        "failures": [list(f) for f in res.failures],
        "stats": stats,
        "elapsed_ms": round((time.perf_counter() - t0) * 1e3, 3),
    }


def _map_jobs(fn, items, jobs: int | None):
    """fn over the iterable items, yielded in order as they come (the pool
    stays open until the last is taken)."""
    # jobs = None means all cores; the pool forks all its workers up front,
    # so never more than there are items or cores.  Only 4 * 1024 items per
    # worker are read ahead: past that, neither it nor the chunk size grows.
    cores = os.cpu_count() or 1
    items = iter(items)
    head = list(islice(items, 4 * 1024 * min(jobs or cores, cores)))
    workers = min(jobs or cores, len(head), cores)
    items = chain(head, items)
    if workers <= 1:
        yield from map(fn, items)
        return
    # A chunk's results come back as one list, and the pool would take every
    # chunk of a map at once; so the items go in batches of one chunk per
    # worker, the next batch submitted while this one is taken.  However fast
    # the workers are, at most two batches of results wait for the reader.
    chunk = max(1, min(1024, len(head) // (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        taken = iter(())
        while batch := list(islice(items, workers * chunk)):
            batch = ex.map(fn, batch, chunksize=chunk)
            yield from taken
            taken = batch
        yield from taken


# --------------------------------------------------------------------------
# subcommand drivers

def _range(args, parser) -> tuple[int, int]:
    """--min (default 2) to --max, which must be given; the range must not
    be empty."""
    if args.max is None:
        parser.error("a range needs --max (--min defaults to 2)")
    lo = args.min if args.min is not None else 2
    if lo > args.max:
        parser.error(f"empty range [{lo}, {args.max}]")
    return lo, args.max


def _prime_powers(args, parser):
    """The requested prime powers, ascending: the --q list, or the range streamed."""
    if args.q:
        _refuse(args, parser, "--q", "min", "max")
        return [ntcore.prime_power_decompose(q) for q in sorted(set(args.q))]
    return ntcore.iter_prime_powers(*_range(args, parser))


def _refuse(args, parser, mode: str, *options: str) -> None:
    """Exit 2 if any of these options, which `mode` would ignore, is given."""
    given = [f"--{o.replace('_', '-')}" for o in options if (x := getattr(args, o)) is not None and x is not False]
    if given:
        parser.error(f"{mode} takes no {', '.join(given)}")


def run_screen(args, parser) -> tuple[dict, int]:
    if args.survey is not None:
        _refuse(args, parser, "--survey", "q", "min", "max", "needs_check_only", "jobs")
        if not 1 <= args.survey <= screening.MAX_SURVEY_OMEGA:
            parser.error(f"--survey takes 1..{screening.MAX_SURVEY_OMEGA}")
        t0 = time.perf_counter()
        row = screening.survey(args.survey)
        rec = {**dataclasses.asdict(row), "elapsed_ms": round((time.perf_counter() - t0) * 1e3, 3)}
        totals = {
            "failing": len(row.failing_list),
            "failing_primes": len(row.failing_primes),
            "failing_prime_powers": len(row.failing_prime_powers),
        }
        return {"records": [rec], "totals": totals}, 0

    if args.needs_check_only:
        _refuse(args, parser, "--needs-check-only", "q")
        _, verdicts = screening.sweep(*_range(args, parser))
        recs = (_verdict_record(ntcore.prime_power_decompose(v.q), v, None) for v in verdicts)
        keys = ("primes", "prime_powers", "omega_ge_7", screening.PAIR_PROVED, screening.NEEDS_CHECK)
    else:
        recs = _map_jobs(_screen_record, _prime_powers(args, parser), args.jobs)
        keys = (screening.ELEMENT_PROVED, screening.PAIR_PROVED, screening.NEEDS_CHECK)
    totals = dict.fromkeys(("records", *keys), 0)

    def records():
        # counted as they are written; the writer comes to totals after them
        for rec in recs:
            totals["records"] += 1
            totals[rec["status"]] += 1
            if args.needs_check_only:
                totals["primes" if rec["r"] == 1 else "prime_powers"] += 1
                totals["omega_ge_7"] += rec["omega"] >= 7
            yield rec

    return {"records": records(), "totals": totals}, 0


def _read_expect(path: str, parser) -> list[int]:
    """The --expect file's non-member list, sorted; exit 2 unless the file
    holds a JSON list of distinct ints."""
    try:
        with open(path) as fh:
            expected = json.load(fh)
    except OSError as e:
        parser.error(f"--expect: cannot read {path}: {e.strerror}")
    except ValueError as e:  # not JSON, or not text
        parser.error(f"--expect: {path} is not JSON: {e}")
    if not isinstance(expected, list) or not all(type(q) is int for q in expected) or len(set(expected)) < len(expected):
        parser.error(f"--expect: {path} must hold a JSON list of distinct ints")
    return sorted(expected)


def run_verify(args, parser) -> tuple[dict, int]:
    algos = _ALGOS[args.set]
    algo = args.algo or algos[0]
    if algo not in algos:
        parser.error(f"--set {args.set} supports --algo {'|'.join(algos)} only")
    top = max(args.q) if args.q else args.max
    if top is not None and top > field.LOG_TABLE_CAP:
        parser.error(f"verify builds a log table of the field; q <= {field.LOG_TABLE_CAP} only")
    expected = _read_expect(args.expect, parser) if args.expect is not None else None
    qs = _prime_powers(args, parser)
    # a list, not a stream: "expect", written before the records, needs them all
    records = list(_map_jobs(_verify_record, ((algo, pp) for pp in qs), args.jobs))
    non_members = [r["q"] for r in records if not r["member"]]
    totals = {"records": len(records), "members": len(records) - len(non_members), "non_members": non_members}
    report = {"records": records, "totals": totals}
    code = 0
    if expected is not None:
        scanned = {r["q"] for r in records}
        expected_here = [q for q in expected if q in scanned]
        report["expect"] = {"file": args.expect, "expected": expected_here, "match": expected_here == non_members}
        code = 0 if report["expect"]["match"] else 1
    return report, code


# N and cases search by brute force; M reads only the field's exp array,
# in an odd prime field only its first half
_ORACLE_GUARDS = {"N": 10**4, "M": field.LOG_TABLE_CAP, "cases": 10**4}
# kind -> (number of --e divisors, query type)
_COUNTS = {"N": (4, verify.PairCountQuery), "M": (2, verify.SingleCountQuery)}


def run_oracle(args, parser) -> tuple[dict, int]:
    q = args.q
    # the guard first: factoring a large q with two big primes takes seconds
    if q > _ORACLE_GUARDS[args.kind]:
        parser.error(f"oracle {args.kind} takes q <= {_ORACLE_GUARDS[args.kind]} only")
    if args.kind == "cases":
        _refuse(args, parser, "oracle cases", "u", "v", "e")
        t0 = time.perf_counter()
        cases = {
            name: {"exists": ok, "witness": list(w) if isinstance(w, tuple) else w}
            for name, (ok, w) in verify.special_case_witnesses(q).items()
        }
        rec = {"kind": "cases", "q": q, "cases": cases}
    else:
        arity, query = _COUNTS[args.kind]
        u, v = (1 if x is None else x for x in (args.u, args.v))
        es = None
        if args.e:
            try:
                es = [int(x) for x in args.e.split(",")]
            except ValueError:
                parser.error(f"bad --e list: {args.e!r}")
            if len(es) != arity:
                parser.error(f"oracle {args.kind} takes {arity} --e divisors")
        t0 = time.perf_counter()
        count = verify.count_pairs_free if args.kind == "N" else verify.count_single_free
        n = count(query(q, u, v, *(es or (None,) * arity)))
        rec = {"kind": args.kind, "q": q, "u": u, "v": v, "e": es, "count": n}
    rec["elapsed_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
    return {"records": [rec], "totals": {"records": 1}}, 0


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uvprim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_range=True):
        if with_range:  # the modes that run one job per q
            sp.add_argument("--q", type=int, nargs="+", help="explicit prime powers, in place of a range")
            sp.add_argument("--min", type=int, help="range start (inclusive, default 2)")
            sp.add_argument("--max", type=int, help="range end (inclusive)")
            sp.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="write the report to this file instead of stdout")

    sp = sub.add_parser("screen", help="bound-based screening")
    common(sp)
    sp.add_argument("--survey", type=int, metavar="OMEGA", help="emit one worst-case survey row")
    sp.add_argument(
        "--needs-check-only",
        action="store_true",
        help="fast single-process sweep emitting only the q not provable by element bounds (ignores --jobs)",
    )
    sp.set_defaults(func=run_screen)

    sp = sub.add_parser("verify", help="exhaustive membership verification")
    common(sp)
    sp.add_argument("--set", required=True, choices=("T", "S"), help="which membership set")
    sp.add_argument("--algo", choices=[a for algos in _ALGOS.values() for a in algos])
    sp.add_argument("--expect", help="JSON file with the expected non-member q list")
    sp.set_defaults(func=run_verify)

    sp = sub.add_parser("oracle", help="exact brute-force counts and witnesses")
    sp.add_argument("kind", choices=("N", "M", "cases"))
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--u", type=int, help="default 1")
    sp.add_argument("--v", type=int, help="default 1")
    sp.add_argument("--e", help="comma-separated freeness divisors (4 for N, 2 for M)")
    common(sp, with_range=False)
    sp.set_defaults(func=run_oracle)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    jobs = getattr(args, "jobs", None)  # oracle takes no --jobs
    if jobs is not None and jobs < 1:
        parser.error(f"--jobs must be at least 1, got {jobs}")
    if args.out:
        # refused before any q runs; a report that replaces --out is written
        # beside it first, so that directory must be writable too
        path, st = _out_plan(args.out)
        if path is None:
            writable = os.access(args.out, os.W_OK) and not os.path.isdir(args.out)
        else:
            parent = os.path.dirname(path)
            writable = os.path.isdir(parent) and os.access(parent, os.W_OK) and (st is None or os.access(path, os.W_OK))
        if not writable:
            parser.error(f"--out: cannot write {args.out}")
    try:
        report, code = args.func(args, parser)
    except (NotAPrimePowerError, InvalidElementError, InvalidDivisorError) as e:
        parser.error(str(e))
    report["command"] = argv
    _emit(report, args.format, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
