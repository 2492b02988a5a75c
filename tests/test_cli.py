"""End-to-end runs of the command-line front-end through ``cli.main``."""

import csv
import dataclasses
import decimal
import enum
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from uvprim import cli, field, ntcore, screening, verify


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def strip_elapsed(records):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]


# ------------------------------------------------------------------ screen

def test_screen_single_q(tmp_path):
    code, rep = run(["screen", "--q", "169"], tmp_path)
    assert code == 0
    (rec,) = rep["records"]
    assert (rec["q"], rec["p"], rec["r"], rec["omega"]) == (169, 13, 2, 3)
    assert rec["status"] == "needs_check"
    assert rec["witness"] is None


def test_screen_range_totals(tmp_path):
    code, rep = run(["screen", "--min", "3", "--max", "40", "--jobs", "1"], tmp_path)
    assert code == 0
    assert rep["totals"] == {
        "records": 18,
        "element_proved": 1,
        "pair_proved": 4,
        "needs_check": 13,
    }
    assert [r["q"] for r in rep["records"]] == sorted(r["q"] for r in rep["records"])
    by_q = {r["q"]: r for r in rep["records"]}
    assert by_q[32]["status"] == "element_proved"
    assert by_q[17]["witness"]["theorem"] == "pair-interval"
    assert by_q[23]["witness"]["theorem"] == "pair-sieve"
    assert by_q[23]["witness"]["config"]["s"] >= 1


def test_screen_witness_serialization(tmp_path):
    _, rep = run(["screen", "--q", "23"], tmp_path)
    w = rep["records"][0]["witness"]
    num, den = map(int, w["bound"].split("/"))
    assert num > 0 and den > 0
    assert float(w["bound_decimal"]) == pytest.approx(num / den, rel=1e-11)
    cfg = w["config"]
    assert set(cfg) == {"k", "s", "sieving_primes", "delta2", "delta3", "delta4"}


def test_config_deltas_are_written_as_their_fractions():
    """_config_dict reduces delta_num(j)/product itself; it writes what the
    Fraction properties would, negative and reducible deltas included."""
    configs = [
        rep.config
        for pp in ntcore.enumerate_prime_powers(3, 3000)
        for rep in screening.screen(pp.q).all_reports
        if rep.config is not None
    ]
    deltas = [(cfg.delta2, cfg.delta3, cfg.delta4) for cfg in configs]
    assert any(d < 0 for ds in deltas for d in ds)
    assert any(d.denominator < cfg.product for cfg, ds in zip(configs, deltas) for d in ds)
    for cfg, ds in zip(configs, deltas):
        written = cli._config_dict(cfg)
        assert [written[f"delta{j}"] for j in (2, 3, 4)] == [cli._frac(d) for d in ds]


def test_screen_records_reuse_the_enumerated_prime_powers(tmp_path, monkeypatch):
    """A range's records take p and r from the enumeration; an explicit list
    decomposes each distinct q once, when it is validated."""
    calls = []
    prime_power_decompose = ntcore.prime_power_decompose

    def spy(q):
        calls.append(q)
        return prime_power_decompose(q)

    monkeypatch.setattr(ntcore, "prime_power_decompose", spy)
    _, rep = run(["screen", "--min", "3", "--max", "2000", "--jobs", "1"], tmp_path)
    assert calls == [] and rep["totals"]["records"] == 332
    _, rep = run(["screen", "--q", "13", "13", "169", "--jobs", "1"], tmp_path)
    assert sorted(calls) == [13, 169]
    assert [(r["q"], r["p"], r["r"]) for r in rep["records"]] == [(13, 13, 1), (169, 13, 2)]


def test_survey_row(tmp_path):
    code, rep = run(["screen", "--survey", "1"], tmp_path)
    assert code == 0
    (rec,) = rep["records"]
    assert rec["omega"] == 1
    assert rec["chosen_s"] is None
    assert (rec["q_min"], rec["q_max"], rec["candidates"]) == (3, 25, 6)
    assert rec["failing_primes"] == [3, 5, 17]
    assert rec["failing_prime_powers"] == [4, 8, 9]
    assert rep["totals"] == {"failing": 6, "failing_primes": 3, "failing_prime_powers": 3}


def test_needs_check_only_sweep(tmp_path):
    code, rep = run(["screen", "--max", "200", "--needs-check-only"], tmp_path)
    assert code == 0
    assert rep["totals"] == {
        "records": 58,
        "primes": 46,
        "prime_powers": 12,
        "pair_proved": 22,
        "needs_check": 36,
        "omega_ge_7": 0,
    }
    assert all(r["elapsed_ms"] is None for r in rep["records"])
    assert all(r["status"] != "element_proved" for r in rep["records"])


def test_needs_check_only_accepts_and_ignores_jobs(tmp_path):
    # the benchmark's sweep argv passes --jobs 1; the sweep runs in one process
    code, rep = run(["screen", "--needs-check-only", "--min", "3", "--max", "200", "--jobs", "1"], tmp_path)
    assert code == 0
    assert rep["totals"]["records"] == 57


@pytest.mark.parametrize("top", [2, 200])
def test_needs_check_only_starts_where_a_range_starts(top, tmp_path):
    # --min defaults to 2 in every mode, so the sweep lists q = 2 too
    _, rep = run(["screen", "--needs-check-only", "--max", str(top)], tmp_path)
    _, verdicts = screening.sweep(2, top)
    assert [(r["q"], r["status"]) for r in rep["records"]] == [(v.q, v.status) for v in verdicts]


# ------------------------------------------------------------------ verify

def test_verify_element_range_both_algorithms(tmp_path):
    code, rep = run(
        ["verify", "--set", "T", "--max", "50", "--algo", "both", "--jobs", "1"],
        tmp_path,
    )
    assert code == 0
    assert rep["totals"]["non_members"] == [2, 3, 4, 5, 7, 9, 11, 13, 19, 25, 29, 31, 37, 41, 43, 49]
    rec = next(r for r in rep["records"] if r["q"] == 13)
    assert rec["failures"][0] == [1, 1] and len(rec["failures"]) == 34
    assert set(rec["stats"]) == {"logs", "ie"}


def test_verify_expect_match(tmp_path):
    expect = str(files("uvprim.data") / "exceptional_pair.json")
    code, rep = run(
        ["verify", "--set", "S", "--max", "20", "--expect", expect, "--jobs", "1"],
        tmp_path,
    )
    assert code == 0
    assert rep["expect"]["match"] is True
    assert rep["expect"]["expected"] == [2, 3, 4, 5, 7, 13]
    assert rep["totals"]["non_members"] == [2, 3, 4, 5, 7, 13]


def test_verify_expect_filters_to_scanned_range(tmp_path):
    expect = str(files("uvprim.data") / "exceptional_pair.json")
    code, rep = run(
        ["verify", "--set", "S", "--max", "6", "--expect", expect, "--jobs", "1"],
        tmp_path,
    )
    assert code == 0
    assert rep["expect"]["expected"] == [2, 3, 4, 5]


def test_verify_expect_mismatch_exit_code(tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text("[2, 3]")
    code, rep = run(
        ["verify", "--set", "S", "--max", "6", "--expect", str(wrong), "--jobs", "1"],
        tmp_path,
    )
    assert code == 1
    assert rep["expect"]["match"] is False


@pytest.mark.parametrize(
    "content",
    ["not json", '["13", 17]', '[2, "x"]', '{"13": 1}', "[true]", "13", "[13, 13]", None],
    ids=["not-json", "string-q", "string-entry", "object", "bool", "scalar", "repeat", "missing"],
)
def test_verify_expect_is_validated_before_any_check(content, tmp_path, monkeypatch):
    """A bad --expect file exits 2 (invalid input, not a mismatch) before
    any q is verified."""
    calls = []
    for name in ("check_element_membership_logs", "check_element_membership_cover", "check_pair_membership_lift"):
        monkeypatch.setattr(verify, name, lambda q, name=name: calls.append(name))
    path = tmp_path / "expect.json"
    if content is not None:
        path.write_text(content)
    for argv in (["--set", "T", "--algo", "both"], ["--set", "S"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv, "--q", "13", "17", "--expect", str(path), "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
    assert calls == []


@pytest.mark.parametrize("target", ["missing-dir", "dir", "parent-is-file", "symlink-loop"])
def test_unwritable_out_is_refused_before_any_check(target, tmp_path, monkeypatch, capsys):
    """An --out that cannot be written, or not even stat'ed (a symlink
    loop), exits 2 (invalid input, not a mismatch) before any q is screened
    or verified."""
    calls = []
    for name in ("check_element_membership_logs", "check_element_membership_cover", "check_pair_membership_lift"):
        monkeypatch.setattr(verify, name, lambda q, name=name: calls.append(name))
    monkeypatch.setattr(screening, "screen", lambda q: calls.append("screen"))
    (tmp_path / "file").write_text("")
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    out = {
        "missing-dir": tmp_path / "no" / "x.json",
        "dir": tmp_path,
        "parent-is-file": tmp_path / "file" / "x.json",
        "symlink-loop": tmp_path / "a",
    }
    for argv in (["verify", "--set", "T", "--algo", "both"], ["verify", "--set", "S"], ["screen"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--q", "5", "13", "--jobs", "1", "--out", str(out[target])])
        assert exc.value.code == 2
        assert "--out: cannot write" in capsys.readouterr().err
    assert calls == []


def test_out_in_an_unwritable_directory_is_refused_before_any_check(tmp_path, monkeypatch):
    """The report is written beside --out and moved onto it, so --out's
    directory must be writable even where --out itself is."""
    calls = []
    monkeypatch.setattr(screening, "screen", lambda q: calls.append("screen"))
    out = tmp_path / "x.json"
    out.write_text("old report")
    access = os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: access(path, mode) and str(path) != str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["screen", "--q", "5", "13", "--jobs", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert calls == [] and out.read_text() == "old report"


def test_existing_out_is_replaced_only_by_the_report(tmp_path, monkeypatch):
    """A run that fails leaves an existing --out file as it was; a run
    that succeeds replaces it with the report."""
    out = tmp_path / "x.json"
    out.write_text("old report")

    def fail(q):
        raise RuntimeError("checker failed")

    monkeypatch.setattr(verify, "check_pair_membership_lift", fail)
    with pytest.raises(RuntimeError):
        cli.main(["verify", "--set", "S", "--q", "13", "--jobs", "1", "--out", str(out)])
    assert out.read_text() == "old report"
    monkeypatch.undo()
    assert cli.main(["verify", "--set", "S", "--q", "13", "--jobs", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["records"][0]["q"] == 13


def test_algorithm_disagreement_fails_the_run_and_leaves_out_as_it_was(tmp_path, monkeypatch):
    """--algo both raises, naming q, when the inclusion-exclusion checker
    disagrees with logs, and an existing --out keeps its bytes."""
    logs = verify.check_element_membership_logs
    monkeypatch.setattr(verify, "check_element_membership_cover", lambda q: dataclasses.replace(logs(q), failures=()))
    out = tmp_path / "x.json"
    out.write_bytes(b"old report")
    with pytest.raises(RuntimeError, match=r"at q=13:"):
        cli.main(["verify", "--set", "T", "--q", "13", "--algo", "both", "--jobs", "1", "--out", str(out)])
    assert out.read_bytes() == b"old report"


def test_failed_range_screen_leaves_out_as_it_was(tmp_path, monkeypatch):
    """The report is streamed into a temporary file beside --out: a screen
    that fails at its third q leaves an existing --out as it was and no
    other file in the directory."""
    out = tmp_path / "x.json"
    out.write_text("old report")
    screen = screening.screen
    calls = []

    def fail_third(q):
        calls.append(q)
        if len(calls) == 3:
            raise RuntimeError("screen failed")
        return screen(q)

    monkeypatch.setattr(screening, "screen", fail_third)
    for fmt in ("json", "csv"):
        calls.clear()
        with pytest.raises(RuntimeError):
            cli.main(["screen", "--min", "3", "--max", "1000", "--jobs", "1", "--format", fmt, "--out", str(out)])
        assert len(calls) == 3
        assert out.read_text() == "old report"
        assert os.listdir(tmp_path) == ["x.json"]


def test_new_out_gets_the_mode_of_a_plain_new_file(tmp_path):
    """The temporary file is created private; the report moved onto --out
    has the mode open(out, "w") would have given it."""
    out = tmp_path / "x.json"
    assert cli.main(["screen", "--q", "13", "--out", str(out)]) == 0
    (tmp_path / "plain").write_text("")
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["plain", "x.json"]


def test_existing_out_keeps_its_mode(tmp_path):
    """A private report replaced by a new one stays private."""
    out = tmp_path / "x.json"
    out.write_text("old report")
    out.chmod(0o600)
    assert cli.main(["screen", "--q", "13", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["records"][0]["q"] == 13
    assert out.stat().st_mode & 0o777 == 0o600
    assert os.listdir(tmp_path) == ["x.json"]


def test_symlinked_out_writes_its_target(tmp_path, monkeypatch):
    """A symlink --out stays a symlink: its target is the file replaced, and
    a run that fails leaves the target as it was."""
    (tmp_path / "d").mkdir()
    target = tmp_path / "d" / "x.json"
    target.write_text("old report")
    link = tmp_path / "link.json"
    link.symlink_to(target)

    def fail(q):
        raise RuntimeError("screen failed")

    monkeypatch.setattr(screening, "screen", fail)
    with pytest.raises(RuntimeError):
        cli.main(["screen", "--q", "13", "--jobs", "1", "--out", str(link)])
    assert target.read_text() == "old report"
    monkeypatch.undo()
    assert cli.main(["screen", "--q", "13", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["records"][0]["q"] == 13
    assert os.listdir(tmp_path / "d") == ["x.json"]


def test_hard_linked_out_is_written_in_place(tmp_path):
    """A file with another name is written in place, so both names read the
    report."""
    out = tmp_path / "x.json"
    out.write_text("old report")
    other = tmp_path / "y.json"
    os.link(out, other)
    assert cli.main(["screen", "--q", "13", "--out", str(out)]) == 0
    assert json.loads(other.read_text())["records"][0]["q"] == 13
    assert os.path.samefile(out, other)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_fifo_out_is_written_in_place(tmp_path):
    """An --out that is not a regular file (a FIFO here, a device such as
    /dev/null alike) is opened and written, never replaced.  The reader is
    opened first, without blocking, and the short report fits the pipe."""
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(["screen", "--q", "13", "--out", str(fifo)]) == 0
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert json.loads(text)["records"][0]["q"] == 13
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["report.fifo"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout here")
def test_dev_stdout_out_writes_to_a_pipe():
    """--out /dev/stdout with stdout a pipe writes the report down the pipe."""
    proc = subprocess.run(
        [sys.executable, "-m", "uvprim.cli", "screen", "--q", "13", "--out", "/dev/stdout"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["records"][0]["q"] == 13


def test_verify_explicit_q_list(tmp_path):
    code, rep = run(["verify", "--set", "T", "--q", "17", "13", "17", "--jobs", "1"], tmp_path)
    assert code == 0
    assert [r["q"] for r in rep["records"]] == [13, 17]
    assert [r["member"] for r in rep["records"]] == [False, True]
    assert rep["records"][0]["algorithm"] == "logs"


def test_verify_pair_defaults_to_lift(tmp_path):
    _, rep = run(["verify", "--set", "S", "--q", "7", "--jobs", "1"], tmp_path)
    lift = rep["records"][0]
    assert lift["algorithm"] == "lift"
    assert [1, 1] in lift["failures"]
    assert lift["failures"] == [list(f) for f in verify.check_pair_membership(7).failures]


@pytest.mark.parametrize(
    "argv",
    [["--set", "T", "--max", "250", "--algo", "both"], ["--set", "S", "--max", "256"]],
    ids=["element", "pair"],
)
def test_verify_builds_each_field_once(argv, tmp_path):
    """A verify run never goes back to a field it has left, which is why
    the table caches keep one field: each q's tables are built once."""
    caches = (field.log_table, verify._uv_tables)
    for cache in caches:
        cache.cache_clear()
    _, rep = run(["verify", *argv, "--jobs", "1"], tmp_path)
    assert [cache.cache_info().misses for cache in caches] == [rep["totals"]["records"]] * 2


def test_verify_pair_set_decided_to_1000(tmp_path):
    expect = str(files("uvprim.data") / "exceptional_pair.json")
    code, rep = run(
        ["verify", "--set", "S", "--max", "1000", "--jobs", "1", "--expect", expect],
        tmp_path,
    )
    assert code == 0
    assert rep["expect"]["match"] is True
    assert rep["totals"]["non_members"] == [2, 3, 4, 5, 7, 13]
    assert rep["totals"]["records"] == len(ntcore.enumerate_prime_powers(2, 1000))


def test_checkers_and_counters_are_looked_up_at_call_time(tmp_path, monkeypatch):
    """A replacement of a verify function (a tracing wrapper, say) is the one
    the CLI runs, for every algorithm and count."""
    calls = []

    for name in ("check_element_membership_logs", "check_element_membership_cover",
                 "check_pair_membership_lift", "count_pairs_free", "count_single_free"):
        def spy(arg, original=getattr(verify, name), name=name):
            calls.append(name)
            return original(arg)

        monkeypatch.setattr(verify, name, spy)
    run(["verify", "--set", "T", "--q", "7", "--jobs", "1"], tmp_path)
    run(["verify", "--set", "T", "--q", "7", "--algo", "both", "--jobs", "1"], tmp_path)
    run(["verify", "--set", "S", "--q", "7", "--jobs", "1"], tmp_path)
    run(["oracle", "N", "--q", "7"], tmp_path)
    run(["oracle", "M", "--q", "7"], tmp_path)
    assert calls == [
        "check_element_membership_logs", "check_element_membership_logs", "check_element_membership_cover",
        "check_pair_membership_lift", "count_pairs_free", "count_single_free",
    ]


# ------------------------------------------------------------------ oracle

def test_oracle_counts_match_library(tmp_path):
    _, rep = run(["oracle", "N", "--q", "13"], tmp_path)
    assert rep["records"][0]["count"] == verify.count_pairs_free(verify.PairCountQuery(13, 1, 1))
    _, rep = run(["oracle", "M", "--q", "11"], tmp_path)
    assert rep["records"][0]["count"] == 2
    _, rep = run(["oracle", "M", "--q", "31", "--u", "2", "--v", "7", "--e", "6,10"], tmp_path)
    assert rep["records"][0]["count"] == verify.count_single_free(
        verify.SingleCountQuery(31, 2, 7, 6, 10)
    )
    assert rep["records"][0]["e"] == [6, 10]


def test_oracle_reads_missing_u_v_as_one(tmp_path):
    _, rep = run(["oracle", "N", "--q", "13", "--v", "2"], tmp_path)
    rec = rep["records"][0]
    assert (rec["u"], rec["v"]) == (1, 2)
    assert rec["count"] == verify.count_pairs_free(verify.PairCountQuery(13, 1, 2))


def test_oracle_cases(tmp_path):
    _, rep = run(["oracle", "cases", "--q", "7"], tmp_path)
    cases = rep["records"][0]["cases"]
    assert cases["element-sum"] == {"exists": False, "witness": None}
    assert cases["element-diff"] == {"exists": True, "witness": 3}
    assert cases["pair-sum"]["exists"] is False
    assert cases["pair-diff"] == {"exists": True, "witness": [3, 5]}


# ----------------------------------------------------------- invalid inputs

@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--set", "S", "--q", "7", "--algo", "logs"],
        ["oracle", "N", "--q", "10007"],
        ["screen", "--q", "6"],
        ["screen", "--min", "50", "--max", "40"],
        ["screen", "--survey", "0"],
        ["screen", "--min", "3"],
        ["oracle", "N", "--q", "13", "--e", "2,2"],
        ["oracle", "N", "--q", "13", "--e", "a,b,c,d"],
        ["oracle", "M", "--q", "31", "--u", "40"],
        ["oracle", "M", "--q", "31", "--u", "0"],
        ["oracle", "N", "--q", "13", "--v", "-1"],
        ["oracle", "M", "--q", "9", "--u", "9"],
        ["screen", "--q", "13", "--jobs", "0"],
        ["screen", "--q", "13", "--jobs", "-3"],
        # e must divide q - 1
        ["oracle", "N", "--q", "31", "--e", "0,1,1,1"],
        ["oracle", "M", "--q", "31", "--e", "4,1"],
        # the least prime above the log-table cap 2**26
        ["verify", "--set", "T", "--q", "67108879"],
        ["verify", "--set", "S", "--min", "67108000", "--max", "67108879"],
        ["screen", "--needs-check-only", "--min", "100", "--max", "50"],
        # options the chosen mode would ignore
        ["screen", "--survey", "3", "--omega", "2"],
        ["screen", "--survey", "3", "--q", "13"],
        ["screen", "--survey", "3", "--min", "3"],
        ["screen", "--survey", "3", "--max", "100"],
        ["screen", "--survey", "3", "--min", "0"],
        ["screen", "--survey", "3", "--needs-check-only", "--max", "100"],
        ["screen", "--needs-check-only", "--max", "100", "--omega", "3"],
        ["screen", "--needs-check-only", "--max", "100", "--q", "13"],
        ["oracle", "cases", "--q", "7", "--e", "6"],
        ["oracle", "cases", "--q", "7", "--u", "3"],
        ["oracle", "cases", "--q", "7", "--v", "3"],
        ["oracle", "cases", "--q", "7", "--u", "1"],
        # modes that run in one process take no --jobs
        ["oracle", "M", "--q", "11", "--jobs", "7"],
        ["screen", "--survey", "1", "--jobs", "7"],
        # no such option: brute and ie run only as oracles (ie inside
        # --algo both), and a range report is filtered on its omega field
        ["verify", "--set", "S", "--q", "7", "--algo", "brute"],
        ["verify", "--set", "T", "--q", "7", "--algo", "ie"],
        ["screen", "--min", "3", "--max", "40", "--omega", "1"],
        # each set has one name
        ["verify", "--set", "element", "--q", "7"],
        ["verify", "--set", "pair", "--q", "7"],
        # --q replaces the range
        ["screen", "--q", "13", "--min", "3"],
        ["screen", "--q", "13", "--max", "100"],
        ["verify", "--set", "T", "--q", "13", "--min", "3"],
        ["verify", "--set", "S", "--q", "13", "--max", "100"],
        # refused by the library alone: no prime power, e not dividing q - 1
        ["oracle", "M", "--q", "6"],
        ["oracle", "cases", "--q", "6"],
        ["oracle", "N", "--q", "13", "--e", "5,1,1,1"],
    ],
)
def test_invalid_inputs_exit_2(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_the_divisor_rule_lives_in_field_alone(tmp_path, monkeypatch):
    """is_e_free, the four counts and the oracle all reach
    `field.check_divisors`, and the oracle exits 2 on what it refuses."""
    F13 = field.build_field(13)
    calls = []
    check_divisors = field.check_divisors

    def recording(F, *es):
        calls.append((F.q, es))
        return check_divisors(F, *es)

    monkeypatch.setattr(field, "check_divisors", recording)
    field.is_e_free(F13, 2, 4)
    verify.count_pairs_free(verify.PairCountQuery(13, 1, 2, 4))
    verify.count_single_free(verify.SingleCountQuery(13, 1, 1, 6, 4))
    verify.single_count_grid(13, 2, 3)
    verify.pair_count_grid(13, (None, 2, None, 6))
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "M", "--q", "31", "--e", "4,1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert calls == [
        (13, (4,)),
        (13, (4, None, None, None)),
        (13, (6, 4)),
        (13, (2, 3)),
        (13, (None, 2, None, 6)),
        (31, (4, 1)),
    ]


@pytest.mark.parametrize(
    "argv,named",
    [
        (["oracle", "M", "--q", "12", "--e", "5,1"], "12 is not a prime power"),
        (["oracle", "M", "--q", "1"], "1 is not a prime power"),
        (["oracle", "N", "--q", "0"], "0 is not a prime power"),
        (["oracle", "M", "--q", "9", "--u", "9"], "u=9 is not a nonzero element of F_9"),
    ],
    ids=["q12-bad-e", "q1", "q0", "q9-bad-u"],
)
def test_q_is_named_before_u_v_and_e(argv, named, tmp_path, capsys):
    """The element and divisor rules take the built field, so a --q that is
    no prime power exits 2 as one, whatever its --u, --v and --e; a prime
    power beside a bad --u still names u."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_only_input_errors_exit_2(tmp_path, monkeypatch):
    """main maps the package's input errors to exit 2 and nothing else: a
    plain ValueError from inside a count is a fault, and propagates."""

    def faulty(query):
        raise ValueError("a fault inside the count")

    monkeypatch.setattr(verify, "count_single_free", faulty)
    with pytest.raises(ValueError, match="a fault inside the count"):
        cli.main(["oracle", "M", "--q", "31", "--out", str(tmp_path / "x.json")])


def test_oracle_M_is_guarded_by_the_table_cap(tmp_path, monkeypatch):
    """M reads the field's exp array alone (an odd prime field only its
    first half), so its guard is the table cap: q = 1,000,003 is counted as
    `count_single_free` counts it, and the least prime above the cap exits
    2 before either exp table is built."""
    _, rep = run(["oracle", "M", "--q", "1000003"], tmp_path)
    assert rep["records"][0]["count"] == verify.count_single_free(verify.SingleCountQuery(1000003, 1, 1))

    def no_table(F):
        raise AssertionError(f"an exp table of F_{F.q} built")

    monkeypatch.setattr(field, "exp_table", no_table)
    monkeypatch.setattr(field, "exp_half", no_table)
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "M", "--q", "67108879", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


# the product of the least primes above 10**13 and 10**14
_SEMIPRIME = (10**13 + 37) * (10**14 + 31)


@pytest.mark.parametrize("kind", ["M", "N", "cases"])
def test_oracle_guard_comes_before_factoring(kind, tmp_path, monkeypatch, capsys):
    """A q over the guard exits 2 without being factored (Brent rho takes
    seconds on this semiprime); a q under it is still refused as no prime
    power."""
    assert _SEMIPRIME == 1000000000004010000000001147

    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    with monkeypatch.context() as m:
        m.setattr(ntcore, "factorize", no_factoring)
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", kind, "--q", str(_SEMIPRIME), "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "takes q <=" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", kind, "--q", "10000", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "10000 is not a prime power" in capsys.readouterr().err


# ------------------------------------------------------- output plumbing

def test_stdout_json(capsys):
    code = cli.main(["oracle", "M", "--q", "11"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == ["oracle", "M", "--q", "11"]
    assert rep["records"][0]["count"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["screen", "--min", "2", "--max", "3000", "--jobs", "1"],
        ["screen", "--needs-check-only", "--max", str(10**6)],
        ["screen", "--survey", "3"],
        ["verify", "--set", "T", "--algo", "both", "--max", "200", "--jobs", "1"],
        ["verify", "--set", "S", "--max", "64", "--jobs", "1"],
        ["oracle", "cases", "--q", "31"],
        ["oracle", "M", "--q", "101"],
        ["screen", "--min", "24", "--max", "24"],
        ["screen", "--min", "3", "--max", "3000", "--jobs", "2"],
        ["screen", "--q", "17", "13", "13", "5"],
    ],
)
def test_json_reports_are_written_as_json_dumps_writes_them(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_screen_records_are_each_q_once_in_order(capsys):
    """Records go out in the order of the q list, which is ascending and
    holds each q once; an empty range writes an empty record list."""
    assert cli.main(["screen", "--q", "17", "13", "13", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [r["q"] for r in rep["records"]] == [5, 13, 17]
    assert rep["totals"]["records"] == 3
    assert cli.main(["screen", "--min", "24", "--max", "24"]) == 0
    out = capsys.readouterr().out
    assert '"records": []' in out
    assert json.loads(out)["totals"] == {"records": 0, "element_proved": 0, "pair_proved": 0, "needs_check": 0}


def test_screen_records_are_written_as_they_are_made(monkeypatch):
    """The first record is on stdout before the last q is screened."""
    buf = io.StringIO()
    screen = screening.screen
    written = []

    def spy(q):
        written.append(len(buf.getvalue()))
        return screen(q)

    monkeypatch.setattr(screening, "screen", spy)
    monkeypatch.setattr(sys, "stdout", buf)
    assert cli.main(["screen", "--min", "3", "--max", "100", "--jobs", "1"]) == 0
    first_record = buf.getvalue().index("\n    }") + 6  # records close at this indentation
    assert len(written) == 34
    assert written[0] < first_record <= written[-1]


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**30


def test_indented_writer_edge_cases():
    report = {
        "empty": [{}, [], (), {"x": {}, "y": []}],
        "nested": ((1, (2, ())), [(), [[]]]),
        "text": ["", "plain", "\u00fc\u20ac\U0001f600", "\x00\t\n\r\x1f\x7f\"\\/\u2028"],
        "scalars": [True, False, None, 0, -1, 10**100, -(2**70), _Level.HIGH],
        "floats": [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0.1, 1e300, 5e-324, 1 / 3],
        "int keys": {10: "ten", 2: "two", -1: "minus one", _Level.LOW: "low"},
        "float keys": {2.5: 0, -1.0: 1, float("inf"): 2, float("nan"): 3},
        "bool keys": {True: 1, False: 0},
        "none key": {None: [None]},
        "deep": {"a": {"b": {"c": [{"d": ()}]}}},
    }
    assert cli._indented(report, "\n") == json.dumps(report, indent=2, sort_keys=True)
    for scalar in (None, True, 7, float("nan"), "\u00e9", _Level.LOW, [], {}):
        assert cli._indented(scalar, "\n") == json.dumps(scalar, indent=2, sort_keys=True)
    for bad in ({(1, 2): 0}, {"a": 1, 2: "b"}, [Fraction(1, 2)], {"x": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._indented(bad, "\n")


def test_reports_ignore_the_ambient_decimal_context(capsys):
    """bound_decimal is rounded half-even to 12 digits and written with a
    capital E, whatever rounding, traps and exponent case the caller's
    decimal context holds."""
    argv = ["screen", "--q", "23", "1009", str(2**61 - 1), "--jobs", "1"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert "E+" in plain
    hostile = decimal.Context(prec=3, rounding=decimal.ROUND_DOWN, traps=[decimal.Inexact, decimal.Rounded], capitals=0)
    with decimal.localcontext(hostile):
        assert cli._frac_decimal(Fraction(2, 3)) == "0.666666666667"
        assert cli.main(argv) == 0
    records = lambda out: strip_elapsed(json.loads(out)["records"])
    assert records(capsys.readouterr().out) == records(plain)


def test_csv_output(tmp_path):
    out = tmp_path / "out.csv"
    code = cli.main(["screen", "--q", "13", "17", "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    header = rows[0]
    assert header == sorted(header)
    assert len(rows) == 3
    qcol = header.index("q")
    assert [r[qcol] for r in rows[1:]] == ["13", "17"]
    wcol = header.index("witness")
    assert rows[1][wcol] == ""  # needs_check: no witness
    assert json.loads(rows[2][wcol])["theorem"] == "pair-interval"


def _union_csv(records) -> str:
    """The CSV of records under the union of their keys, a missing key an
    empty cell: how reports were written before the columns were taken
    from the first record."""
    cols = sorted({k for r in records for k in r})
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for r in records:
        w.writerow(
            "" if (v := r.get(c)) is None else v if isinstance(v, (int, float, str)) else json.dumps(v, sort_keys=True)
            for c in cols
        )
    return buf.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["screen", "--min", "3", "--max", "3000", "--jobs", "1"],
        ["screen", "--min", "24", "--max", "24"],
        ["screen", "--needs-check-only", "--max", str(10**6)],
        ["screen", "--survey", "3"],
        ["verify", "--set", "T", "--algo", "both", "--max", "200", "--jobs", "1"],
        ["verify", "--set", "S", "--max", "64", "--jobs", "1", "--expect", str(files("uvprim.data") / "exceptional_pair.json")],
        ["oracle", "cases", "--q", "31"],
        ["oracle", "M", "--q", "101"],
        ["oracle", "N", "--q", "31"],
    ],
)
def test_csv_is_the_union_of_keys_csv_of_the_json_records(argv, capsys, monkeypatch):
    """Every command's records share one key set, so the columns of the
    first record give the CSV that the union of all keys gave."""
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)  # elapsed_ms 0.0 in both runs
    assert cli.main(argv) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == _union_csv(records)


@pytest.mark.parametrize(
    "records",
    [
        [{"q": 3, "a": 1}, {"q": 5, "b": 1}],
        [{"q": 3, "a": 1}, {"q": 5}],
        [{"q": 3}, {"q": 5, "a": 1}],
    ],
    ids=["other-key", "missing-key", "extra-key"],
)
def test_csv_refuses_a_record_with_other_keys(records, tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("old report")
    with pytest.raises(ValueError, match="not the columns"):
        cli._emit({"records": iter(records)}, "csv", str(out))
    assert out.read_text() == "old report"
    assert os.listdir(tmp_path) == ["x.csv"]


_SCREEN_PEAK = """
import sys
from uvprim import cli

code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_range_screen_peak_does_not_grow_with_the_range(tmp_path):
    """A screen of the 78,733 prime powers in [3, 10**6] keeps neither its
    records nor its q: its peak RSS stays below 100 MiB.  With every record
    kept until the report was written it measured 258."""
    out = tmp_path / "screen.json"
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SCREEN_PEAK, "screen", "--min", "3", "--max", str(10**6), "--jobs", "1", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert json.loads(out.read_text())["totals"]["records"] == 78_733
    assert peak_kib < 100 * 1024


def test_range_screen_streams_its_q(tmp_path, monkeypatch):
    """A range's prime powers are streamed from the sieve, not listed: with
    the per-q work stubbed out, the 217,170 q in [3, 3 * 10**6] peak under
    15 MB of traced allocations (the sieve's windows, about 9.7 MB), where
    their list alone took 24 MB."""
    monkeypatch.setattr(cli, "_screen_record", lambda pp: {"q": pp.q, "status": screening.NEEDS_CHECK})
    out = tmp_path / "screen.csv"
    tracemalloc.start()
    try:
        code = cli.main(["screen", "--min", "3", "--max", "3000000", "--jobs", "1", "--format", "csv", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    with out.open() as fh:
        assert sum(1 for _ in fh) == 1 + 217_170
    assert peak < 15 * 10**6


def test_sweep_streams_its_records(monkeypatch):
    """The sweep's records go to the writer as they are made: with the
    sweep stubbed to give the 28,659 prime powers in [10**6, 1.4 * 10**6]
    as needs-check verdicts, writing them peaks under 4 MiB of traced
    allocations, where the list of their records took 8.8 MiB."""
    verdicts = [
        screening.ScreeningVerdict(pp.q, screening.NEEDS_CHECK, None, ())
        for pp in ntcore.iter_prime_powers(10**6, 1_400_000)
    ]
    monkeypatch.setattr(screening, "sweep", lambda lo, hi: ([], verdicts))
    made = 0
    record = cli._verdict_record

    def counted(*args):
        nonlocal made
        made += 1
        return record(*args)

    monkeypatch.setattr(cli, "_verdict_record", counted)
    tracemalloc.start()
    try:
        code = cli.main(["screen", "--needs-check-only", "--min", "3", "--max", "2000000", "--format", "csv", "--out", "/dev/null"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert made == 28_659
    assert peak < 4 * 2**20, peak


def test_parallel_jobs_are_deterministic(tmp_path):
    _, one = run(["screen", "--min", "3", "--max", "60", "--jobs", "1"], tmp_path, "a.json")
    _, two = run(["screen", "--min", "3", "--max", "60", "--jobs", "2"], tmp_path, "b.json")
    assert strip_elapsed(one["records"]) == strip_elapsed(two["records"])
    assert one["totals"] == two["totals"]


def test_jobs_are_capped_by_items_and_cores(tmp_path, monkeypatch):
    """The pool forks every worker it is asked for, so --jobs is capped by the
    number of items and of cores.  The stand-in pool records its size and
    runs the map in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert list(cli._map_jobs(abs, [-1, -2, -3], 5000)) == [1, 2, 3]
    assert list(cli._map_jobs(abs, list(range(-10, 0)), 5000)) == list(range(10, 0, -1))
    assert list(cli._map_jobs(abs, list(range(-10, 0)), 2)) == list(range(10, 0, -1))
    assert list(cli._map_jobs(abs, [-1], 5000)) == [1]
    # any iterable: a generator gets the pool a list of its items gets
    assert list(cli._map_jobs(abs, (x for x in range(-10, 0)), 2)) == list(range(10, 0, -1))
    assert list(cli._map_jobs(abs, (x for x in [-1, -2, -3]), 5000)) == [1, 2, 3]
    assert sizes == [3, 4, 2, 2, 3]
    code, rep = run(["screen", "--min", "3", "--max", "60", "--jobs", "5000"], tmp_path)
    assert code == 0 and rep["totals"]["records"] == 24
    assert sizes == [3, 4, 2, 2, 3, 4]
    # without --jobs a mode gets None, which means every core
    assert list(cli._map_jobs(abs, list(range(-10, 0)), None)) == list(range(10, 0, -1))
    code, rep = run(["screen", "--min", "3", "--max", "60"], tmp_path)
    assert code == 0 and rep["totals"]["records"] == 24
    assert sizes == [3, 4, 2, 2, 3, 4, 4, 4]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert list(cli._map_jobs(abs, [-1, -2], 5000)) == [1, 2]
    assert list(cli._map_jobs(abs, [-1, -2], None)) == [1, 2]
    assert list(cli._map_jobs(abs, iter([-1, -2]), None)) == [1, 2]
    assert sizes == [3, 4, 2, 2, 3, 4, 4, 4]


def test_jobs_submit_at_most_two_batches_ahead(monkeypatch):
    """However fast the workers are, the pool is given at most two batches
    of one chunk (at most 1,024 items) per worker beyond what has been
    taken.  The stand-in pool runs each map at once, as fast workers would."""
    submitted = []

    class EagerPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            submitted.append((len(items), chunksize))
            return iter([fn(x) for x in items])

    monkeypatch.setattr(cli, "ProcessPoolExecutor", EagerPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    items = list(range(100_000))
    read = 0

    def stream():
        nonlocal read
        for x in items:
            read = x + 1
            yield x

    runs = []
    # a generator is submitted as the list of its items is, and read at most
    # 4 * 1024 items per worker ahead of the reader
    for source in (items, stream()):
        submitted = []
        taken = 0
        for x in cli._map_jobs(abs, source, None):
            assert x == taken
            taken += 1
            assert sum(n for n, _ in submitted) <= taken + 2 * 4 * 1024
            assert read <= taken + 4 * 4 * 1024
        assert taken == len(items) and sum(n for n, _ in submitted) == len(items)
        runs.append(submitted)
    assert runs[0] == runs[1] and runs[0][0] == (4 * 1024, 1024)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().endswith("0.1.0")
