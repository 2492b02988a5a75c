"""The uvprim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--out FILE]

Run from a checkout: it times the package in `src/`.  Each repetition of a
workload runs in a fresh interpreter (`worker.py`), so no cache of the
package outlives it, with UVPRIM_CACHE_DIR removed from the environment
and every CLI call at `--jobs 1`.  Repetitions run back to back while the
next one still fits in `--seconds`; at least one always runs, so a
workload whose repetition is longer than that overruns it.  Set-up is
timed in SETUP_PROBES extra interpreters that only import the package, as
well as in every repetition.  Timings are given at the reference host
speed (`hostspeed.py`), except the call times of `large-field` (see
HOST_NORMALISED in workloads.py); the record keeps the measured wall time
too.

Every output is checked against the frozen references in `data/`; a
repetition that crashes, exits nonzero or is killed fails all its
operations.  With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json (medians over repetitions); with `--trace 1` repetitions
alternate untraced and traced, and the metrics are the per-layer metrics
(medians over traced repetitions) plus the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
`--out` appends the full record (with the seed and a machine note) to a
JSON-lines file that `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 9
# every process a run starts has ended by then (the run limit is 180 s)
RUN_LIMIT_S = 165.0


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout."""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "UVPRIM_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one process, one thread: the box has two cores and other tenants
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> tuple[float | None, dict | None]:
    """Run worker.py; return (set-up seconds at the reference host speed,
    result).  Set-up is None when the package never finished importing,
    the result None when the worker failed or was killed at the deadline."""
    speed = hostspeed.HostSpeed()
    speed.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=_env(),
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        speed.sample()
        setup /= hostspeed.slowdown(speed.samples)
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n":
        return None, None
    if proc.returncode != 0:
        return setup, None
    try:
        return setup, json.loads(rest.splitlines()[-1])
    except (ValueError, IndexError):
        return setup, None


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in [0, 100])."""
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _median_of(results: list[dict], key) -> float | None:
    values = [key(r) for r in results]
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "uvprim" / "__init__.py").is_file():
        raise SetupError(f"no package at {ROOT / 'src' / 'uvprim'}")
    qs = wl.inputs(workload, seed)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = _worker(["--setup-only"], deadline)
        if setup is None:
            raise SetupError("`import uvprim` failed in a fresh interpreter")
        setups.append(setup)

    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = reps = 0
    first = time.perf_counter()
    numpy_version = missing = None
    while True:
        tracing = trace and reps % 2 == 1
        began = time.perf_counter()
        setup, result = _worker([workload, str(seed), "1" if tracing else "0"], deadline)
        took = time.perf_counter() - began
        reps += 1
        if setup is not None:
            setups.append(setup)
        if result is None:
            n = wl.operations(workload, qs)
            attempted, failed = attempted + n, failed + n
        else:
            a, f = wl.check(workload, qs, result["outputs"])
            attempted, failed = attempted + a, failed + f
            (traced if tracing else untraced).append(result)
            numpy_version, missing = result["numpy"], result["missing"]
        now = time.perf_counter()
        if deadline - now < 1.5 * took + 5:
            break
        if not (trace and reps < 2) and now - first + took > seconds:
            break

    metrics: dict[str, float] = {}
    if not trace and untraced:
        # each repetition times the same calls in the same order: take each
        # call's median over repetitions, then percentiles over the calls
        per_call = [statistics.median(ms) for ms in zip(*(r["samples_ms"] for r in untraced))]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": _median_of(untraced, lambda r: r["wall_s"]),
            "peak_rss_mib": _median_of(untraced, lambda r: r["peak_rss_mib"]),
            "q_ms_p50": percentile(per_call, 50),
            "q_ms_tail": percentile(per_call, wl.TAIL_PCT[workload]),
        }
    elif trace and traced:
        for name in traced[0]["layers"]:
            metrics[name] = _median_of(traced, lambda r: r["layers"][name])
        if untraced:
            metrics["trace.overhead_s"] = _median_of(traced, lambda r: r["wall_s"]) - _median_of(
                untraced, lambda r: r["wall_s"]
            )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and bool(untraced or traced),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "raw_wall_s": _median_of(untraced or traced, lambda r: r["raw_wall_s"]),
        "metrics": metrics,
        "missing_probes": missing or [],
        "machine": _machine(numpy_version),
    }


def _machine(numpy_version: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # else git would look in the parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "platform": platform.platform(),
    }


def units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _print_record(rec: dict, unit: dict[str, str], prefix: str = "") -> None:
    for name, value in rec["metrics"].items():
        print(f"{prefix}{name} {value:.6g} {unit.get(name, '?')}")
    print(f"{prefix}error_rate {rec['error_rate']:.6g} ratio  ({rec['failed']}/{rec['attempted']} operations)")
    m = rec["machine"]
    print(
        f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} reps={rec['repetitions']} "
        f"nproc={m['nproc']} ram={m['ram_mib']}MiB python={m['python']} numpy={m['numpy']} commit={m['commit']}"
    )
    if rec["missing_probes"]:
        print(f"# missing probes (their metrics are not reported): {', '.join(rec['missing_probes'])}")


def _contract_line(correct: bool, attempted: int, failed: int, metrics: dict[str, float], unit) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": unit[name]} for name, v in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's full record to this JSON-lines file")
    args = ap.parse_args(argv)
    try:
        unit = units()
        runs = (
            [(w, t) for w in wl.WORKLOADS for t in (False, True)]
            if args.workload == "all"
            else [(args.workload, bool(args.trace))]
        )
        records = []
        for workload, trace in runs:
            rec = run(workload, args.seed, args.seconds, trace)
            records.append(rec)
            _print_record(rec, unit, f"{workload} " if args.workload == "all" else "")
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
    except (SetupError, OSError, ValueError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
        unit = {f"{r['workload']}/{k}": unit.get(k, "?") for r in records for k in r["metrics"]}
    else:
        metrics = records[0]["metrics"]
    correct = all(r["correct"] for r in records)
    print(
        _contract_line(
            correct, sum(r["attempted"] for r in records), sum(r["failed"] for r in records), metrics, unit
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
