"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE      (TRACE: 0 or 1)
    python3 perfbench/worker.py --setup-only

The parent starts it with `src` on PYTHONPATH.  Right after `uvprim` and
its CLI module are imported it writes "ready" on stdout, so the parent can time set-up from
process start; then it runs the workload's calls, writes one JSON object
with its timings, peak RSS and outputs, and exits.  The program's own
reports go to an in-memory buffer and are read back after the timed part.
Call times of the HOST_NORMALISED workloads are given at the reference
host speed (`hostspeed.py`); `raw_wall_s` is the calls' measured time.
"""

import sys

import uvprim.cli  # noqa: E402,F401  (first: set-up is the package and its CLI)

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostspeed  # noqa: E402
import probes  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = uvprim.cli.main(argv)
    return code, buf.getvalue()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, trace: bool) -> dict:
    qs = wl.inputs(workload, seed)
    tracer = probes.Tracer()
    missing = probes.install(tracer) if trace else set()
    if workload == "large-field":
        from uvprim import verify

        calls = [(verify.count_single_free, verify.SingleCountQuery(q, 1, 1)) for q in qs]
    else:
        argvs = qs if workload in ("sweep", "screen") else [wl.verify_argv(workload, q) for q in qs]
        calls = [(_cli, argv) for argv in argvs]
    results, raw_ms, slowdowns = [], [], []
    if workload in wl.HOST_NORMALISED:
        speed = hostspeed.HostSpeed()
        speed.start()
        try:
            for fn, arg in calls:
                result, raw, slow = speed.time(fn, arg)
                results.append(result)
                raw_ms.append(raw * 1e3)
                slowdowns.append(slow)
        finally:
            speed.stop()
    else:
        for fn, arg in calls:
            t0 = time.perf_counter()
            results.append(fn(arg))
            raw_ms.append((time.perf_counter() - t0) * 1e3)
            slowdowns.append(1.0)
    samples_ms = [ms / slow for ms, slow in zip(raw_ms, slowdowns)]
    wall_s = sum(samples_ms) / 1e3
    peak = _peak_rss_mib()
    layers = probes.layer_metrics(tracer, missing) if trace else {}

    outputs: list[list] = []
    if workload == "large-field":
        from uvprim import ntcore, screening

        for q, c in zip(qs, results):
            low = screening.element_interval(q, screening.epsilon(q, 1, 1)).lower_bound
            outputs.append([q, c, bool(low <= c <= ntcore.profile(q - 1).phi)])
    elif workload in ("sweep", "screen"):
        ((code, text),) = results
        if code == 0:
            records = json.loads(text)["records"]
            outputs = [[r["q"], r["status"]] for r in records]
    else:
        for code, text in results:
            if code == 0:
                (rec,) = json.loads(text)["records"]
                outputs.append([rec["q"], rec["member"]])

    import numpy

    return {
        "wall_s": wall_s,
        "raw_wall_s": sum(raw_ms) / 1e3,
        "peak_rss_mib": peak,
        "samples_ms": samples_ms,
        "outputs": outputs,
        "layers": layers,
        "missing": sorted(missing),
        "numpy": numpy.__version__,
    }


def main() -> None:
    if sys.argv[1:] == ["--setup-only"]:
        return
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    result = run(workload, seed, trace)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
