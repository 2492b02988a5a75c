"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records `run.py --out` appended.  For every workload
and metric it prints both sides' medians and quartiles and, for the
end-to-end metrics, a verdict under the bound BENCHMARK.json fixes:

* unresolved -- either side's spread (interquartile range over median) is
  wider than the bound, and not every change run beats every base run;
* worse      -- the change's median is worse by more than the bound;
* better     -- over at least MIN_PAIRS runs paired in file order, the
  change wins at least 9 in 10 pairs and the medians differ by more than
  the base's own interquartile range, or (when the spread is wider than
  the bound) every change run beats every base run; with fewer pairs a
  would-be gain reads unresolved;
* unchanged  -- otherwise.

Per-layer metrics have no bound, so they get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # a gain is claimed only over at least this many paired runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1  # sign * (new - old) > 0 means worse
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    enough = len(pairs) >= MIN_PAIRS
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        every_run_better = all(sign * (c - b) < 0 for c in change for b in base)
        return "better" if enough and every_run_better else "unresolved"
    if bm and sign * (cm - bm) / abs(bm) > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins >= 0.9 * len(pairs) and sign * (bm - cm) > b3 - b1:
        return "better" if enough else "unresolved"
    return "unchanged"


def _load(path: str) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, value in rec["metrics"].items():
                    out.setdefault((rec["workload"], name), []).append(value)
                out.setdefault((rec["workload"], "error_rate"), []).append(rec["error_rate"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base, change = _load(argv[0]), _load(argv[1])
    print(f"{'workload':12} {'metric':40} {'base q1/median/q3':>32} {'change q1/median/q3':>32}  verdict")
    for key in sorted(base.keys() & change.keys()):
        workload, name = key
        b, c = base[key], change[key]
        if name in bounded:
            v = verdict(b, c, bounded[name]["bound"], bounded[name]["better"])
        elif name == "error_rate":
            v = "worse" if max(c) > max(b) else "unchanged"
        else:
            v = "-"
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:12} {name:40} {fmt.format(*quartiles(b)):>32} {fmt.format(*quartiles(c)):>32}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
