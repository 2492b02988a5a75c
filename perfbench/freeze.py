"""Freeze the reference outputs in perfbench/data from the program as it
stands.  Run once, at the commit whose outputs are the references:

    PYTHONPATH=src python3 perfbench/freeze.py

It runs the sweep and the screen range once each (about 45 s on a 2-core
box) and the exact count M(q, 1, 1) for every needs-check q above 10**6
(about 3 minutes, 1.8 GB peak), then times the counts `large-field` draws
from, three times each (about a minute).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
from importlib.resources import files

import hostspeed
import workloads as wl
from uvprim import cli, field, verify


def _records(argv: list[str]) -> dict[str, list[int]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(argv) != 0:
            sys.exit(f"reference run failed: {argv}")
    by_status: dict[str, list[int]] = {}
    for rec in json.loads(buf.getvalue())["records"]:
        by_status.setdefault(rec["status"], []).append(rec["q"])
    return by_status


def _dump(name: str, obj) -> None:
    with open(wl.DATA / f"{name}.json", "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def main() -> None:
    wl.DATA.mkdir(exist_ok=True)
    sweep = _records(wl.SWEEP_ARGV)
    _dump("sweep", sweep)
    _dump("screen", _records(wl.SCREEN_ARGV))
    for name in ("exceptional_element", "exceptional_pair"):
        shutil.copyfile(files("uvprim") / "data" / f"{name}.json", wl.DATA / f"{name}.json")
    pool = sorted(q for q in sweep["needs_check"] if q > 10**6)
    counts = {}
    for q in pool:
        counts[str(q)] = verify.count_single_free(verify.SingleCountQuery(q, 1, 1))
        print(q, counts[str(q)], file=sys.stderr, flush=True)
        # the cached tables of the larger fields would add up to several GB
        field.log_table.cache_clear()
        verify._uv_tables.cache_clear()
    _dump("large_field", counts)
    _dump("large_field_ms", draw_costs([q for q in pool if q <= wl.LARGE_DRAW_MAX]))


def draw_costs(qs: list[int], passes: int = 3) -> dict[str, float]:
    """Milliseconds of the count M(q, 1, 1) for each q, at the reference host
    speed, median over `passes` passes.  `large-field` draws its fields by
    these costs."""
    speed = hostspeed.HostSpeed()
    times: dict[int, list[float]] = {q: [] for q in qs}
    speed.start()
    try:
        for _ in range(passes):
            for q in qs:
                _, raw, slow = speed.time(verify.count_single_free, verify.SingleCountQuery(q, 1, 1))
                times[q].append(raw * 1e3 / slow)
                field.log_table.cache_clear()
                verify._uv_tables.cache_clear()
    finally:
        speed.stop()
    return {str(q): round(statistics.median(ms), 1) for q, ms in times.items()}


if __name__ == "__main__":
    main()
