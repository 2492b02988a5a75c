"""The benchmark's worker contract, on one small repetition.

`perfbench/worker.py` runs the package as the benchmark does, traced by
`perfbench/probes.py`.  A probed function renamed away, a stats key the
probes no longer find or a CLI argv the parser refuses would otherwise
show only when the benchmark runs.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from uvprim import cli, field, verify

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_repetition(workload):
    """One traced repetition of `workload` at seed 0, checked against the
    frozen outputs; returns its layer metrics."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), workload, "0", "1"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    wl = _workloads()
    qs = wl.inputs(workload, 0)
    assert wl.check(workload, qs, result["outputs"]) == (len(qs), 0)
    return result["layers"]


def test_traced_pair_repetition_meets_the_worker_contract():
    _traced_repetition("pair")


def test_traced_element_repetition_meets_the_worker_contract():
    """`verify --set T --algo both` runs both element checkers, so the
    probes read the stats of each: the direct pass's primitive count and
    the `ie` pass's family peak."""
    layers = _traced_repetition("element")
    assert layers["verify.logs.primitives_consumed"] > 0
    assert layers["verify.ie.terms_peak"] > 0


def test_freeze_script_names_still_exist():
    """`perfbench/freeze.py` re-freezes the reference outputs, rarely and
    by hand; every package name it reads (the two table caches it clears
    among them) must still resolve, or a table refactor breaks it silently."""
    modules = {"cli": cli, "field": field, "verify": verify}
    chains = set()
    for node in ast.walk(ast.parse((PERFBENCH / "freeze.py").read_text())):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in modules:
            chains.add((node.id, *reversed(names)))
    assert {
        ("field", "log_table", "cache_clear"),
        ("verify", "_uv_tables", "cache_clear"),
        ("verify", "count_single_free"),
        ("verify", "SingleCountQuery"),
    } <= chains
    for module, *names in chains:
        obj = modules[module]
        for name in names:
            obj = getattr(obj, name)
