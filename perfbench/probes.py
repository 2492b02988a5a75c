"""Per-layer tracing from outside the package.

`install` replaces each probed public function of `uvprim` with a wrapper
that opens a span around the call, in every `uvprim` module namespace that
holds it (`screening`, `field` and `verify` import `ntcore` names
directly).  Generators are timed per `next()`, not at the call that creates
them.  A span's self time is its duration minus the durations of the spans
it directly contains.

Spans are aggregated as they close (per name: calls, inclusive and self
seconds) instead of being kept: the sweep opens millions of them.
"""

from __future__ import annotations

import functools
import sys
import time

# The public bound functions of `screening`; `screening.bounds.calls` sums
# their calls.
BOUNDS = (
    "prime_pair_interval",
    "pair_interval",
    "pair_sieve_bound",
    "pair_sieve_asym_bound",
    "pair_w6",
    "element_interval",
    "element_sieve_criterion",
    "element_w4",
)
SURVEY_OMEGAS = range(1, 9)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.originals: dict[str, object] = {}  # span -> the unwrapped function

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = self.clock() - frame[1]
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name = frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


def wrap_call(tracer: Tracer, name: str, fn, after=None):
    """A span around each call; `after(args, result)` runs once it closed."""

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(args, result)
        return result

    return probe


def wrap_generator(tracer: Tracer, name: str, fn):
    """A span around each `next()` of the generator `fn` returns; every
    value it yields adds one to the count `<name>.yielded`."""

    def traced(inner):
        while True:
            frame = tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            tracer.add(name + ".yielded")
            yield item

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        return traced(fn(*args, **kwargs))

    return probe


def wrap_survey(tracer: Tracer, fn):
    """`survey(omega)` split into its prime-power enumeration (the
    `iter_prime_powers` spans inside it) and its re-test (the bound spans
    inside it), with candidates per prime power enumerated."""

    def snapshot():
        return (
            tracer.inclusive.get("ntcore.iter_prime_powers", 0.0),
            tracer.inclusive.get("screening.bounds", 0.0),
            tracer.counts.get("ntcore.iter_prime_powers.yielded", 0),
        )

    @functools.wraps(fn)
    def probe(omega, *args, **kwargs):
        before = snapshot()
        frame = tracer.enter("screening.survey")
        try:
            row = fn(omega, *args, **kwargs)
        finally:
            tracer.exit(frame)
        enum_s, retest_s, yielded = (b - a for a, b in zip(before, snapshot()))
        key = f"screening.survey.o{omega}"
        tracer.add(key + ".enumerate_s", enum_s)
        tracer.add(key + ".retest_s", retest_s)
        tracer.add(key + ".enumerated", yielded)
        tracer.add(key + ".candidates", row.candidates)
        return row

    return probe


def _membership_hooks(tracer: Tracer):
    def logs(args, res):
        tracer.add("verify.logs.primitives_consumed", res.stats["primitives_consumed"])

    def ie(args, res):
        tracer.add("verify.ie.stage0", res.stats["stage_passes"][0])
        tracer.add("verify.ie.w", res.q - 1)
        tracer.peak("verify.ie.terms_peak", res.stats["terms_peak"])

    def pair(args, res):
        tracer.add("verify.pair.witness_scans", res.stats["witness_scans"])
        tracer.add("verify.pair.orbits", res.stats["orbits"])

    return logs, ie, pair


def _log_table_hook(tracer: Tracer, fn):
    # bytes of each table built (a cache miss), not of each lookup
    cache_info = getattr(fn, "cache_info", None)
    state = {"misses": cache_info().misses if cache_info else 0}

    def after(args, table):
        misses = cache_info().misses if cache_info else state["misses"] + 1
        if misses > state["misses"]:
            tracer.add("field.log_table.bytes", table.exp.nbytes + table.log.nbytes)
        state["misses"] = misses

    return after


def _replace(original, probe) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "uvprim" or name.startswith("uvprim."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, probe)


def install(tracer: Tracer) -> set[str]:
    """Wrap every probed function; return the spans whose function is gone,
    whose metrics are then reported as missing."""
    import uvprim.cli  # noqa: F401  (loads every layer)

    mods = {m: sys.modules[f"uvprim.{m}"] for m in ("ntcore", "field", "screening", "verify", "cli")}
    logs, ie, pair = _membership_hooks(tracer)
    log_table = getattr(mods["field"], "log_table", None)
    specs = [
        ("ntcore", "iter_prime_powers", "ntcore.iter_prime_powers", "generator", None),
        ("ntcore", "factorize", "ntcore.factorize", "call", None),
        ("ntcore", "profile", "ntcore.profile", "call", None),
        ("field", "build_field", "field.build_field", "call", None),
        ("field", "log_table", "field.log_table", "call", log_table and _log_table_hook(tracer, log_table)),
        ("screening", "survey", "screening.survey", "survey", None),
        ("screening", "screen", "screening.screen", "call", None),
        ("screening", "best_config", "screening.best_config", "call", None),
        *(("screening", b, "screening.bounds", "call", None) for b in BOUNDS),
        ("verify", "check_element_membership_logs", "verify.logs", "call", logs),
        ("verify", "check_element_membership_cover", "verify.ie", "call", ie),
        ("verify", "check_pair_membership", "verify.pair", "call", pair),
        ("verify", "count_single_free", "verify.count_single_free", "call", None),
        ("cli", "main", "cli.main", "call", None),
    ]
    missing = set()
    for mod, attr, span, kind, after in specs:
        fn = getattr(mods[mod], attr, None)
        if fn is None:
            missing.add(span)
            continue
        tracer.originals.setdefault(span, fn)
        if kind == "generator":
            probe = wrap_generator(tracer, span, fn)
        elif kind == "survey":
            probe = wrap_survey(tracer, fn)
        else:
            probe = wrap_call(tracer, span, fn, after)
        _replace(fn, probe)
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, missing: set[str]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.  A metric whose
    function was not found is left out; one whose function ran no work on
    this workload reads 0."""
    t, c = tracer, tracer.counts
    s, n = t.self_s.get, t.calls.get
    out: dict[str, float] = {}

    def put(span: str, values: dict[str, float]) -> None:
        if span not in missing:
            out.update(values)

    put(
        "ntcore.iter_prime_powers",
        {
            "ntcore.iter_prime_powers.self_s": s("ntcore.iter_prime_powers", 0.0),
            "ntcore.iter_prime_powers.yielded": c.get("ntcore.iter_prime_powers.yielded", 0),
        },
    )
    put("ntcore.factorize", {"ntcore.factorize.calls": n("ntcore.factorize", 0)})
    cache_info = getattr(t.originals.get("ntcore.profile"), "cache_info", None)
    if cache_info is not None:
        info = cache_info()
        out["ntcore.profile.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    put("field.build_field", {"field.build_field.self_s": s("field.build_field", 0.0)})
    put(
        "field.log_table",
        {
            "field.log_table.self_s": s("field.log_table", 0.0),
            "field.log_table.bytes": c.get("field.log_table.bytes", 0),
        },
    )
    for om in SURVEY_OMEGAS:
        key = f"screening.survey.o{om}"
        put(
            "screening.survey",
            {
                key + ".enumerate_s": c.get(key + ".enumerate_s", 0.0),
                key + ".retest_s": c.get(key + ".retest_s", 0.0),
                key + ".candidate_ratio": _ratio(c.get(key + ".candidates", 0), c.get(key + ".enumerated", 0)),
            },
        )
    put(
        "screening.screen",
        {"screening.screen.self_s": s("screening.screen", 0.0), "screening.screen.calls": n("screening.screen", 0)},
    )
    put("screening.bounds", {"screening.bounds.calls": n("screening.bounds", 0)})
    put("screening.best_config", {"screening.best_config.self_s": s("screening.best_config", 0.0)})
    put(
        "verify.logs",
        {
            "verify.logs.self_s": s("verify.logs", 0.0),
            "verify.logs.primitives_consumed": c.get("verify.logs.primitives_consumed", 0),
        },
    )
    put(
        "verify.ie",
        {
            "verify.ie.self_s": s("verify.ie", 0.0),
            "verify.ie.stage0_ratio": _ratio(c.get("verify.ie.stage0", 0), c.get("verify.ie.w", 0)),
            "verify.ie.terms_peak": c.get("verify.ie.terms_peak", 0),
        },
    )
    put(
        "verify.pair",
        {
            "verify.pair.self_s": s("verify.pair", 0.0),
            "verify.pair.witness_scans": c.get("verify.pair.witness_scans", 0),
            "verify.pair.scans_per_orbit": _ratio(c.get("verify.pair.witness_scans", 0), c.get("verify.pair.orbits", 0)),
        },
    )
    put("verify.count_single_free", {"verify.count_single_free.self_s": s("verify.count_single_free", 0.0)})
    put("cli.main", {"cli.main.self_s": s("cli.main", 0.0)})
    return out
