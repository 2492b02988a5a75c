"""Host-speed normalisation of timings.

The benchmark box is a few cores of a shared host whose speed drifts by up
to a factor of two over seconds, with the process's CPU time tracking its
wall time, so raw timings of the same code spread by more than any useful
bound.  A fixed pure-Python loop, independent of the package, is timed
right before and after every timed call and, by SIGALRM, every
SAMPLE_EVERY_S during it.  Its time over REFERENCE_S is the host's
slowdown; a call's time divided by the median slowdown of the samples that
bracket it is the time the call would take at the reference speed.  The
loop's own time is taken out of the call's time, so a program change
cannot move the samples.

Stdlib only: the parent of a run uses it for set-up without the package.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 1500
# The loop joins its strings in blocks of this many, and samples are kept
# in a list allocated up front, so that nothing the timer runs takes memory
# from the C heap, where the program keeps its arrays: blocks of up to 512
# bytes come from Python's own allocator.  With one 1,500-string join (a
# 6 KB string) and a growing sample list, the sweep's peak RSS read 12.6
# MiB higher in about one run in nine.
JOIN_EVERY = 50
CAPACITY = 1 << 14
# The loop's fastest time over a few thousand samples on the reference box
# (2 vCPUs, Python 3.11).  Any constant would do: it only sets the scale.
REFERENCE_S = 0.148e-3
SAMPLE_EVERY_S = 0.1
# A sample is the median of this many loop runs: the first run after the
# package ran finds the caches cold and reads slow by an amount that
# depends on what the package was doing.
SAMPLE_RUNS = 3


def loop_s(clock=time.perf_counter) -> float:
    """One timed run of the calibration loop, in seconds.  It allocates and
    frees small objects, as the package does: of the loops tried, it tracked
    the package's slowdowns best (an integer-only loop with `%` tracked them
    half as well)."""
    t0 = clock()
    for start in range(0, LOOP_N, JOIN_EVERY):
        parts = []
        for i in range(start, start + JOIN_EVERY):
            parts.append(str(i))
        "".join(parts)
    return clock() - t0


class HostSpeed:
    """Slowdown samples of one process, and calls timed against them."""

    def __init__(self, clock=time.perf_counter, probe=loop_s):
        self.clock = clock
        self.probe = probe
        self._loop = [0.0] * CAPACITY  # loop seconds of the first n samples
        self.n = 0
        self.spent = 0.0  # seconds the samples took, handler included

    @property
    def samples(self) -> list[float]:
        return self._loop[: self.n]

    def sample(self, *_signal_args) -> None:
        # blocked, so that the timer's sample cannot run inside this one
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = self.clock()
            d = statistics.median(self.probe(self.clock) for _ in range(SAMPLE_RUNS))
            if self.n < len(self._loop):
                self._loop[self.n] = d
            else:
                self._loop.append(d)
            self.n += 1
            self.spent += self.clock() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        """Sample now, then every SAMPLE_EVERY_S until `stop`."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """Run `fn(*args)`; return (result, raw seconds, slowdown).  Raw
        seconds exclude the samples taken during the call; the slowdown
        is taken over the sample before the call, those during it and one
        taken right after it."""
        first = self.n - 1
        spent = self.spent
        t0 = self.clock()
        result = fn(*args)
        raw = self.clock() - t0 - (self.spent - spent)
        self.sample()
        return result, raw, slowdown(self._loop[first : self.n])


def slowdown(loop_times: list[float]) -> float:
    # the median: a sample the host preempted reads many times too slow,
    # and a few of them would swing a mean over a long call
    return statistics.median(loop_times) / REFERENCE_S
