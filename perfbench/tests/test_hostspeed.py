"""Host-speed normalisation of a timed call, with a fake clock and loop."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import hostspeed  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TimeCallTest(unittest.TestCase):
    def test_call_excludes_its_samples_and_scales_by_the_bracketing_ones(self):
        clock = FakeClock()
        clock.slow = 100.0  # the host's slowdown, as the loop sees it

        def probe(clk):
            d = clock.slow * hostspeed.REFERENCE_S
            clock.now += d
            return d

        speed = hostspeed.HostSpeed(clock=clock, probe=probe)
        speed.sample()  # an earlier call's sample: not this call's
        clock.slow = 2.0
        speed.sample()  # right before the call

        def call():
            clock.now += 1.0
            clock.slow = 4.0
            speed.sample()  # as the timer takes it during the call
            clock.now += 1.0
            clock.slow = 30.0
            return "done"

        result, raw, slow = speed.time(call)
        self.assertEqual(result, "done")
        self.assertAlmostEqual(raw, 2.0)
        # the median of 2, 4 and the 30 taken after: one slow sample is not
        # allowed to swing it
        self.assertAlmostEqual(slow, 4.0)
        self.assertEqual(len(speed.samples), 4)

    def test_a_sample_is_the_median_of_its_loop_runs(self):
        runs = iter([5.0, 1.0, 3.0])
        speed = hostspeed.HostSpeed(clock=FakeClock(), probe=lambda clk: next(runs))
        speed.sample()
        self.assertEqual(speed.samples, [3.0])

    def test_samples_outgrow_the_preallocated_list(self):
        speed = hostspeed.HostSpeed(clock=FakeClock(), probe=lambda clk: 1.0)
        speed._loop = [0.0] * 2
        for _ in range(3):
            speed.sample()
        self.assertEqual(speed.samples, [1.0, 1.0, 1.0])

    def test_real_loop_is_timed(self):
        self.assertGreater(hostspeed.loop_s(), 0.0)


if __name__ == "__main__":
    unittest.main()
