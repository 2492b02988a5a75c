"""Span accounting of the tracer, with a fake clock."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import probes  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = probes.Tracer(clock=self.clock)

    def test_each_next_is_a_span_and_creation_is_not(self):
        clock = self.clock

        def gen(n):
            clock.now += 100.0  # runs at the first next(), not at the call
            for i in range(n):
                clock.now += 1.0
                yield i
            clock.now += 0.5  # the final next() that ends the generator

        probe = probes.wrap_generator(self.tracer, "g", gen)
        it = probe(3)
        self.assertEqual(self.tracer.calls, {})
        consumer = self.tracer.enter("consumer")
        values = []
        for v in it:
            clock.now += 10.0  # consumer work between next() calls
            values.append(v)
        self.tracer.exit(consumer)

        self.assertEqual(values, [0, 1, 2])
        self.assertEqual(self.tracer.calls["g"], 4)  # 3 values + the StopIteration
        self.assertEqual(self.tracer.counts["g.yielded"], 3)
        self.assertAlmostEqual(self.tracer.self_s["g"], 103.5)
        self.assertAlmostEqual(self.tracer.self_s["consumer"], 30.0)

    def test_child_spans_inside_next_are_subtracted(self):
        clock = self.clock
        child = probes.wrap_call(self.tracer, "child", lambda: setattr(clock, "now", clock.now + 2.0))

        def gen():
            for _ in range(2):
                clock.now += 1.0
                child()
                yield None

        list(probes.wrap_generator(self.tracer, "g", gen)())
        self.assertAlmostEqual(self.tracer.self_s["g"], 2.0)
        self.assertAlmostEqual(self.tracer.inclusive["g"], 6.0)
        self.assertAlmostEqual(self.tracer.self_s["child"], 4.0)

    def test_abandoned_generator_leaves_no_open_span(self):
        def gen():
            yield from range(10)

        it = probes.wrap_generator(self.tracer, "g", gen)()
        next(it)
        del it
        outer = self.tracer.enter("outer")
        self.tracer.exit(outer)  # raises if a span were still open
        self.assertEqual(self.tracer.counts["g.yielded"], 1)


class MissingProbeTest(unittest.TestCase):
    def test_missing_function_drops_its_metrics(self):
        tracer = probes.Tracer()
        out = probes.layer_metrics(tracer, {"verify.pair"})
        self.assertNotIn("verify.pair.self_s", out)
        self.assertNotIn("verify.pair.witness_scans", out)
        self.assertIn("verify.ie.self_s", out)
        self.assertNotIn("ntcore.profile.hit_ratio", out)  # no cache to read


if __name__ == "__main__":
    unittest.main()
