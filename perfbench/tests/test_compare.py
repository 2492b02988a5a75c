"""The compare verdict rule, on synthetic run sets."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from compare import verdict  # noqa: E402

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]


class VerdictTest(unittest.TestCase):
    def test_same_numbers_are_unchanged(self):
        self.assertEqual(verdict(BASE, list(BASE), 0.1, "lower"), "unchanged")

    def test_small_slowdown_within_bound_is_unchanged(self):
        self.assertEqual(verdict(BASE, [x * 1.05 for x in BASE], 0.1, "lower"), "unchanged")

    def test_slowdown_beyond_bound_is_worse(self):
        self.assertEqual(verdict(BASE, [x * 1.2 for x in BASE], 0.1, "lower"), "worse")

    def test_consistent_speedup_is_better(self):
        self.assertEqual(verdict(BASE, [x * 0.8 for x in BASE], 0.1, "lower"), "better")

    def test_direction_follows_better(self):
        # a 20% rise is a gain for a higher-is-better metric
        self.assertEqual(verdict(BASE, [x * 1.2 for x in BASE], 0.1, "higher"), "better")
        self.assertEqual(verdict(BASE, [x * 0.8 for x in BASE], 0.1, "higher"), "worse")

    def test_wide_spread_is_unresolved(self):
        noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        self.assertEqual(verdict(BASE, noisy, 0.1, "lower"), "unresolved")
        self.assertEqual(verdict(noisy, BASE, 0.1, "lower"), "unresolved")

    def test_wide_spread_but_every_run_better_is_better(self):
        noisy_fast = [5.0, 8.0, 6.0, 7.5, 5.5, 9.0, 6.5, 7.0, 8.5, 6.0]
        self.assertEqual(verdict(BASE, noisy_fast, 0.1, "lower"), "better")

    def test_gain_smaller_than_base_spread_is_not_better(self):
        base = [9.0, 11.0, 9.5, 10.5, 10.0, 9.2, 10.8, 9.7, 10.3, 10.0]  # IQR ~1.1
        change = [x - 0.5 for x in base]  # wins every pair, but by less than the IQR
        self.assertEqual(verdict(base, change, 0.2, "lower"), "unchanged")

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(verdict(BASE[:3], [x * 0.8 for x in BASE[:3]], 0.1, "lower"), "unresolved")
        self.assertEqual(verdict(BASE[:1], [x * 1.2 for x in BASE[:1]], 0.1, "lower"), "worse")

    def test_gain_needs_nine_in_ten_pairs(self):
        change = [x * 0.9 for x in BASE]
        change[0], change[1] = 12.0, 12.0  # two of ten pairs lost
        self.assertEqual(verdict(BASE, change, 0.25, "lower"), "unchanged")


if __name__ == "__main__":
    unittest.main()
