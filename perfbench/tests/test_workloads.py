"""Reference checks: a corrupted reference shows up in the error count."""

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import workloads as wl  # noqa: E402


def _records(ref):
    return [[q, status] for status, qs in ref.items() for q in qs]


class ErrorRateTest(unittest.TestCase):
    def test_matching_sweep_has_no_errors(self):
        ref = wl.load("sweep")
        self.assertEqual(wl.check_records(_records(ref), ref), (3031, 0))

    def test_corrupted_reference_counts_each_bad_record(self):
        ref = wl.load("screen")
        got = _records(ref)
        bad = copy.deepcopy(ref)
        moved = bad["needs_check"].pop()
        bad["pair_proved"].append(moved)
        attempted, failed = wl.check_records(got, bad)
        self.assertEqual((attempted, failed), (26151, 1))

    def test_missing_and_extra_records_fail(self):
        ref = {"needs_check": [7, 11], "pair_proved": [13]}
        self.assertEqual(wl.check_records([[7, "needs_check"], [13, "pair_proved"]], ref), (3, 1))
        self.assertEqual(wl.check_records([[7, "needs_check"], [11, "needs_check"], [13, "pair_proved"], [17, "x"]], ref), (3, 1))
        self.assertEqual(wl.check_records([], ref), (3, 3))

    def test_membership_against_corrupted_exceptional_list(self):
        qs = wl.inputs("element", 0)
        exceptional = wl.load("exceptional_element")
        got = [[q, q not in exceptional] for q in qs]
        self.assertEqual(wl.check_members(got, qs, exceptional), (len(qs), 0))
        self.assertEqual(wl.check_members(got, qs, exceptional + [23]), (len(qs), 1))
        self.assertEqual(wl.check_members(got[1:], qs, exceptional), (len(qs), 1))

    def test_counts_against_corrupted_reference(self):
        ref = wl.load("large_field")
        qs = wl.inputs("large-field", 5)
        got = [[q, ref[str(q)], True] for q in qs]
        self.assertEqual(wl.check_counts(got, qs, ref), (len(qs), 0))
        bad = dict(ref, **{str(qs[3]): ref[str(qs[3])] + 1})
        self.assertEqual(wl.check_counts(got, qs, bad), (len(qs), 1))
        got[0][2] = False  # outside the interval bound
        self.assertEqual(wl.check_counts(got, qs, ref), (len(qs), 1))


class InputsTest(unittest.TestCase):
    def test_large_field_draw_follows_the_seed(self):
        a, b = wl.inputs("large-field", 1), wl.inputs("large-field", 2)
        self.assertEqual(a, wl.inputs("large-field", 1))
        self.assertNotEqual(a, b)
        self.assertEqual(a[0], wl.LARGE_FIXED_Q)
        self.assertEqual(len(set(a)), 1 + wl.LARGE_DRAWS)

    def test_large_field_draws_one_field_per_cost_stratum(self):
        # cost falls as q grows, so strata by cost are not strata by q
        n = 2 * wl.LARGE_DRAWS
        costs = {q: 1000.0 - q for q in range(n)}
        for seed in range(5):
            qs = wl.large_field_qs(seed, costs)
            for i, q in enumerate(qs[1:]):
                self.assertIn(q, (n - 1 - 2 * i, n - 2 - 2 * i))

    def test_fixed_workloads_ignore_the_seed(self):
        for w in ("sweep", "screen", "element", "pair"):
            self.assertEqual(wl.inputs(w, 1), wl.inputs(w, 2))

    def test_prime_powers(self):
        self.assertEqual(wl.prime_powers_upto(20), [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
        self.assertEqual(len(wl.prime_powers_upto(300)), 79)


if __name__ == "__main__":
    unittest.main()
