#!/usr/bin/env python3
"""Unit tests for the verdict logic of ab.py (the same-host A/B tool).

Only the pure functions are exercised: no commit is checked out and
no benchmark runs.
"""

import importlib.util
import math
import os
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "ab", os.path.join(os.path.dirname(os.path.abspath(__file__)), "ab.py"))
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def run(wall, rss=5.0, attempted=100, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


class PairRuleTest(unittest.TestCase):
    def test_quartiles(self):
        self.assertEqual(ab.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (2.0, 3.0, 4.0))

    def test_pair_wins_counts_ties_for_neither_side(self):
        self.assertEqual(ab.pair_wins([1, 2, 3], [0.5, 2, 4], "lower"),
                         (1, 1, 1))
        self.assertEqual(ab.pair_wins([1, 2, 3], [0.5, 2, 4], "higher"),
                         (1, 1, 1))

    def test_gain_needs_nine_of_ten_pairs(self):
        parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]
        change = [0.75] * 10
        self.assertTrue(ab.is_gain(parent, change, "lower"))
        change[0] = 1.5  # 9/10 still wins
        self.assertTrue(ab.is_gain(parent, change, "lower"))
        change[1] = 1.5  # 8/10 does not
        self.assertFalse(ab.is_gain(parent, change, "lower"))
        self.assertFalse(ab.is_gain(parent, [0.75] * 10, "higher"))

    def test_a_tie_is_not_a_win(self):
        parent = [1.0] * 10
        change = [0.5] * 9 + [1.0]
        self.assertTrue(ab.is_gain(parent, change, "lower"))
        change[0] = 1.0  # 8 wins, 2 ties
        self.assertFalse(ab.is_gain(parent, change, "lower"))

    def test_gain_needs_a_gap_wider_than_the_parent_spread(self):
        # Every pair won, but by less than the parent's own spread.
        parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        change = [p - 0.1 for p in parent]
        self.assertEqual(ab.pair_wins(parent, change, "lower")[0], 10)
        self.assertFalse(ab.is_gain(parent, change, "lower"))

    def test_worsening_is_relative_to_the_parent_median(self):
        self.assertEqual(ab.worsening(1.0, 0.8, "lower"), 0.0)
        self.assertAlmostEqual(ab.worsening(1.0, 1.3, "lower"), 0.3)
        self.assertAlmostEqual(ab.worsening(10.0, 8.0, "higher"), 0.2)
        self.assertEqual(ab.worsening(0.0, 1.0, "lower"), math.inf)


class EvaluateTest(unittest.TestCase):
    def test_claimed_gain_passes(self):
        parent = [run(0.177 + 0.001 * (i % 3)) for i in range(10)]
        change = [run(0.125 + 0.001 * (i % 3)) for i in range(10)]
        rows, notes, ok = ab.evaluate(METRICS, parent, change, ["wall_s"])
        self.assertTrue(ok, notes)
        self.assertTrue(rows[0]["gain"])
        self.assertEqual(rows[0]["wins"], (10, 0, 0))
        self.assertFalse(rows[1]["gain"])  # rss tied everywhere

    def test_claim_without_a_gain_fails(self):
        parent = [run(1.0) for _ in range(10)]
        change = [run(1.0) for _ in range(10)]
        _, notes, ok = ab.evaluate(METRICS, parent, change, ["wall_s"])
        self.assertFalse(ok)
        self.assertTrue(any("claimed gain not shown" in n for n in notes))

    def test_metric_past_its_bound_fails(self):
        parent = [run(1.0, rss=5.0) for _ in range(10)]
        change = [run(0.9, rss=5.6) for _ in range(10)]  # rss +12% > 10%
        rows, notes, ok = ab.evaluate(METRICS, parent, change, [])
        self.assertFalse(ok)
        self.assertTrue(rows[1]["regressed"])
        self.assertFalse(rows[0]["regressed"])
        change = [run(0.9, rss=5.4) for _ in range(10)]  # +8% is within
        _, _, ok = ab.evaluate(METRICS, parent, change, [])
        self.assertTrue(ok)

    def test_more_failed_outputs_fail(self):
        parent = [run(1.0) for _ in range(10)]
        change = [run(0.5, failed=1) for _ in range(10)]
        _, notes, ok = ab.evaluate(METRICS, parent, change, ["wall_s"])
        self.assertFalse(ok)
        self.assertIn("the change fails a larger share of outputs", notes)

    def test_unknown_claim_and_missing_metric_fail(self):
        parent = [run(1.0) for _ in range(3)]
        change = [run(1.0) for _ in range(3)]
        _, notes, ok = ab.evaluate(METRICS, parent, change, ["qps"])
        self.assertFalse(ok)
        del change[0]["metrics"]["wall_s"]
        _, notes, ok = ab.evaluate(METRICS, parent, change, [])
        self.assertFalse(ok)
        self.assertIn("wall_s: missing from some runs", notes)

    def test_table_names_every_metric(self):
        parent = [run(1.0) for _ in range(3)]
        change = [run(0.5) for _ in range(3)]
        rows, _, _ = ab.evaluate(METRICS, parent, change, [])
        lines = ab.format_table(rows)
        self.assertEqual(len(lines), 1 + len(METRICS))
        self.assertIn("-50.0%", lines[1])


if __name__ == "__main__":
    unittest.main()
