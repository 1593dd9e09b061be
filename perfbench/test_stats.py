"""Self-tests of the benchmark's statistics helpers.

Run: python3 perfbench/test_stats.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # Exclusive method: positions (n+1)/4 and 3(n+1)/4 of the sorted list.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 4, 6))
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4])
        self.assertAlmostEqual(q1, 1.25)
        self.assertAlmostEqual(q2, 2.5)
        self.assertAlmostEqual(q3, 3.75)

    def test_iqr_share(self):
        self.assertAlmostEqual(stats.iqr_share([1, 2, 3, 4, 5, 6, 7]), 1.0)
        self.assertEqual(stats.iqr_share([5.0] * 10), 0.0)

    def test_percentile_interpolates(self):
        xs = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 95), 95.05)
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7], 95), 7)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailPercentile(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(199), 94)

    def test_small_samples(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(11), 9)
        self.assertIsNone(stats.tail_percentile(10))

    def test_at_least_ten_beyond(self):
        for n in range(11, 400):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10)
            if p < 99:
                self.assertLess(stats.samples_beyond(n, p + 1), 10)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_time((0, 10), []), 10)

    def test_disjoint_children(self):
        self.assertEqual(stats.self_time((0, 10), [(1, 3), (5, 8)]), 5)

    def test_overlapping_children_counted_once(self):
        self.assertEqual(stats.self_time((0, 10), [(1, 6), (4, 8)]), 3)

    def test_children_clipped_to_parent(self):
        self.assertEqual(stats.self_time((0, 10), [(-5, 2), (9, 20)]), 7)
        self.assertEqual(stats.self_time((0, 10), [(20, 30)]), 10)

    def test_nested_children(self):
        self.assertEqual(stats.self_time((0, 10), [(1, 9), (2, 3)]), 2)


if __name__ == "__main__":
    unittest.main()
