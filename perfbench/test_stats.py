import math
import unittest

import stats


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_percentile(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(500), 98.0)
        self.assertEqual(stats.tail_percentile(499), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_capped_at_p99(self):
        self.assertEqual(stats.tail_percentile(100000), 99.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_failures_count_as_infinite_latency(self):
        ok = [0.010] * 990
        summary = stats.latency_summary(ok + [math.inf] * 10)
        self.assertEqual(summary["tail_percentile"], 99.0)
        self.assertAlmostEqual(summary["tail_ms"], 10.0)
        summary = stats.latency_summary(ok + [math.inf] * 11)
        self.assertEqual(summary["tail_ms"], math.inf)
        self.assertAlmostEqual(summary["p50_ms"], 10.0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.latency_summary([0.001] * 19)


class BlockTest(unittest.TestCase):
    def test_median_of_block_percentiles_ignores_one_stalled_block(self):
        calm = [0.001 * (i + 1) for i in range(100)]  # p95 = 95 ms
        stalled = [0.5] * 100
        blocks = [calm, calm, stalled, calm]
        self.assertAlmostEqual(stats.block_percentile(blocks, 95), 0.095)
        self.assertAlmostEqual(stats.block_percentile(blocks, 50), 0.050)

    def test_closed_rate_counts_only_ok_completions(self):
        done = [0.1 * (i + 1) for i in range(50)]  # 10 per second
        ok = [i % 2 == 0 for i in range(50)]
        self.assertAlmostEqual(stats.closed_rate(0.0, done, ok), 5.0)
        self.assertAlmostEqual(stats.closed_rate(0.0, done, [True] * 50),
                               10.0)


if __name__ == "__main__":
    unittest.main()
