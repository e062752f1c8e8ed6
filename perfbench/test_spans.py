import unittest

import spans


def span(i, parent, layer, start, end):
    return {"id": i, "parent": parent, "layer": layer, "name": layer or "cli",
            "start_ns": start, "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        tree = [
            span(0, -1, "", 0, 100),
            span(1, 0, "a", 10, 40),
            span(2, 1, "b", 20, 30),
            span(3, 0, "c", 50, 90),
        ]
        self.assertEqual(spans.self_times(tree),
                         {0: 30, 1: 20, 2: 10, 3: 40})

    def test_overlapping_children_are_counted_once(self):
        tree = [
            span(0, -1, "", 0, 100),
            span(1, 0, "a", 10, 60),
            span(2, 0, "a", 40, 80),
            span(3, 0, "a", 90, 120),  # clipped to the parent
        ]
        self.assertEqual(spans.self_times(tree)[0], 100 - 70 - 10)


class LayerTableTest(unittest.TestCase):
    def test_rows_plus_uncovered_sum_to_the_root(self):
        tree = [
            span(0, -1, "", 5, 95),          # main, inside a 100 ns root
            span(1, 0, "", 10, 60),          # cli composition
            span(2, 1, "datagen", 10, 20),
            span(3, 1, "core.train", 25, 55),
            span(4, 3, "typedet", 30, 40),
            span(5, 0, "serve.queue_wait", 60, 90),
            span(6, 5, "serve.predict", 70, 80),
        ]
        rows, uncovered, root = spans.layer_table(tree, 100)
        self.assertAlmostEqual(rows["datagen"], 10e-9)
        self.assertAlmostEqual(rows["core.train"], 20e-9)
        self.assertAlmostEqual(rows["typedet"], 10e-9)
        self.assertAlmostEqual(rows["serve.queue_wait"], 20e-9)
        self.assertAlmostEqual(rows["serve.predict"], 10e-9)
        # root outside main (10) + main self (5) + cli self (15)
        self.assertAlmostEqual(uncovered, 30e-9)
        self.assertAlmostEqual(sum(rows.values()) + uncovered, root)
        self.assertEqual(root, 100e-9)

    def test_overlapping_siblings_cannot_sum_to_the_root(self):
        tree = [
            span(0, -1, "", 0, 100),
            span(1, 0, "a", 10, 60),
            span(2, 1, "b", 20, 50),
            span(3, 1, "c", 30, 55),
            span(4, 2, "d", 20, 40),
            span(5, 3, "e", 30, 55),
        ]
        with self.assertRaises(ValueError):
            spans.layer_table(tree, 100)

    def test_spans_longer_than_the_root_are_rejected(self):
        with self.assertRaises(ValueError):
            spans.layer_table([span(0, -1, "", 0, 100)], 50)


if __name__ == "__main__":
    unittest.main()
