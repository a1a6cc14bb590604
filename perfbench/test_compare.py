"""Unit tests of compare.py: quartiles and spread, pair wins, verdicts, and
the per-workload rows of a diff.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "ingest", "why": "."}, {"name": "geo", "why": "."}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}
PARENT = [100.0 + i for i in range(10)]  # spread 0.05 of the median


def run(workload, **metrics):
    return {"workload": workload,
            "result": {"metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}}}


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5, 1, 4, 2, 3, 9, 7, 8, 6, 10]
        self.assertEqual(compare.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(compare.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_spread_is_iqr_over_median(self):
        # quantiles(1..10) = 2.75, 5.5, 8.25
        self.assertAlmostEqual(compare.spread(list(range(1, 11))), 1.0)
        self.assertEqual(compare.spread([4.0] * 10), 0.0)

    def test_pair_wins_follow_direction_and_ignore_ties(self):
        parent = [1, 2, 3, 4]
        change = [2, 2, 2, 5]  # better, tie, worse, better when higher wins
        self.assertEqual(compare.pair_wins(parent, change, "higher"), (2, 4))
        self.assertEqual(compare.pair_wins(parent, change, "lower"), (1, 4))

    def test_parse_seeds(self):
        self.assertEqual(compare.parse_seeds("1-3,7"), [1, 2, 3, 7])


class VerdictTest(unittest.TestCase):
    def test_better_needs_nine_of_ten_wins_and_a_gap_beyond_parent_iqr(self):
        change = [p + 20 for p in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "higher", 0.1), "better")
        # Eight wins of ten is not enough, however large the gap.
        eight = change[:8] + [PARENT[8] - 1, PARENT[9] - 1]
        self.assertEqual(compare.verdict(PARENT, eight, "higher", 0.25), "same")
        # Ten wins but a gap inside the parent's interquartile range.
        small = [p + 1 for p in PARENT]
        self.assertEqual(compare.verdict(PARENT, small, "higher", 0.1), "same")

    def test_ties_count_for_neither_side(self):
        change = [p + 20 for p in PARENT[:9]] + [PARENT[9]]
        self.assertEqual(compare.verdict(PARENT, change, "higher", 0.25), "better")
        tied = [p + 20 for p in PARENT[:8]] + PARENT[8:]
        self.assertEqual(compare.verdict(PARENT, tied, "higher", 0.25), "same")

    def test_worse_beyond_the_bound_in_either_direction(self):
        slower = [p * 0.85 for p in PARENT]
        self.assertEqual(compare.verdict(PARENT, slower, "higher", 0.1), "worse")
        self.assertEqual(compare.verdict(PARENT, slower, "higher", 0.2), "same")
        longer = [p * 1.3 for p in PARENT]
        self.assertEqual(compare.verdict(PARENT, longer, "lower", 0.25), "worse")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
        shifted = [v + 5 for v in noisy]
        self.assertEqual(compare.verdict(noisy, shifted, "higher", 0.1),
                         "unresolved")
        separated = [v + 200 for v in noisy]
        self.assertEqual(compare.verdict(noisy, separated, "higher", 0.1),
                         "better")


class CompareTest(unittest.TestCase):
    def test_one_row_per_workload_and_metric_in_spec_order(self):
        parent = {"geo": [run("geo", ops_per_s=v, setup_s=1.0) for v in PARENT],
                  "ingest": [run("ingest", ops_per_s=v) for v in PARENT]}
        change = {"geo": [run("geo", ops_per_s=v * 0.5, setup_s=1.0)
                          for v in PARENT],
                  "ingest": [run("ingest", ops_per_s=v + 20) for v in PARENT]}
        rows = compare.compare(parent, change, SPEC)
        self.assertEqual([(r.workload, r.metric, r.verdict) for r in rows],
                         [("ingest", "ops_per_s", "better"),
                          ("geo", "ops_per_s", "worse"),
                          ("geo", "setup_s", "same")])

    def test_diff_exits_nonzero_on_a_regression(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for side, scale in (("parent", 1.0), ("change", 0.5)):
                paths[side] = os.path.join(tmp, side + ".jsonl")
                with open(paths[side], "w") as f:
                    for v in PARENT:
                        f.write(json.dumps(run("ingest", ops_per_s=v * scale)) + "\n")
            spec = os.path.join(tmp, "BENCHMARK.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            argv = ["--spec", spec, "diff", paths["parent"], paths["change"]]
            self.assertEqual(compare.main(argv), 1)
            argv = ["--spec", spec, "diff", paths["parent"], paths["parent"]]
            self.assertEqual(compare.main(argv), 0)


if __name__ == "__main__":
    unittest.main()
