#!/usr/bin/env python3
"""The verdicts of bench/ab_pairs.py's report(), on synthetic runs.

    python3 bench/ab_pairs_test.py

No benchmark runs: each case builds the run objects two sides of
perfbench/run.py would have printed and checks the verdict report()
returns for each end-to-end metric.
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_pairs  # noqa: E402

SPECS = {
    "seq_refs_per_s": {"better": "higher", "bound": 0.25},
    "setup_s": {"better": "lower", "bound": 0.25},
    "sim.decode.ns_per_ref": {"better": "lower"},
}


def runs(name, old, new):
    """The two sides' run objects for one metric's per-pair values."""
    def side(values):
        return [{"metrics": {name: {"value": value}}} for value in values]
    return {"old": side(old), "new": side(new)}


def verdicts(name, old, new, traced=False):
    with contextlib.redirect_stdout(io.StringIO()):
        return ab_pairs.report(runs(name, old, new), SPECS, not traced)


# Ten runs spread over 100..109: medians 104.5, IQR 4.5.
SPREAD = [100.0 + i for i in range(10)]


class ReportVerdictTest(unittest.TestCase):
    def test_bound_breach(self):
        new = [value * 0.7 for value in SPREAD]
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, new),
                         {"seq_refs_per_s": ab_pairs.PAST_BOUND})

    def test_bound_breach_needs_no_tenth_pair(self):
        new = [value * 0.7 for value in SPREAD[:4]]
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD[:4], new),
                         {"seq_refs_per_s": ab_pairs.PAST_BOUND})

    def test_loss_past_the_old_spread(self):
        # 0/10 pairs won, medians 8 apart against an IQR of 4.5, and a
        # ratio of 0.92: inside the bound, still a failure.
        new = [value - 8 for value in SPREAD]
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, new),
                         {"seq_refs_per_s": ab_pairs.CONSISTENT_LOSS})

    def test_one_pair_of_ten_won_is_still_a_loss(self):
        new = [value - 8 for value in SPREAD]
        new[0] = SPREAD[0] + 1
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, new),
                         {"seq_refs_per_s": ab_pairs.CONSISTENT_LOSS})

    def test_two_pairs_of_ten_won_are_not(self):
        new = [value - 8 for value in SPREAD]
        new[0] = SPREAD[0] + 1
        new[1] = SPREAD[1] + 1
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, new), {})

    def test_loss_inside_the_old_spread(self):
        # 0/10 won, but the medians are 1 apart and OLD's IQR is 4.5.
        new = [value - 1 for value in SPREAD]
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, new), {})

    def test_loss_over_fewer_than_ten_pairs(self):
        new = [value - 8 for value in SPREAD[:9]]
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD[:9], new), {})

    def test_ties_are_no_wins(self):
        # Two ties and eight losses: NEW won none, and its median is
        # 8 below OLD's.
        new = [value - 10 for value in SPREAD]
        new[0], new[1] = SPREAD[0], SPREAD[1]
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, new),
                         {"seq_refs_per_s": ab_pairs.CONSISTENT_LOSS})

    def test_all_ties_pass(self):
        self.assertEqual(verdicts("seq_refs_per_s", SPREAD, SPREAD), {})

    def test_lower_is_better(self):
        old = [1.0 + 0.01 * i for i in range(10)]
        slower = [value + 0.1 for value in old]
        self.assertEqual(verdicts("setup_s", old, slower),
                         {"setup_s": ab_pairs.CONSISTENT_LOSS})
        faster = [value - 0.1 for value in old]
        self.assertEqual(verdicts("setup_s", old, faster), {})
        self.assertEqual(
            verdicts("setup_s", old, [value * 1.3 for value in old]),
            {"setup_s": ab_pairs.PAST_BOUND})

    def test_per_layer_metrics_get_no_verdict(self):
        old = [1.0 + 0.01 * i for i in range(10)]
        self.assertEqual(
            verdicts("sim.decode.ns_per_ref", old,
                     [value * 2 for value in old]), {})

    def test_traced_runs_get_no_verdict(self):
        new = [value * 0.5 for value in SPREAD]
        self.assertEqual(
            verdicts("seq_refs_per_s", SPREAD, new, traced=True), {})


if __name__ == "__main__":
    unittest.main()
