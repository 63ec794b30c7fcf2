#!/usr/bin/env python3
"""Self-test of the benchmark harness, at a tiny input size.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that every metric
BENCHMARK.json names is printed with its unit, that the traced run
records a span for every layer, and that a corrupted golden digest is
reported as a failed cell.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CELL_SCHEMES = ("Dir1NB", "WTI", "Dir0B", "Dragon", "Dir2NB", "Dir4NB",
                "Dir4B", "DirCV", "DirCVr12", "DirNNB")
# One span per layer boundary the traced run crosses (README.md).
LAYER_SPANS = (
    ["tracegen", "sim.decode", "sim.checksum", "sim.plan",
     "runner.pass.seq", "runner.pass.par", "runner.cell", "obs.artifacts",
     "obs.cache.lookup", "obs.cache.store", "sweep.resume"]
    + [f"sim.cell.{s}" for s in CELL_SCHEMES]
    + [f"sim.finite_cell.{s}" for s in CELL_SCHEMES]
    + [f"directory.sharer_store.{op}.{mode}"
       for op in ("add", "remove", "count_excluding")
       for mode in ("word", "inline", "spilled")])
SWEEP_SPANS = ["sweep.spec", "sweep.cold"]


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.workdir = run.build_root() / "perfbench-test"
        shutil.rmtree(cls.workdir, ignore_errors=True)
        cls.workdir.mkdir(parents=True)

    def bench(self, *args):
        """Run the benchmark tiny; return (result object, stdout lines)."""
        out = subprocess.run(
            [str(self.binary), "--tiny", "--seconds", "0.5",
             "--workdir", str(self.workdir), *args],
            capture_output=True, text=True, timeout=170, check=True)
        lines = out.stdout.strip().splitlines()
        return json.loads(lines[-1]), lines

    def test_every_metric_printed_with_unit(self):
        for workload in run.WORKLOADS:
            for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, lines = self.bench(
                        "--workload", workload, "--trace", trace,
                        "--seed", "7")
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
                    printed = {name: metric["unit"] for name, metric
                               in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    if trace == "1":
                        # The sweep's resume hits the half its cold pass
                        # stored; a grid's resume hits every cell.
                        self.assertEqual(
                            result["metrics"]["obs.cache.hit_ratio"]["value"],
                            0.5 if workload == "finite_sweep" else 1)
                    host = json.loads(lines[0])["host"]
                    for key in ("nproc", "cpu_model", "compiler",
                                "build_type", "build_flags", "dirsim_tracer",
                                "benchmark_trace", "commit", "usable"):
                        self.assertIn(key, host)

    def test_traced_run_has_span_for_every_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.bench("--workload", workload, "--trace", "1")
                trace = json.loads(
                    (self.workdir / f"{workload}.trace.json").read_text())
                names = {event["name"] for event in trace["traceEvents"]}
                wanted = LAYER_SPANS + (
                    SWEEP_SPANS if workload == "finite_sweep" else [])
                self.assertEqual(sorted(set(wanted) - names), [])

    def test_corrupted_golden_digest_is_a_failed_cell(self):
        golden = self.workdir / "golden.json"
        subprocess.run(
            [str(self.binary), "--tiny", "--workdir", str(self.workdir),
             "--write-golden", str(golden)],
            capture_output=True, check=True, timeout=170)
        args = ("--workload", "paper_grid", "--trace", "0",
                "--golden", str(golden))
        result, _ = self.bench(*args)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

        doc = json.loads(golden.read_text())
        cells = doc["paper_grid"]["cells"]
        key = sorted(cells)[0]
        cells[key] = "%016x" % (int(cells[key], 16) ^ 1)
        golden.write_text(json.dumps(doc))
        result, _ = self.bench(*args)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
