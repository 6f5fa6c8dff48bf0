#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal length.

    python3 perfbench/test_smoke.py

Runs perfbench/run.py for one second per workload, untraced and
traced, and checks that
  - the run exits 0 with a result carrying exactly the contract keys,
    correct output and no failed point (fail_ratio 0);
  - every metric BENCHMARK.json names is reported with its unit and
    printed as "name = value unit";
  - the traced run flags no problem, so every traced makespan equalled
    its untraced runPlan result bit for bit;
  - the traced runs show the predicted contrast: engine.run_s is the
    largest layer on the cold grids, the warm grid runs no engine
    event, and the served run journals each unique point once.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    return proc


def unique_points(spec_path):
    spec = json.loads(spec_path.read_text())
    return math.prod(len(spec[axis])
                     for axis in ("machines", "workloads", "ranks", "options"))


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertIn("  fail_ratio = 0 (", proc.stdout)
        self.assertNotIn("PROBLEM", proc.stdout)

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(line.startswith(f"  {m['name']} = ")
                                and line.endswith(f" {m['unit']}")
                                for line in lines), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return {name: v["value"] for name, v in metrics.items()}

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check_run(workload, 1)
                self.assertEqual(m["fail_ratio"], 0)
                layer_times = {x["name"]: m[x["name"]]
                               for x in SPEC["per_layer"]
                               if x["unit"] == "s"
                               and not x["name"].startswith("trace.")}
                if workload in ("zoo_cold", "paper_cold"):
                    self.assertEqual(max(layer_times, key=layer_times.get),
                                     "engine.run_s")
                    self.assertGreater(m["engine.events"], 0)
                if workload == "grid_warm":
                    self.assertEqual(m["engine.events"], 0)
                    self.assertEqual(m["runner.misses"], 0)
                    self.assertEqual(m["runner.hit_ratio"], 1)
                if workload == "serve_journal":
                    self.assertEqual(
                        m["journal.appends"],
                        unique_points(BENCH_DIR / "specs" / "zoo_2006.json"))
                    self.assertEqual(m["transport.frames"],
                                     m["journal.appends"])


if __name__ == "__main__":
    unittest.main()
