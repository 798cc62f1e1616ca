#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (about a minute in all).

    python3 perfbench/test_perfbench.py

Each workload runs untraced and traced through run.py --tiny. The result line
must carry exactly the metrics BENCHMARK.json names, with their units; every
check must pass; and every per-layer metric must be measured (non-zero) by
at least one workload, so no named metric is silently dead.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coverage-mc", "mega-stream", "consortium-sweeps")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_spec_names_workloads_run_py_knows(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), WORKLOADS)

    def test_every_metric_appears_with_its_unit(self):
        measured = set()
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, entry in result["metrics"].items():
                        if kind == "end_to_end":
                            self.assertGreater(entry["value"], 0, name)
                        elif entry["value"] != 0:
                            measured.add(name)
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        # The chaos bench's DegradationPolicy sets no shedding tiers, so the
        # shed count is a real counter that reads 0 on every workload.
        may_stay_zero = {"net.shed_terminal_steps"}
        self.assertEqual(per_layer - measured - may_stay_zero, set())

    def test_second_seed_runs_clean(self):
        proc, result = run("consortium-sweeps", 0, seed=8)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
