#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest perfbench/test_perfbench.py

Builds the benchmark if needed (see run.py), then checks that the batch
generator is deterministic per seed and the layer probes return finite,
non-zero values (perfbench_e2e --selftest), and that every workload,
run briefly, prints exactly the metric names BENCHMARK.json declares,
passes its output checks, and (traced) keeps its spans covering the
traced wall.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S + 10)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "benchmark build failed"

    def test_selftest(self):
        proc = subprocess.run(
            [str(run.BINARY), "--selftest", "--configs",
             str(run.ROOT / "configs")],
            stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_metric_names_match_benchmark_json(self):
        declared = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared[trace])
                    if trace:
                        self.assertGreaterEqual(
                            result["metrics"]["obs.span_coverage"]["value"],
                            0.95)


if __name__ == "__main__":
    unittest.main()
