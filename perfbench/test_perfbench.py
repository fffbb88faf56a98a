#!/usr/bin/env python3
"""Short-mode test of the IDEM benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json briefly (run.py --short), once for
the end-to-end metrics and once for the per-layer metrics, and checks that
each run exits 0, passes its correctness checks, stamps the host facts, and
prints every metric BENCHMARK.json names with its unit. Also checks that an
unknown workload is refused without a result line.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)


class ShortModeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run("--workload", workload, "--seed", "3", "--short", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        host = [line for line in lines if line.startswith("host: ")]
        self.assertEqual(len(host), 1)
        facts = json.loads(host[0][len("host: "):])
        for key in ("cpu_model", "nproc", "commit", "build_type", "steal_pct", "softirq_pct"):
            self.assertIn(key, facts)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for m in wanted:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_unknown_workload_is_refused(self):
        proc = run("--workload", "no-such-workload", "--short")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


def add_workload_tests():
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            name = "test_{}_trace{}".format(workload["name"].replace("-", "_"), trace)
            setattr(ShortModeTest, name,
                    lambda self, w=workload["name"], t=trace: self.check_run(w, t))


add_workload_tests()

if __name__ == "__main__":
    unittest.main()
