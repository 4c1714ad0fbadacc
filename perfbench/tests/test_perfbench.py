#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Builds the runner (as perfbench/run.py does), smokes every workload at a
tiny size and checks that
  * every metric BENCHMARK.json names is emitted, with its unit;
  * the same seed repeats the shape and fault streams and every modeled
    and count metric exactly;
  * a different seed changes the streams;
  * the healthy workloads report every fault.* metric as 0, and
    fault_recovery really retries and resumes.

    python3 perfbench/tests/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HEALTHY = [w for w in WORKLOADS if w != "fault_recovery"]
# Metrics read off the host clock; everything else must repeat exactly.
HOST_UNITS = {"ms", "us", "s", "%", "MB", "Melem/s"}
HOST_NAMES = {"peak_rss_mb"}


def deterministic(result, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    return {name: m["value"] for name, m in result["metrics"].items()
            if name not in HOST_NAMES and (units[name] not in HOST_UNITS or
                                           name.endswith("_mb_per_call"))}


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench_run.build()
        cls.out = bench_run.build_dir() / "selftest"
        cls.out.mkdir(parents=True, exist_ok=True)
        cls.cache = {}

    def smoke(self, workload, seed, trace, fresh=False):
        key = (workload, seed, trace)
        if key in self.cache and not fresh:
            return self.cache[key]
        report = self.out / f"{workload}-{seed}-{trace}.json"
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--small",
               "--setups", "1", "--min-calls", "1", "--report", str(report)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], report.read_text())
        self.cache[key] = (result, json.loads(report.read_text()))
        return self.cache[key]

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result, _ = self.smoke(workload, 1, trace)
                declared = {m["name"]: m["unit"] for m in SPEC[section]}
                self.assertEqual(set(result["metrics"]), set(declared),
                                 (workload, section))
                for name, unit in declared.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(result["failed"], 0)

    def test_same_seed_repeats_streams_and_deterministic_metrics(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                a, a_report = self.smoke(workload, 7, trace)
                b, b_report = self.smoke(workload, 7, trace, fresh=True)
                self.assertEqual(a_report["stream"], b_report["stream"])
                self.assertEqual(deterministic(a, section),
                                 deterministic(b, section), workload)

    def test_different_seed_changes_streams(self):
        for workload in WORKLOADS:
            _, one = self.smoke(workload, 1, 1)
            _, two = self.smoke(workload, 2, 1)
            self.assertNotEqual(one["stream"], two["stream"], workload)

    def test_fault_metrics_are_zero_on_healthy_workloads(self):
        for workload in HEALTHY:
            result, _ = self.smoke(workload, 1, 1)
            for name, metric in result["metrics"].items():
                if name.startswith("fault."):
                    self.assertEqual(metric["value"], 0, (workload, name))

    def test_fault_recovery_retries_and_resumes(self):
        result, _ = self.smoke("fault_recovery", 1, 1)
        self.assertGreater(result["metrics"]["fault.retries_per_call"]["value"],
                           0)
        self.assertGreater(result["metrics"]["fault.resumed_runs"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
