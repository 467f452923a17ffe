"""Self-tests of the benchmark at a tiny point (41 cavities, 6 qubits).

    python3 perfbench/selftest.py

They run the real CLI, so they take a few seconds per workload.
"""

import json
import os
import shutil
import unittest

from record import record
from run import HERE, ROOT, measure, report, summarize
from workloads import TINY, TINY_POINTS, TOLERANCE, WORKLOADS, check
WORK = os.path.join(HERE, ".work", "selftest")


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)


def tiny_refs(name):
    workload = WORKLOADS[name]
    return record(workload, TINY_POINTS[name], TINY, os.path.join(WORK, "record", name))


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)
        cls.refs = {name: tiny_refs(name) for name in WORKLOADS}

    def measure(self, name, trace):
        tag = f"{name}-trace{int(trace)}"
        return measure(WORKLOADS[name], TINY_POINTS[name], 0, trace,
                       os.path.join(WORK, tag), self.refs[name], TINY)

    def test_every_metric_prints_with_name_and_unit(self):
        for name in WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    runs = self.measure(name, trace)
                    lines = report(runs, summarize(runs, trace), {})
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric, unit in expected.items():
                        self.assertTrue(any(line.startswith(f"{metric} ") and
                                            line.endswith(f" {unit}") for line in lines),
                                        metric)
                    self.assertTrue(any(line.startswith("failed_ratio 0 ") for line in lines))

    def test_perturbed_reference_counts_as_failure(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                runs = self.measure(name, False)
                self.assertEqual(runs[0]["problems"], [])
                out = os.path.join(WORK, f"{name}-trace0", "run-000")
                refs = json.loads(json.dumps(self.refs[name]))
                key = next(iter(WORKLOADS[name].extract(TINY_POINTS[name][0], out)))
                refs[key][-1] += 100 * TOLERANCE
                self.assertTrue(check(WORKLOADS[name], TINY_POINTS[name][0], out, refs, TINY))

    def test_layer_self_times_account_for_traced_wall(self):
        runs = self.measure("quench", True)
        layers = runs[1]["layers"]
        self.assertAlmostEqual(layers["trace.accounted_s"], layers["trace.wall_s"], places=6)
        self.assertGreater(layers["observables.calls"], 1000)

    def test_traced_and_untraced_runs_write_identical_csvs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                runs = self.measure(name, True)
                self.assertEqual([r["traced"] for r in runs[:2]], [False, True])
                plain, traced = (os.path.join(WORK, f"{name}-trace1", f"run-{i:03d}")
                                 for i in (0, 1))
                csvs = sorted(f for f in os.listdir(plain) if f.endswith(".csv"))
                self.assertTrue(csvs)
                self.assertEqual(csvs, sorted(f for f in os.listdir(traced) if f.endswith(".csv")))
                for f in csvs:
                    with open(os.path.join(plain, f), "rb") as a, \
                            open(os.path.join(traced, f), "rb") as b:
                        self.assertEqual(a.read(), b.read(), f)


if __name__ == "__main__":
    unittest.main()
