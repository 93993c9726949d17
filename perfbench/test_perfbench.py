"""The benchmark's own tests.

A tiny-size run of each workload, untraced and traced, must emit exactly
the metrics BENCHMARK.json names, each with its unit; two traced runs of
one seed must print the same output digest and deterministic per-layer
counts; and the benchmark must refuse to run where the library sources
are missing. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = benchmark_spec()
        for workload in spec["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run(workload["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = result_of(proc)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in spec[section]}
                    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)

    def test_counts_and_digest_repeat_exactly(self):
        def facts(proc):
            return [line for line in proc.stdout.splitlines()
                    if line.startswith(("output digest:", "deterministic counts:"))]

        for workload in benchmark_spec()["workloads"]:
            with self.subTest(workload=workload["name"]):
                first = run(workload["name"], 1)
                second = run(workload["name"], 1)
                self.assertEqual(first.returncode, 0, first.stderr[-3000:])
                self.assertEqual(second.returncode, 0, second.stderr[-3000:])
                self.assertEqual(len(facts(first)), 2)
                self.assertEqual(facts(first), facts(second))

    def test_unknown_workload_is_refused(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_refuses_to_run_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("paper_campaign", 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
