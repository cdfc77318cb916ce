#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py        (from the repository root)

Builds the benchmark through run.py (into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench) and checks that:

  - the output of every workload passes output_check, which parses it
    with the strict vspec_bench::json parser and checks metric names and
    units, percentile sample counts and failed_frac = failed / attempted
    (--trace 0 on every workload, --trace 1 on fleet_scale);
  - two runs with one seed report the same digest of the simulated
    statistics, and every check passes;
  - output_check rejects outputs that break those rules.

Short --seconds keep it to about two minutes; each workload still does
its minimum number of episodes and steps.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SECONDS = "1"


def bench(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def output_check(text, trace=0):
    proc = subprocess.run(
        [os.path.join(run.build_dir(), "output_check"),
         os.path.join(ROOT, "BENCHMARK.json"), str(trace)],
        input=text, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def lines_of(text):
    return [line for line in text.splitlines() if line.strip()]


class BenchmarkOutput(unittest.TestCase):
    outputs = {}

    @classmethod
    def setUpClass(cls):
        run.build()
        for workload in run.WORKLOADS:
            cls.outputs[workload] = [bench(workload, 7), bench(workload, 7)]

    def test_every_workload_passes_output_check(self):
        for workload, runs in self.outputs.items():
            for code, text in runs:
                with self.subTest(workload=workload):
                    self.assertEqual(code, 0, text)
                    check, report = output_check(text)
                    self.assertEqual(check, 0, report)

    def test_digest_repeats_for_one_seed(self):
        for workload, runs in self.outputs.items():
            digests = [json.loads(lines_of(text)[-2])["perfbench"]["digest"]
                       for _, text in runs]
            with self.subTest(workload=workload):
                self.assertEqual(digests[0], digests[1])

    def test_traced_run_reports_per_layer_metrics(self):
        code, text = bench("fleet_scale", 7, trace=1)
        self.assertEqual(code, 0, text)
        check, report = output_check(text, trace=1)
        self.assertEqual(check, 0, report)
        detail = json.loads(lines_of(text)[-2])["perfbench"]
        metrics = json.loads(lines_of(text)[-1])["metrics"]
        self.assertGreater(metrics["fleet.parallel_speedup"]["value"], 0.0)
        self.assertNotIn("fleet.report_ms", detail["not_measured"])
        self.assertTrue(
            os.path.exists(os.path.join(ROOT, detail["spans_file"])))


class OutputCheckRejects(unittest.TestCase):
    """Each case breaks one rule of a known-good output."""

    @classmethod
    def setUpClass(cls):
        run.build()
        code, text = bench("fleet_scale", 3)
        assert code == 0, text
        cls.detail = json.loads(lines_of(text)[-2])
        cls.result = json.loads(lines_of(text)[-1])

    def rejects(self, detail, result, raw_result=None):
        text = json.dumps(detail) + "\n" + (raw_result or json.dumps(result))
        check, report = output_check(text + "\n")
        self.assertEqual(check, 1, report)
        return report

    def copies(self):
        return json.loads(json.dumps(self.detail)), json.loads(
            json.dumps(self.result))

    def test_accepts_the_original(self):
        text = json.dumps(self.detail) + "\n" + json.dumps(self.result)
        self.assertEqual(output_check(text)[0], 0)

    def test_non_strict_json(self):
        detail, result = self.copies()
        raw = json.dumps(result)[:-1] + ",}"
        self.assertIn("strict JSON", self.rejects(detail, result, raw))

    def test_malformed_metric_name(self):
        detail, result = self.copies()
        result["metrics"]["bad name!"] = {"value": 1.0, "unit": "s"}
        self.assertIn("malformed", self.rejects(detail, result))

    def test_metric_without_unit(self):
        detail, result = self.copies()
        del result["metrics"]["work_per_s"]["unit"]
        self.rejects(detail, result)

    def test_missing_metric(self):
        detail, result = self.copies()
        del result["metrics"]["setup_s"]
        self.assertIn("missing", self.rejects(detail, result))

    def test_percentile_without_ten_samples_beyond(self):
        detail, result = self.copies()
        detail["perfbench"]["percentiles"]["step_tail_ms"]["samples"] = 50
        self.assertIn("fewer than 10", self.rejects(detail, result))

    def test_percentile_without_sample_count(self):
        detail, result = self.copies()
        del detail["perfbench"]["percentiles"]["step_p50_ms"]
        self.assertIn("sample count", self.rejects(detail, result))

    def test_failure_fraction_not_over_attempted(self):
        detail, result = self.copies()
        result["failed"] = 1
        self.assertIn("failed_frac", self.rejects(detail, result))


if __name__ == "__main__":
    unittest.main()
