#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds ftms_perfbench through run.py, then checks:
  * the exact-count oracle: every workload's simulated counts repeat
    within one process (a run whose drills disagree fails) and
    are identical at the default thread setting, at FTMS_THREADS=1 and at
    one thread per core;
  * the traced run: per-layer self times sum to run_s and every
    BENCHMARK.json per-layer metric is reported;
  * the untraced run reports every end-to-end metric, nonzero, with
    run_s taken from the drills' host-normalized times;
  * the comparison guard refuses reports from different setups;
  * run.py fails, without a result line, when the sources are missing.
Temporary files go to .bench_tmp/ at the root of the checkout.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

TMP = ROOT / ".bench_tmp"


def drive(workload, seconds, trace=0, threads=None):
    """Runs ftms_perfbench directly; returns its report."""
    env = run.bench_env()
    env.pop("FTMS_THREADS", None)
    if threads is not None:
        env["FTMS_THREADS"] = str(threads)
    proc = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=600)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["exit_code"] = proc.returncode
    return report


class CountOracleTest(unittest.TestCase):
    def test_counts_repeat_and_ignore_thread_count(self):
        cores = max(2, os.cpu_count() or 1)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                reports = [drive(workload, 0.01, threads=t)
                           for t in (None, 1, cores)]
                for report in reports:
                    self.assertTrue(report["correct"], report["errors"])
                    self.assertEqual(report["exit_code"], 0)
                    # At least two drills ran, so the in-process repeat
                    # check compared something.
                    self.assertGreaterEqual(report["drills"]["untraced"], 2)
                default, serial, pooled = reports
                self.assertEqual(serial["env"]["threads"], 1)
                # rebuild_datapath is serial at any setting.
                self.assertEqual(pooled["env"]["threads"],
                                 1 if workload == "rebuild_datapath"
                                 else cores)
                self.assertTrue(default["counts"])
                self.assertEqual(default["counts"], serial["counts"])
                self.assertEqual(default["counts"], pooled["counts"])


class TracedRunTest(unittest.TestCase):
    def test_self_times_sum_to_run_and_cover_the_spec(self):
        spec = run.load_spec()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report = drive(workload, 0.01, trace=1)
                self.assertTrue(report["correct"], report["errors"])
                run.check_metrics(report, spec, 1)
                m = report["metrics"]
                self.assertAlmostEqual(
                    m["trace.self_sum_over_run"]["value"], 1.0, delta=0.01)
                shares = sum(v["value"] for k, v in m.items()
                             if k.startswith("self_share."))
                self.assertAlmostEqual(shares, 1.0, delta=1e-9)
                self.assertGreater(m["tracing.overhead_ratio"]["value"], 0)

    def test_untraced_run_reports_the_end_to_end_metrics(self):
        spec = run.load_spec()
        report = drive("rebuild_datapath", 0.01)
        run.check_metrics(report, spec, 0)
        for name, metric in report["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        # run_s is a drill's timed phase divided by its host factor.
        samples = report["samples"]
        self.assertEqual(len(samples["host_factor"]),
                         report["drills"]["untraced"])
        normalized = [r / f for r, f in
                      zip(samples["run_s"], samples["host_factor"])]
        self.assertGreaterEqual(report["metrics"]["run_s"]["value"],
                                min(normalized))
        self.assertLessEqual(report["metrics"]["run_s"]["value"],
                             max(normalized))


class CompareGuardTest(unittest.TestCase):
    def report(self, **env):
        base_env = {"cpu_model": "cpu", "nproc": 4, "affinity_cpus": 4,
                    "threads": 4, "build_type": "Release",
                    "compiler": "gcc", "xor_kernel": "avx2",
                    "pq_kernel": "avx2"}
        base_env.update(env)
        return {"workload": "farm_failover", "seed": 1, "trace": 0,
                "env": base_env, "counts": {"sr.cycles": 56},
                "metrics": {"run_s": {"value": 1.0, "unit": "s"}},
                "extras": {}}

    def write(self, name, report):
        path = TMP / name
        path.write_text(json.dumps(report))
        return str(path)

    def setUp(self):
        TMP.mkdir(exist_ok=True)

    def test_refuses_different_kernels_cpu_or_cores(self):
        base = self.write("a.json", self.report())
        for env in ({"xor_kernel": "avx512"}, {"pq_kernel": "gfni"},
                    {"cpu_model": "other"}, {"nproc": 8}):
            with self.subTest(env=env):
                other = self.write("b.json", self.report(**env))
                self.assertEqual(compare.main([base, other]), 2)

    def test_compares_matching_setups_and_flags_count_drift(self):
        base = self.write("a.json", self.report())
        self.assertEqual(compare.main([base, base, "--identical-counts"]), 0)
        drifted = self.report()
        drifted["counts"]["sr.cycles"] = 57
        other = self.write("b.json", drifted)
        self.assertEqual(compare.main([base, other]), 0)
        self.assertEqual(compare.main([base, other, "--identical-counts"]), 1)


class MissingSourcesTest(unittest.TestCase):
    def test_run_fails_without_the_program_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        bare = TMP / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "farm_failover", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    try:
        run.build()
    except run.BenchError as e:
        sys.exit(f"build failed: {e}")
    unittest.main()
