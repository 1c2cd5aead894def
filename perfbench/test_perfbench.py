#!/usr/bin/env python3
"""The benchmark's own tests, at smoke scale (tiny sizes, same code).

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; builds like perfbench/run.py.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay", "serve", "turnaround"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7, seconds=1.0, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class SmokeRuns:
    """Each (workload, trace) smoke run once, shared by the tests."""
    cache = {}

    @classmethod
    def get(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.cache:
            out = run(workload, trace)
            if out.returncode != 0:
                raise AssertionError(f"{key} failed:\n{out.stderr[-3000:]}")
            lines = out.stdout.strip().splitlines()
            cls.cache[key] = (json.loads(lines[-1]), lines[:-1])
        return cls.cache[key]


def record(lines, key):
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "record" and parts[1] == key:
            return parts[2]
    return None


def metric(lines, name):
    pattern = re.compile(r"^metric (\S+)\s+(\S+) (\S+)\s+n=(\d+)$")
    for line in lines:
        m = pattern.match(line)
        if m and m.group(1) == name:
            return float(m.group(2)), m.group(3), int(m.group(4))
    return None


class BenchmarkTests(unittest.TestCase):
    def test_every_named_metric_is_printed_with_its_unit(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, lines = SmokeRuns.get(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        printed = metric(lines, name)
                        self.assertIsNotNone(printed, name)
                        self.assertEqual(printed[1], unit, name)
                        self.assertGreaterEqual(printed[2], 1, name)

    def test_serve_generator_is_open_loop(self):
        result, lines = SmokeRuns.get("serve", 1)
        lag = result["metrics"]["serve.gen_lag_p99_ms"]["value"]
        # The generator sends on schedule: its p99 lateness is reported
        # and stays far below the per-request latency it would add if it
        # waited for answers (a closed loop).
        self.assertGreaterEqual(lag, 0.0)
        self.assertLess(lag, 20.0)
        self.assertIsNotNone(record(lines, "serve.nominal"))
        self.assertIsNotNone(record(lines, "serve.p99_limit_ms"))

    def test_turnaround_contention_forms_a_queue(self):
        result, _ = SmokeRuns.get("turnaround", 1)
        m = result["metrics"]
        self.assertGreater(m["sched.wait_frac"]["value"], 0.5)
        self.assertGreater(m["sched.queued_mean"]["value"], 1.0)

    def test_replay_digest_repeats_at_the_same_seed(self):
        _, lines = SmokeRuns.get("replay", 0)
        again = run("replay", 0)
        self.assertEqual(again.returncode, 0, again.stderr[-3000:])
        self.assertEqual(
            record(lines, "replay.prediction_digest"),
            record(again.stdout.splitlines(), "replay.prediction_digest"))

    def test_run_record_names_machine_and_held_out_seed(self):
        _, lines = SmokeRuns.get("turnaround", 0)
        for key in ("nproc", "cpu_model", "l2_cache", "build_type", "commit",
                    "held_out_seed", "turnaround.nodes", "turnaround.traces"):
            self.assertIsNotNone(record(lines, key), key)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "replay",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
                env=env)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
