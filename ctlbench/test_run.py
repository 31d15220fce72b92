#!/usr/bin/env python3
"""Self-tests for the benchmark's own parsing and statistics.

    python3 ctlbench/test_run.py

Covers run.py's parsing of metric lines (names, units, values) and runs
`ctl_bench --self-test`, which checks the median, quartiles, histogram
quantiles and the ten-samples-beyond tail rule in stats.h.  Build the
binary first (any run.py invocation does) or that case is skipped.
"""

import json
import os
import statistics
import subprocess
import unittest

import run


class ParseMetric(unittest.TestCase):
    def test_accepts_dotted_names_and_units(self):
        self.assertEqual(run.parse_metric("metric rpc.self_us.p99 12.5 us"),
                         ("rpc.self_us.p99", 12.5, "us"))
        self.assertEqual(run.parse_metric("metric decide_rps 812345.25 1/s"),
                         ("decide_rps", 812345.25, "1/s"))
        self.assertEqual(run.parse_metric("metric trace_overhead_pct -1.5 pct")[1], -1.5)

    def test_keeps_every_digit(self):
        _, value, _ = run.parse_metric("metric setup_s 0.66235581700000001 s")
        self.assertEqual(value, 0.66235581700000001)

    def test_rejects_malformed(self):
        for line in ("metric .bad 1 s",                 # must start with a letter or digit
                     "metric a" + "x" * 64 + " 1 s",    # 65 characters
                     "metric bad/name 1 s",             # '/' not allowed in names
                     "metric ok 1 unit_far_too_long_x", # 17-character unit
                     "metric ok 1 m s",                 # unit with a space
                     "metric ok nan s",
                     "metric ok inf s",
                     "metric ok 1"):
            with self.assertRaises(ValueError, msg=line):
                run.parse_metric(line)

    def test_benchmark_json_names_and_units_parse(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                run.parse_metric("metric %s 1 %s" % (m["name"], m["unit"]))


class ParseOutput(unittest.TestCase):
    TEXT = "\n".join([
        "env nproc 4",
        "check replay.bit_identical ok 3_passes",
        "check call_cycle.reports_received FAIL 9_of_10",
        "metric refresh_ms 2.5 ms",
        "info tail call_us p99.9=1761.28 n=50000",
        "count attempted 1000",
        "count failed 2",
    ])

    def test_collects_metrics_checks_counts(self):
        metrics, checks, counts = run.parse_output(self.TEXT)
        self.assertEqual(metrics, {"refresh_ms": {"value": 2.5, "unit": "ms"}})
        self.assertEqual(checks, {"replay.bit_identical": True,
                                  "call_cycle.reports_received": False})
        self.assertEqual(counts, {"attempted": 1000, "failed": 2})

    def test_duplicate_metric_is_an_error(self):
        with self.assertRaises(ValueError):
            run.parse_output("metric a 1 s\nmetric a 2 s")

    def test_host_steal_pct(self):
        self.assertEqual(run.host_steal_pct("env nproc 4\nenv host_steal_pct 2.5\n"), 2.5)
        self.assertEqual(run.host_steal_pct(self.TEXT), 0.0)


class Spread(unittest.TestCase):
    def test_quartile_spread_matches_statistics(self):
        # The rule the benchmark is judged by: (q3 - q1) / median over runs.
        values = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(q, [2.75, 5.5, 8.25])
        self.assertAlmostEqual((q[2] - q[0]) / statistics.median(values), 1.0)


class NativeStats(unittest.TestCase):
    def test_ctl_bench_self_test(self):
        if not os.path.exists(run.BINARY):
            self.skipTest("ctl_bench not built yet")
        proc = subprocess.run([run.BINARY, "--self-test"], stdout=subprocess.PIPE, text=True,
                              timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("selftest passed", proc.stdout)


if __name__ == "__main__":
    unittest.main()
