#!/usr/bin/env python3
"""Runs the Via controller benchmark and prints its result line.

    python3 ctlbench/run.py --workload decide_hot --seed 1 --seconds 10 --trace 0

Builds ctl_bench (with the repository's libraries, from source) into
.bench_build/ctlbench on first use, runs one workload, echoes the
program's own lines (environment, output checks, metrics) and ends with
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json, with
--trace 1 the per-layer ones; the traced run also writes its spans to
.bench_build/ctlbench/spans-<workload>-<seed>.tsv.  A run that lost more
than RETAKE_STEAL_PCT of its CPU time to the hypervisor is taken once more
(see the constant).  Exits nonzero when the build fails, the program fails,
or an output check fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ctlbench")
BINARY = os.path.join(BUILD, "ctl_bench")
WORKLOADS = ("decide_hot", "call_cycle", "replay")
RUN_TIMEOUT_S = 170
# An untraced run whose CPUs lost more than this share of their time to the
# hypervisor (ctl_bench's `env host_steal_pct`) is taken once more, and the
# attempt with less steal is reported -- when the first attempt left room
# for a second within the time a run may take, and at most
# RETAKE_ALLOWANCE times per checkout.  Traced runs are not retaken: their
# per-layer figures carry no bound.
RETAKE_STEAL_PCT = 1.0
RETAKE_IF_UNDER_S = 75
RETAKE_ALLOWANCE = 5
RETAKES_FILE = os.path.join(BUILD, "retakes")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def parse_metric(line):
    """Parses `metric NAME VALUE UNIT`; raises ValueError when malformed."""
    parts = line.split()
    if len(parts) != 4 or parts[0] != "metric":
        raise ValueError("not a metric line: %r" % line)
    _, name, value, unit = parts
    if not NAME_RE.match(name):
        raise ValueError("bad metric name: %r" % name)
    if not UNIT_RE.match(unit):
        raise ValueError("bad unit for %s: %r" % (name, unit))
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("non-finite value for %s: %r" % (name, value))
    return name, number, unit


def parse_output(text):
    """Collects metrics, check verdicts and counts from ctl_bench's stdout."""
    metrics, checks, counts = {}, {}, {}
    for line in text.splitlines():
        kind = line.split(" ", 1)[0]
        if kind == "metric":
            name, value, unit = parse_metric(line)
            if name in metrics:
                raise ValueError("metric printed twice: %s" % name)
            metrics[name] = {"value": value, "unit": unit}
        elif kind == "check":
            parts = line.split()
            checks[parts[1]] = len(parts) > 2 and parts[2] == "ok"
        elif kind == "count":
            parts = line.split()
            counts[parts[1]] = int(parts[2])
    return metrics, checks, counts


def host_steal_pct(text):
    """The run's `env host_steal_pct` line; 0 when absent."""
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[:2] == ["env", "host_steal_pct"]:
            return float(parts[2])
    return 0.0


def take_retake():
    """Counts one retake against the checkout's allowance; False when spent.

    A steal episode can outlast many runs, and every retake doubles a run's
    time, so the allowance bounds what retakes can add to a whole series.
    """
    os.makedirs(BUILD, exist_ok=True)
    try:
        with open(RETAKES_FILE) as f:
            used = int(f.read().strip() or 0)
    except (OSError, ValueError):
        used = 0
    if used >= RETAKE_ALLOWANCE:
        return False
    with open(RETAKES_FILE, "w") as f:
        f.write("%d\n" % (used + 1))
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def build():
    log = sys.stderr
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log, timeout=300, env=env)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ctl_bench", "-j", jobs],
                   check=True, stdout=log, stderr=log, timeout=800, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        expected = expected_metrics(args.trace)
        build()
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print("ctlbench: cannot build: %s" % e, file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("ctlbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if (not args.trace and proc.returncode == 0 and host_steal_pct(proc.stdout) > RETAKE_STEAL_PCT
            and time.monotonic() - started < RETAKE_IF_UNDER_S and take_retake()):
        print("ctlbench: host steal %.2f%% > %.1f%%, taking the run again"
              % (host_steal_pct(proc.stdout), RETAKE_STEAL_PCT), file=sys.stderr)
        try:
            again = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_TIMEOUT_S - (time.monotonic() - started))
            if again.returncode == 0 and host_steal_pct(again.stdout) < host_steal_pct(proc.stdout):
                proc = again
        except subprocess.TimeoutExpired:
            print("ctlbench: retake cut short, keeping the first attempt", file=sys.stderr)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        print("ctlbench: ctl_bench exited %d" % proc.returncode, file=sys.stderr)
        return 3

    try:
        metrics, checks, counts = parse_output(proc.stdout)
    except ValueError as e:
        print("ctlbench: %s" % e, file=sys.stderr)
        return 3
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    wrong_unit = sorted(n for n in expected if n in metrics and metrics[n]["unit"] != expected[n])
    for label, names in (("missing", missing), ("unexpected", extra), ("wrong unit", wrong_unit)):
        if names:
            print("ctlbench: %s metrics: %s" % (label, ", ".join(names)), file=sys.stderr)
    correct = (proc.returncode == 0 and bool(checks) and all(checks.values())
               and not missing and not extra and not wrong_unit)
    result = {
        "correct": correct,
        "attempted": max(1, counts.get("attempted", 0)),
        "failed": counts.get("failed", 0),
        "metrics": {n: metrics[n] for n in expected if n in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
