#!/usr/bin/env bash
# CI entry point: tier-1 verify (full build + ctest), a strict
# -Wall -Wextra -Werror compile of every target (at RelWithDebInfo and
# again at Release), a build of the controller benchmark (ctlbench/)
# plus its self-tests,
# and a Release (-O2 -DNDEBUG) bench smoke that emits BENCH_core.json and
# gates it against bench/thresholds.json (failing, tools/check_bench.py;
# the bench is retried a couple of times so a transient load spike on the
# runner does not fail the pipeline — a real regression fails every try),
# plus a faulted bench_fig18_deployment run that must impair samples.
# Set VIA_CI_TSAN=1 to additionally run the threaded tests (including the
# reactor worker hammer in test_reactor, test_rpc, whose servers run
# reactor workers, test_observability, whose traced servers record spans
# from reactor threads inside the batched decision path, and test_obs,
# whose decision-ring hammer records from several threads, and test_chaos,
# whose shedding drills charge and settle the reactor's inflight count from
# many connections across workers) under ThreadSanitizer,
# and VIA_CI_ASAN=1 to run the chaos/fault/RPC/federation tests, the
# reactor and connection-buffer tests, the hostile-bytes decoder harness,
# and the concurrent-policy and memory-bound tests (warm decisions serve
# memo spans whose lifetime is the pinned snapshot's) under ASan+UBSan;
# the ASan stage dumps flight-recorder + span-buffer JSONL into
# $BUILD_DIR-asan/flight-dump/ when a test fails (uploaded as CI artifacts).
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== strict: -Werror build of every target =="
cmake -B "$BUILD_DIR-werror" -S . -DVIA_WERROR=ON
cmake --build "$BUILD_DIR-werror" -j

echo "== ctlbench: build ctl_bench + self-tests =="
cmake -S ctlbench -B .bench_build/ctlbench
cmake --build .bench_build/ctlbench -j --target ctl_bench
python3 ctlbench/test_run.py

echo "== release: -Werror build of every target, bench_micro_core smoke + BENCH_core.json =="
# Release inlines more than the strict stage's RelWithDebInfo, so GCC
# warns about code (e.g. -Wrestrict inside std::string) the strict stage
# never sees; every target must build clean here too.
cmake -B "$BUILD_DIR-release" -S . -DCMAKE_BUILD_TYPE=Release -DVIA_WERROR=ON
cmake --build "$BUILD_DIR-release" -j
bench_ok=0
for attempt in 1 2 3; do
  echo "-- bench attempt $attempt --"
  VIA_BENCH_JSON="$BUILD_DIR-release/BENCH_core.json" VIA_BENCH_SWEEP_SCALE=small \
    "$BUILD_DIR-release/bench/bench_micro_core" --benchmark_min_time=0.1
  test -s "$BUILD_DIR-release/BENCH_core.json"
  grep -q '"sweep_identical": true' "$BUILD_DIR-release/BENCH_core.json"
  echo "== bench regression gate (failing, bench/thresholds.json) =="
  if python3 tools/check_bench.py "$BUILD_DIR-release/BENCH_core.json" bench/thresholds.json; then
    bench_ok=1
    break
  fi
done
if [[ "$bench_ok" != "1" ]]; then
  echo "ci.sh: bench regression gate failed on every attempt" >&2
  exit 1
fi
echo "BENCH_core.json:"
cat "$BUILD_DIR-release/BENCH_core.json"

echo "== release: bench_fig18_deployment --fault-plan smoke =="
# The faulted testbed (§6f): the run must exit 0 and the plan must impair
# at least one ground-truth sample.
fig18_out=$("$BUILD_DIR-release/bench/bench_fig18_deployment" \
  --fault-plan "outage:relay=2,start=0,end=86400")
grep "fault-impaired samples" <<<"$fig18_out"
grep -Eq '^fault-impaired samples: [1-9][0-9]*$' <<<"$fig18_out"

echo "== release: bench_scale smoke (1M calls / 100k pairs, bounded RSS) =="
# The §6i streaming-scale smoke: a bounded-memory replay that must finish
# under the RSS cap (bench_scale exits nonzero on a VmHWM breach) and is
# gated warn-only against bench/thresholds_scale.json.
"$BUILD_DIR-release/bench/bench_scale" --calls 1000000 --pairs 100000 \
  --rss-cap-mb 1024 --json "$BUILD_DIR-release/BENCH_scale.json"
echo "== scale regression gate (bench/thresholds_scale.json) =="
python3 tools/check_bench.py "$BUILD_DIR-release/BENCH_scale.json" bench/thresholds_scale.json
echo "BENCH_scale.json:"
cat "$BUILD_DIR-release/BENCH_scale.json"

if [[ "${VIA_CI_TSAN:-0}" == "1" ]]; then
  echo "== tsan: test_parallel + test_concurrent_policy + test_reactor + test_rpc + test_federation + test_obs + test_observability + test_chaos under ThreadSanitizer =="
  cmake -B "$BUILD_DIR-tsan" -S . -DVIA_TSAN=ON
  cmake --build "$BUILD_DIR-tsan" -j --target test_parallel test_concurrent_policy test_reactor \
    test_rpc test_federation test_obs test_observability test_chaos
  "$BUILD_DIR-tsan/tests/test_parallel"
  "$BUILD_DIR-tsan/tests/test_concurrent_policy"
  "$BUILD_DIR-tsan/tests/test_reactor"
  "$BUILD_DIR-tsan/tests/test_rpc"
  "$BUILD_DIR-tsan/tests/test_federation"
  "$BUILD_DIR-tsan/tests/test_obs"
  "$BUILD_DIR-tsan/tests/test_observability"
  "$BUILD_DIR-tsan/tests/test_chaos"
fi

if [[ "${VIA_CI_ASAN:-0}" == "1" ]]; then
  echo "== asan: chaos + fault + rpc + federation + reactor + buffer + hostile-bytes + concurrent-policy + memory-bound tests under ASan+UBSan =="
  cmake -B "$BUILD_DIR-asan" -S . -DVIA_ASAN=ON
  cmake --build "$BUILD_DIR-asan" -j --target test_chaos test_faults test_rpc test_federation \
    test_reactor test_conn_buffer test_hostile_bytes test_concurrent_policy test_memory_bound
  # On failure each binary dumps its process-wide flight recorder and span
  # buffer as JSONL into this directory (tests/flight_dump.h); the GitHub
  # workflow uploads it as an artifact so a red chaos run is debuggable.
  mkdir -p "$BUILD_DIR-asan/flight-dump"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_chaos"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_faults"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_rpc"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_federation"
  "$BUILD_DIR-asan/tests/test_reactor"
  "$BUILD_DIR-asan/tests/test_conn_buffer"
  "$BUILD_DIR-asan/tests/test_hostile_bytes"
  "$BUILD_DIR-asan/tests/test_concurrent_policy"
  "$BUILD_DIR-asan/tests/test_memory_bound"
fi

echo "== ci.sh: all green =="
