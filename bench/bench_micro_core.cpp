// Micro-benchmarks (google-benchmark) for Via's hot paths: history ingest,
// tomography solve, prediction, top-k selection, bandit pick, and the
// end-to-end per-call controller decision — with and without telemetry
// attached, so the instrumentation overhead itself is measured.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/predictor.h"
#include "core/topk.h"
#include "core/via_policy.h"
#include "netsim/groundtruth.h"
#include "netsim/world.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "rpc/fed_client.h"
#include "rpc/fed_fleet.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/soak_driver.h"
#include "util/rng.h"

namespace via {
namespace {

const World& bench_world() {
  static const World world({.num_ases = 100, .num_relays = 20, .seed = 99});
  return world;
}

GroundTruth& bench_gt() {
  static GroundTruth gt(bench_world());
  return gt;
}

/// A window of realistic observations covering many pairs and options.
HistoryWindow make_window(int observations) {
  auto& gt = bench_gt();
  HistoryWindow window(&gt.option_table());
  Rng rng(3);
  for (int i = 0; i < observations; ++i) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    auto d = static_cast<AsId>(rng.uniform_index(100));
    if (d == s) d = (d + 1) % 100;
    const auto opts = gt.candidate_options(s, d);
    const OptionId opt = opts[rng.uniform_index(opts.size())];
    Observation o;
    o.id = i;
    o.time = 1000 + i;
    o.src_as = s;
    o.dst_as = d;
    o.option = opt;
    o.ingress = gt.transit_ingress(s, opt);
    o.perf = gt.sample_call(i, s, d, opt, o.time);
    window.add(o);
  }
  return window;
}

void BM_HistoryIngest(benchmark::State& state) {
  auto& gt = bench_gt();
  Observation o;
  o.src_as = 1;
  o.dst_as = 2;
  o.option = 3;
  o.perf = {120.0, 0.8, 5.0};
  HistoryWindow window(&gt.option_table());
  for (auto _ : state) {
    window.add(o);
    benchmark::DoNotOptimize(window.observations());
  }
}
BENCHMARK(BM_HistoryIngest);

void BM_TomographySolve(benchmark::State& state) {
  auto& gt = bench_gt();
  const HistoryWindow window = make_window(static_cast<int>(state.range(0)));
  TomographySolver solver(gt.option_table(),
                          [&](RelayId a, RelayId b) { return gt.backbone(a, b); });
  for (auto _ : state) {
    solver.solve(window);
    benchmark::DoNotOptimize(solver.segment_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TomographySolve)->Arg(1000)->Arg(10000)->Arg(50000);

/// The parallel solve (DESIGN.md §6e) across worker counts on a fixed
/// 50k-observation window.  Results are bit-identical at every thread
/// count (segment partitioning preserves the serial fold order); only the
/// wall time should move.  On a single-core box all points degenerate to
/// roughly the serial time.
void BM_TomographySolveThreads(benchmark::State& state) {
  auto& gt = bench_gt();
  const HistoryWindow window = make_window(50000);
  TomographyConfig config;
  config.solve_threads = static_cast<int>(state.range(0));
  TomographySolver solver(
      gt.option_table(), [&](RelayId a, RelayId b) { return gt.backbone(a, b); }, config);
  for (auto _ : state) {
    solver.solve(window);
    benchmark::DoNotOptimize(solver.segment_count());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_TomographySolveThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PredictorTrainAndPredict(benchmark::State& state) {
  auto& gt = bench_gt();
  const HistoryWindow window = make_window(20000);
  Predictor predictor(gt.option_table(),
                      [&](RelayId a, RelayId b) { return gt.backbone(a, b); });
  predictor.train(window);
  Rng rng(5);
  for (auto _ : state) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    const auto d = static_cast<AsId>((s + 1 + rng.uniform_index(99)) % 100);
    const auto opts = gt.candidate_options(s, d);
    const Prediction p =
        predictor.predict(s, d, opts[rng.uniform_index(opts.size())], Metric::Rtt);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PredictorTrainAndPredict);

void BM_TopKSelection(benchmark::State& state) {
  auto& gt = bench_gt();
  const HistoryWindow window = make_window(20000);
  Predictor predictor(gt.option_table(),
                      [&](RelayId a, RelayId b) { return gt.backbone(a, b); });
  predictor.train(window);
  Rng rng(7);
  for (auto _ : state) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    const auto d = static_cast<AsId>((s + 1 + rng.uniform_index(99)) % 100);
    const auto top = select_top_k(predictor, s, d, gt.candidate_options(s, d), Metric::Rtt);
    benchmark::DoNotOptimize(top.size());
  }
}
BENCHMARK(BM_TopKSelection);

void BM_BanditPick(benchmark::State& state) {
  std::vector<RankedOption> arms;
  for (int i = 0; i < 8; ++i) {
    RankedOption r;
    r.option = i;
    r.pred.valid = true;
    r.pred.mean = 100.0 + i;
    r.pred.upper = 120.0 + i;
    r.pred.lower = 90.0 + i;
    arms.push_back(r);
  }
  const BanditConfig config;
  UcbBandit bandit;
  bandit.set_arms(arms, config);
  Rng rng(9);
  for (auto _ : state) {
    const OptionId pick = bandit.pick(config);
    bandit.observe(pick, 100.0 + rng.uniform(0, 20));
    benchmark::DoNotOptimize(pick);
  }
}
BENCHMARK(BM_BanditPick);

/// Shared body for the end-to-end decision bench; `telemetry` toggles the
/// instrumented path and `health_enabled` toggles the relay-health filter,
/// so the variants differ only in those attachments.
void run_choose_per_call(benchmark::State& state, obs::Telemetry* telemetry,
                         bool health_enabled = false, std::size_t memo_budget = 0) {
  auto& gt = bench_gt();
  ViaConfig config;
  config.health.enabled = health_enabled;
  config.mem.snapshot_memo_budget = memo_budget;
  ViaPolicy policy(gt.option_table(),
                   [&](RelayId a, RelayId b) { return gt.backbone(a, b); },
                   config);
  policy.attach_telemetry(telemetry);
  // Warm up with a day of observations + refresh.
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    auto d = static_cast<AsId>(rng.uniform_index(100));
    if (d == s) d = (d + 1) % 100;
    const auto opts = gt.candidate_options(s, d);
    Observation o;
    o.id = i;
    o.time = 1000 + i;
    o.src_as = s;
    o.dst_as = d;
    o.option = opts[rng.uniform_index(opts.size())];
    o.ingress = gt.transit_ingress(s, o.option);
    o.perf = gt.sample_call(i, s, d, o.option, o.time);
    policy.observe(o);
  }
  policy.refresh(kSecondsPerDay);

  CallId next = 1'000'000;
  for (auto _ : state) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    const auto d = static_cast<AsId>((s + 1 + rng.uniform_index(99)) % 100);
    CallContext ctx;
    ctx.id = next++;
    ctx.time = kSecondsPerDay + 100;
    ctx.src_as = s;
    ctx.dst_as = d;
    ctx.key_src = s;
    ctx.key_dst = d;
    ctx.options = gt.candidate_options(s, d);
    benchmark::DoNotOptimize(policy.choose(ctx));
  }
  policy.attach_telemetry(nullptr);
}

void BM_ViaChoosePerCall(benchmark::State& state) { run_choose_per_call(state, nullptr); }
BENCHMARK(BM_ViaChoosePerCall);

/// Every pair but one over a one-entry memo budget: each call rebuilds its
/// pair's model in scratch (the §6i overflow path) and is never served warm.
void BM_ViaChooseOverBudget(benchmark::State& state) {
  run_choose_per_call(state, nullptr, false, /*memo_budget=*/1);
}
BENCHMARK(BM_ViaChooseOverBudget);

void BM_ViaChoosePerCallTelemetry(benchmark::State& state) {
  obs::Telemetry telemetry;
  run_choose_per_call(state, &telemetry);
  telemetry.registry.merge_into(obs::MetricsRegistry::process());
}
BENCHMARK(BM_ViaChoosePerCallTelemetry);

/// The choose path with the relay-health filter armed but the fleet healthy:
/// measures the steady-state cost the filter adds (one relaxed hint load).
void BM_ChooseWithHealthFilter(benchmark::State& state) {
  run_choose_per_call(state, nullptr, /*health_enabled=*/true);
}
BENCHMARK(BM_ChooseWithHealthFilter);

/// Telemetry plus request tracing at the production sampling rate (1 in
/// 64): the §6g overhead contract.  The delta against the telemetry-only
/// variant — amortized sampling branch + the occasional StagedSpan emit —
/// is exported as trace_overhead_ns and pinned in bench/thresholds.json.
void BM_ViaChoosePerCallTraced(benchmark::State& state) {
  obs::Telemetry telemetry(4096, obs::TraceConfig{.sample_rate = 64});
  run_choose_per_call(state, &telemetry);
  telemetry.registry.merge_into(obs::MetricsRegistry::process());
}
BENCHMARK(BM_ViaChoosePerCallTraced);

void BM_GroundTruthSample(benchmark::State& state) {
  auto& gt = bench_gt();
  Rng rng(13);
  CallId id = 0;
  for (auto _ : state) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    const auto d = static_cast<AsId>((s + 1 + rng.uniform_index(99)) % 100);
    benchmark::DoNotOptimize(gt.sample_call(++id, s, d, 0, 5000));
  }
}
BENCHMARK(BM_GroundTruthSample);

/// Console reporter that additionally collects per-benchmark ns/op so the
/// numbers can be written to BENCH_core.json after the suite runs.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        ns_per_op[run.benchmark_name()] = run.GetAdjustedRealTime();
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::map<std::string, double> ns_per_op;
};

bool same_run_result(const RunResult& a, const RunResult& b) {
  if (a.calls != b.calls || a.evaluated_calls != b.evaluated_calls) return false;
  for (const Metric m : kAllMetrics) {
    if (a.values[metric_index(m)] != b.values[metric_index(m)]) return false;
    if (a.pnr.pnr(m) != b.pnr.pnr(m)) return false;
  }
  return a.pnr.pnr_any() == b.pnr.pnr_any();
}

/// Medium/small-scale policy sweep run twice — serially, then through the
/// parallel runner — on pre-warmed caches, to measure end-to-end replay
/// scaling and assert the parallel results stay bit-identical.
void run_policy_sweep(bench::BenchJson& json, int threads) {
  const char* env = std::getenv("VIA_BENCH_SWEEP_SCALE");
  const std::string which = env != nullptr ? env : "small";
  if (which == "off") return;
  const Experiment::Scale scale =
      which == "medium" ? Experiment::Scale::Medium : Experiment::Scale::Small;

  Experiment exp(Experiment::default_setup(scale));
  exp.warm_caches();  // excluded from both timings: measures replay, not warm-up

  std::vector<RunSpec> specs;
  specs.push_back({"default", [&exp] { return exp.make_default(); }, {}});
  for (const Metric m : kAllMetrics) {
    specs.push_back({"via/" + std::string(metric_name(m)),
                     [&exp, m] { return exp.make_via(m); }, {}});
  }
  specs.push_back(
      {"prediction-only", [&exp] { return exp.make_prediction_only(Metric::Rtt); }, {}});
  specs.push_back({"oracle", [&exp] { return exp.make_oracle(Metric::Rtt); }, {}});

  const bench::Stopwatch serial_sw;
  std::vector<RunResult> serial;
  serial.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    auto policy = spec.make_policy();
    serial.push_back(exp.run(*policy, spec.config));
  }
  const double serial_seconds = serial_sw.seconds();

  ParallelRunner runner(threads);
  const bench::Stopwatch parallel_sw;
  const std::vector<RunResult> parallel = runner.run_all(exp, specs);
  const double parallel_seconds = parallel_sw.seconds();

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = same_run_result(serial[i], parallel[i]);
  }

  std::cout << "policy sweep (" << which << ", " << specs.size() << " runs): serial "
            << serial_seconds << "s, parallel " << parallel_seconds << "s on "
            << runner.thread_count() << " threads, speedup "
            << (parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0)
            << "x, bit-identical: " << (identical ? "yes" : "NO") << "\n";

  json.set_string("sweep_scale", which);
  json.set_int("sweep_runs", static_cast<long long>(specs.size()));
  json.set_int("sweep_threads", runner.thread_count());
  json.set("sweep_serial_seconds", serial_seconds);
  json.set("sweep_parallel_seconds", parallel_seconds);
  json.set("sweep_speedup", parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0);
  json.set_bool("sweep_identical", identical);
}

/// Concurrent decision-serving throughput: one warmed ViaPolicy configured
/// with the maximum stripe count, hammered by 1/2/4/8 threads splitting a
/// fixed budget of choose() calls (so every sweep point does the same
/// work).  Emits Mops per thread count plus the 4-thread speedup into
/// BENCH_core.json; on a single-core box the speedup degenerates to ~1x.
void run_concurrent_choose(bench::BenchJson& json) {
  auto& gt = bench_gt();
  ViaConfig config;
  config.serving_stripes = 64;
  ViaPolicy policy(
      gt.option_table(), [&](RelayId a, RelayId b) { return gt.backbone(a, b); }, config);

  // Warm up with a day of observations + refresh (same regimen as the
  // single-threaded BM_ViaChoosePerCall, so the numbers are comparable).
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    auto d = static_cast<AsId>(rng.uniform_index(100));
    if (d == s) d = (d + 1) % 100;
    const auto opts = gt.candidate_options(s, d);
    Observation o;
    o.id = i;
    o.time = 1000 + i;
    o.src_as = s;
    o.dst_as = d;
    o.option = opts[rng.uniform_index(opts.size())];
    o.ingress = gt.transit_ingress(s, o.option);
    o.perf = gt.sample_call(i, s, d, o.option, o.time);
    policy.observe(o);
  }
  policy.refresh(kSecondsPerDay);

  constexpr std::int64_t kTotalCalls = 200'000;
  double mops_1t = 0.0;
  double mops_4t = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const std::int64_t per_thread = kTotalCalls / threads;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    const bench::Stopwatch sw;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&policy, &gt, per_thread, t] {
        Rng trng(100 + static_cast<std::uint64_t>(t));
        CallId next = 2'000'000 + static_cast<CallId>(t) * 10'000'000;
        for (std::int64_t i = 0; i < per_thread; ++i) {
          const auto s = static_cast<AsId>(trng.uniform_index(100));
          const auto d = static_cast<AsId>((s + 1 + trng.uniform_index(99)) % 100);
          CallContext ctx;
          ctx.id = next++;
          ctx.time = kSecondsPerDay + 100;
          ctx.src_as = s;
          ctx.dst_as = d;
          ctx.key_src = s;
          ctx.key_dst = d;
          ctx.options = gt.candidate_options(s, d);
          benchmark::DoNotOptimize(policy.choose(ctx));
        }
      });
    }
    for (auto& w : workers) w.join();
    const double seconds = sw.seconds();
    const double mops =
        seconds > 0.0
            ? static_cast<double>(per_thread * threads) / seconds / 1e6
            : 0.0;
    std::cout << "concurrent choose: " << threads << " thread(s), "
              << per_thread * threads << " calls, " << mops << " Mops\n";
    json.set("concurrent_choose_" + std::to_string(threads) + "t_mops", mops);
    if (threads == 1) mops_1t = mops;
    if (threads == 4) mops_4t = mops;
  }
  if (mops_1t > 0.0) json.set("concurrent_choose_speedup_4t", mops_4t / mops_1t);
}

/// Reactor serving throughput (DESIGN.md §6h/§6j): one warmed ViaPolicy
/// behind the epoll reactor (2 event-loop workers), hammered by the soak
/// driver's pipelined connections.  Every point sends the same requests:
/// each round a driver thread writes an 8-deep DecisionRequest burst on
/// every connection it owns (empty options = "controller decides"), then
/// drains the 8 replies.  The client side is capped at 8 driver threads
/// regardless of the connection count, so the sweep scales *connections*
/// (and with them the per-wakeup frame batches the reactor amortizes one
/// snapshot acquire across), not client parallelism.
///
/// The 64/256/1024-connection points drive from this process (run_soak).
/// The 4096/10240-connection points exceed what one process's fd budget
/// can hold on both ends, so the client half runs in the via_soak_driver
/// child process (spawn_soak).  They are skipped when
/// VIA_BENCH_SWEEP_SCALE=small (CI smoke) — the matching threshold rows
/// live in `_optional`, so a missing key reads as an explicit SKIP, not a
/// silent pass.
///
/// Emits reactor_choose_rps_{64,256,1024,4096,10240}c
/// (requests/sec) into BENCH_core.json; set VIA_BENCH_REACTOR=off to skip.
void run_reactor_bench(bench::BenchJson& json) {
  const char* env = std::getenv("VIA_BENCH_REACTOR");
  if (env != nullptr && std::string(env) == "off") return;
  const char* scale = std::getenv("VIA_BENCH_SWEEP_SCALE");
  const bool small = scale != nullptr && std::string(scale) == "small";

  // The server side of the 10240-connection point needs >10k sockets.
  raise_fd_limit();

  auto& gt = bench_gt();
  ViaConfig config;
  config.serving_stripes = 64;
  ViaPolicy policy(
      gt.option_table(), [&](RelayId a, RelayId b) { return gt.backbone(a, b); }, config);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto s = static_cast<AsId>(rng.uniform_index(100));
    auto d = static_cast<AsId>(rng.uniform_index(100));
    if (d == s) d = (d + 1) % 100;
    const auto opts = gt.candidate_options(s, d);
    Observation o;
    o.id = i;
    o.time = 1000 + i;
    o.src_as = s;
    o.dst_as = d;
    o.option = opts[rng.uniform_index(opts.size())];
    o.ingress = gt.transit_ingress(s, o.option);
    o.perf = gt.sample_call(i, s, d, o.option, o.time);
    policy.observe(o);
  }
  policy.refresh(kSecondsPerDay);

  ServerConfig sconfig;
  sconfig.reactor_threads = 2;
  sconfig.drain_timeout_ms = 1000;
  ControllerServer server(policy, 0, sconfig);
  server.start();

  SoakConfig soak;
  soak.port = server.port();
  soak.depth = 8;
  soak.threads = 8;
  for (const int conns : {64, 256, 1024, 4096, 10240}) {
    const bool in_process = conns <= 1024;
    if (!in_process && small) {
      std::cout << "reactor choose: " << conns << " conns SKIPPED (VIA_BENCH_SWEEP_SCALE=small)\n";
      continue;
    }
    soak.connections = conns;
    soak.rounds = std::max(2, (in_process ? 32'768 : 262'144) / (conns * soak.depth));
    std::string spawn_error;
    const std::optional<SoakResult> result =
        in_process ? run_soak(soak) : spawn_soak(soak, &spawn_error);
    if (!result.has_value() || !result->ok) {
      std::cout << "reactor choose: " << conns << " conns soak FAILED: "
                << (result.has_value() ? result->error : spawn_error) << "\n";
      continue;
    }
    std::cout << "reactor choose: " << conns << " conns, " << result->received << " requests, "
              << result->rps << " req/s" << (in_process ? "\n" : " (child driver)\n");
    json.set("reactor_choose_rps_" + std::to_string(conns) + "c", result->rps);
  }
  server.stop();
}

/// Federation failover latency (DESIGN.md §6k): a 2-replica in-process
/// fleet serves a shard-routed FederatedClient; the client's shard home is
/// killed and the stopwatch runs from the kill to the first successful
/// re-homed decision on the ring successor — the health-trip plus failover
/// cost a caller actually sees.  One-shot by nature (the trip happens
/// once), so the row is warn-only in bench/thresholds.json.
void run_fed_failover_bench(bench::BenchJson& json) {
  auto& gt = bench_gt();
  FedFleetConfig cfg;
  cfg.replicas = 2;
  cfg.fed.fail_threshold = 1;
  cfg.fed.probe_period_ms = 60'000;  // the dead replica stays out of rotation
  cfg.server.drain_timeout_ms = 50;
  FedFleet fleet(
      gt.option_table(), [&](RelayId a, RelayId b) { return gt.backbone(a, b); }, cfg);
  fleet.start();

  FedClientConfig fc;
  fc.rpc.request_timeout_ms = 250;
  fc.rpc.max_retries = 1;
  fc.rpc.backoff_base_ms = 1;
  fc.rpc.backoff_max_ms = 4;
  FederatedClient client(fleet.federation(), fc);

  // A pair whose shard home is replica 0 (the one we will kill).
  AsId src = 1;
  while (client.ring().owner(as_pair_key(src, static_cast<AsId>(src + 50))) != 0) ++src;
  const AsId dst = static_cast<AsId>(src + 50);

  DecisionRequest req;
  req.time = 100;
  req.src_as = src;
  req.dst_as = dst;
  const auto cand = gt.candidate_options(src, dst);
  req.options.assign(cand.begin(), cand.end());

  // Warm the connection to the home replica first.
  req.call_id = 1;
  (void)client.request_decision(req);

  fleet.kill(0);
  const bench::Stopwatch sw;
  req.call_id = 2;
  (void)client.request_decision(req);
  const double rehome_ms = sw.seconds() * 1e3;
  const bool rehomed = client.rehomed_requests() > 0;
  std::cout << "fed failover: kill -> re-homed decision in " << rehome_ms
            << " ms (rehomed: " << (rehomed ? "yes" : "NO") << ")\n";
  if (rehomed) json.set("fed_failover_rehome_ms", rehome_ms);
}

/// Split-refresh and memo-warmth measurements (DESIGN.md §6e), taken with
/// a plain stopwatch because each phase runs once per refresh period, not
/// in a tight loop:
///   - refresh_prepare_ns: the off-path model build (harvest + tomography +
///     predictor training), run under a *shared* lock in the daemon.
///   - refresh_swap_ns: the commit — just the RCU pointer swap — which is
///     all that remains under the exclusive lock.
///   - topk_cold_ns / topk_warm_ns: first-touch per-pair model build vs the
///     memoized hit, the gap the pre-warm pipeline exists to close.
void run_refresh_split_bench(bench::BenchJson& json) {
  auto& gt = bench_gt();
  ViaPolicy policy(gt.option_table(),
                   [&](RelayId a, RelayId b) { return gt.backbone(a, b); });

  Rng rng(11);
  CallId id = 0;
  const auto feed_day = [&](TimeSec start) {
    for (int i = 0; i < 20000; ++i) {
      const auto s = static_cast<AsId>(rng.uniform_index(100));
      auto d = static_cast<AsId>(rng.uniform_index(100));
      if (d == s) d = (d + 1) % 100;
      const auto opts = gt.candidate_options(s, d);
      Observation o;
      o.id = ++id;
      o.time = start + i;
      o.src_as = s;
      o.dst_as = d;
      o.option = opts[rng.uniform_index(opts.size())];
      o.ingress = gt.transit_ingress(s, o.option);
      o.perf = gt.sample_call(o.id, s, d, o.option, o.time);
      policy.observe(o);
    }
  };

  double prepare_s = 1e30;
  double swap_s = 1e30;
  for (int round = 0; round < 3; ++round) {
    const TimeSec day = static_cast<TimeSec>(round) * kSecondsPerDay;
    feed_day(day + 1000);
    const bench::Stopwatch prepare_sw;
    policy.prepare_refresh(day + kSecondsPerDay);
    prepare_s = std::min(prepare_s, prepare_sw.seconds());
    const bench::Stopwatch swap_sw;
    policy.commit_refresh(day + kSecondsPerDay);
    swap_s = std::min(swap_s, swap_sw.seconds());
  }
  std::cout << "refresh split: prepare " << prepare_s * 1e9 << " ns, commit (swap) "
            << swap_s * 1e9 << " ns\n";
  json.set("refresh_prepare_ns", prepare_s * 1e9);
  json.set("refresh_swap_ns", swap_s * 1e9);

  // Cold vs warm per-pair model access against the just-published snapshot
  // (nothing pre-warmed here, so every pair's first touch is a real build).
  const auto model = policy.model();
  std::vector<CallContext> calls;
  for (AsId s = 0; s < 100; ++s) {
    const auto d = static_cast<AsId>((s + 7) % 100);
    if (d == s) continue;
    CallContext ctx;
    ctx.id = 5'000'000 + s;
    ctx.time = 3 * kSecondsPerDay + 100;
    ctx.src_as = s;
    ctx.dst_as = d;
    ctx.key_src = s;
    ctx.key_dst = d;
    ctx.options = gt.candidate_options(s, d);
    calls.push_back(ctx);
  }
  const bench::Stopwatch cold_sw;
  for (const CallContext& ctx : calls) {
    benchmark::DoNotOptimize(model->pair_model(ctx, nullptr).top_k.size());
  }
  const double cold_ns = cold_sw.seconds() * 1e9 / static_cast<double>(calls.size());
  constexpr int kWarmRounds = 50;
  const bench::Stopwatch warm_sw;
  for (int r = 0; r < kWarmRounds; ++r) {
    for (const CallContext& ctx : calls) {
      benchmark::DoNotOptimize(model->pair_model(ctx, nullptr).top_k.size());
    }
  }
  const double warm_ns =
      warm_sw.seconds() * 1e9 / static_cast<double>(calls.size() * kWarmRounds);
  std::cout << "pair model: cold " << cold_ns << " ns, warm " << warm_ns << " ns ("
            << calls.size() << " pairs)\n";
  json.set("topk_cold_ns", cold_ns);
  json.set("topk_warm_ns", warm_ns);
}

}  // namespace
}  // namespace via

// Expanded BENCHMARK_MAIN(): after the suite runs, dump the process-wide
// telemetry registry (fed by the *Telemetry variants) as one JSON line so
// harnesses diffing bench output see decision counts alongside timings, then
// run the serial-vs-parallel policy sweep and write BENCH_core.json.
int main(int argc, char** argv) {
  const int threads = via::bench::parse_threads(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  via::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  std::cout << "{\"telemetry\":";
  via::obs::render_json(via::obs::MetricsRegistry::process().snapshot(), std::cout);
  std::cout << "}\n";

  via::bench::BenchJson json;
  // Core count of the box that produced this run: tools/check_bench.py uses
  // it to downgrade multicore-only rows (sweep_speedup, the multi-thread
  // mops points) to warnings on single-core CI runners, where parallel
  // speedups legitimately degenerate to ~1x or below.
  json.set_int("cores", static_cast<long long>(std::thread::hardware_concurrency()));
  // ns/op for the decision-path hot loops (absent keys = benchmark filtered out).
  const std::map<std::string, std::string> tracked = {
      {"BM_ViaChoosePerCall", "choose_ns"},
      {"BM_ViaChooseOverBudget", "choose_over_budget_ns"},
      {"BM_ViaChoosePerCallTelemetry", "choose_telemetry_ns"},
      {"BM_ViaChoosePerCallTraced", "choose_traced_ns"},
      {"BM_ChooseWithHealthFilter", "choose_health_ns"},
      {"BM_TopKSelection", "topk_ns"},
      {"BM_TomographySolve/10000", "tomography_solve_10k_ns"},
      {"BM_TomographySolveThreads/1", "tomography_solve_threads_1_ns"},
      {"BM_TomographySolveThreads/2", "tomography_solve_threads_2_ns"},
      {"BM_TomographySolveThreads/4", "tomography_solve_threads_4_ns"},
      {"BM_TomographySolveThreads/8", "tomography_solve_threads_8_ns"},
      {"BM_HistoryIngest", "history_ingest_ns"},
      {"BM_GroundTruthSample", "groundtruth_sample_ns"},
  };
  for (const auto& [bench_name, key] : tracked) {
    const auto it = reporter.ns_per_op.find(bench_name);
    if (it != reporter.ns_per_op.end()) json.set(key, it->second);
  }
  // Tracing cost in isolation (§6g): traced-at-1/64 minus telemetry-only,
  // floored at zero since the delta sits inside run-to-run noise.
  {
    const auto traced = reporter.ns_per_op.find("BM_ViaChoosePerCallTraced");
    const auto telem = reporter.ns_per_op.find("BM_ViaChoosePerCallTelemetry");
    if (traced != reporter.ns_per_op.end() && telem != reporter.ns_per_op.end()) {
      json.set("trace_overhead_ns", std::max(0.0, traced->second - telem->second));
    }
  }
  via::run_policy_sweep(json, threads);
  via::run_concurrent_choose(json);
  via::run_reactor_bench(json);
  via::run_fed_failover_bench(json);
  via::run_refresh_split_bench(json);
  const std::string path = via::bench::bench_json_path();
  json.write(path);
  std::cout << "[wrote " << path << "]\n";
  return 0;
}
