// Concurrency tests for the split controller (ModelSnapshot +
// PairStateStore + shared-lock RPC serving):
//   - golden replays proving the refactor kept single-threaded decisions
//     bit-identical (FNV-1a hash over every chosen option),
//   - telemetry reason counters reconciling exactly with policy stats,
//   - multi-threaded choose/observe hammering with interleaved refreshes,
//   - the relay-share cap invariant under contention,
//   - multi-client RPC stress and handler-thread reaping.
// The multi-threaded tests here also run under TSan in CI (tools/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/via_policy.h"
#include "obs/telemetry.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "util/rng.h"

namespace via {
namespace {

// ------------------------------------------------------- golden replays

/// A fixed three-period serve/observe/refresh scenario.  The expected
/// hashes and counters below were captured from the pre-split ViaPolicy
/// (single monolithic class, one RNG stream, coarse locking); the split
/// implementation must reproduce them bit for bit with the default single
/// serving stripe.
struct GoldenScenario {
  RelayOptionTable options;
  std::vector<OptionId> bounces;
  OptionId transit01 = kInvalidOption;
  OptionId transit23 = kInvalidOption;
  std::vector<std::vector<OptionId>> pair_options;  // candidate set per pair
  std::vector<std::pair<AsId, AsId>> pairs;

  GoldenScenario() {
    for (RelayId r = 0; r < 6; ++r) bounces.push_back(options.intern_bounce(r));
    transit01 = options.intern_transit(0, 1);
    transit23 = options.intern_transit(2, 3);
    pairs = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
    const OptionId direct = RelayOptionTable::direct_id();
    pair_options = {
        {direct, bounces[0], bounces[1], transit01},
        {direct, bounces[2], bounces[3], transit23},
        {direct, bounces[4], bounces[5]},
        {direct, bounces[0], bounces[3], transit01, transit23},
    };
  }

  [[nodiscard]] ViaConfig constrained_config() const {
    ViaConfig c;
    c.epsilon = 0.1;
    c.seed = 42;
    c.budget = {.fraction = 0.3, .aware = true};
    c.relay_share_cap = 0.4;
    return c;
  }

  [[nodiscard]] ViaConfig unconstrained_config() const {
    ViaConfig c;
    c.epsilon = 0.1;
    c.seed = 42;
    return c;
  }

  [[nodiscard]] static BackboneFn backbone() {
    return [](RelayId, RelayId) { return PathPerformance{10.0, 0.1, 1.0}; };
  }

  /// Deterministic synthetic cost for (pair, option, period, step): the
  /// direct path is slow, bounce quality varies per pair/period.
  [[nodiscard]] static double cost(std::size_t pair_idx, OptionId opt, int period, int step) {
    if (opt == RelayOptionTable::direct_id()) {
      return 260.0 + 5.0 * static_cast<double>(pair_idx) + static_cast<double>(step % 7);
    }
    const auto base = 90.0 + 13.0 * static_cast<double>((opt * 7 + period * 3) % 11);
    return base + static_cast<double>(pair_idx) + static_cast<double>(step % 5);
  }

  /// Runs the full scenario; returns an FNV-1a hash of every chosen option
  /// in sequence (the strongest possible bit-identical signature).  With
  /// `split_refresh` the periodic rebuild goes through the §6e
  /// prepare/commit protocol instead of the monolithic refresh() — the
  /// hash must not notice.
  std::uint64_t run(ViaPolicy& policy, bool split_refresh = false) {
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    auto fold = [&fnv](std::uint64_t v) {
      fnv ^= v;
      fnv *= 0x100000001b3ULL;
    };
    CallId next_id = 1;
    for (int period = 0; period < 3; ++period) {
      // Seed history: every pair observes every candidate a few times.
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        for (int rep = 0; rep < 5; ++rep) {
          for (const OptionId opt : pair_options[p]) {
            Observation o;
            o.id = next_id++;
            o.time = period * kSecondsPerDay + rep;
            o.src_as = pairs[p].first;
            o.dst_as = pairs[p].second;
            o.option = opt;
            const double c = cost(p, opt, period, rep);
            o.perf = {c, c / 100.0, c / 20.0};
            policy.observe(o);
          }
        }
      }
      if (split_refresh) {
        policy.prepare_refresh((period + 1) * kSecondsPerDay);
        policy.commit_refresh((period + 1) * kSecondsPerDay);
      } else {
        policy.refresh((period + 1) * kSecondsPerDay);
      }
      // Serve a burst of calls round-robin over the pairs; report back a
      // deterministic measurement for whatever option was chosen.
      for (int step = 0; step < 100; ++step) {
        const std::size_t p = static_cast<std::size_t>(step) % pairs.size();
        CallContext ctx;
        ctx.id = next_id++;
        ctx.time = (period + 1) * kSecondsPerDay + step;
        ctx.src_as = pairs[p].first;
        ctx.dst_as = pairs[p].second;
        ctx.key_src = ctx.src_as;
        ctx.key_dst = ctx.dst_as;
        ctx.options = pair_options[p];
        const OptionId pick = policy.choose(ctx);
        fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(pick)));
        Observation o;
        o.id = ctx.id;
        o.time = ctx.time;
        o.src_as = ctx.src_as;
        o.dst_as = ctx.dst_as;
        o.option = pick;
        const double c = cost(p, pick, period, step) + 1.0;
        o.perf = {c, c / 100.0, c / 20.0};
        policy.observe(o);
      }
    }
    return fnv;
  }

  [[nodiscard]] CallContext context_for(std::size_t pair_idx) const {
    CallContext ctx;
    ctx.src_as = pairs[pair_idx].first;
    ctx.dst_as = pairs[pair_idx].second;
    ctx.key_src = ctx.src_as;
    ctx.key_dst = ctx.dst_as;
    ctx.options = pair_options[pair_idx];
    return ctx;
  }
};

// Captured from the pre-refactor implementation (see header comment).
constexpr std::uint64_t kConstrainedGoldenHash = 0x081ebbb1bb3f2bf0ULL;
constexpr std::uint64_t kUnconstrainedGoldenHash = 0x10d901253bfb3963ULL;

TEST(GoldenReplay, ConstrainedBitIdentical) {
  GoldenScenario scenario;
  ViaPolicy policy(scenario.options, GoldenScenario::backbone(), scenario.constrained_config());
  EXPECT_EQ(scenario.run(policy), kConstrainedGoldenHash);

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_EQ(s.calls, 300);
  EXPECT_EQ(s.epsilon_explored, 23);
  EXPECT_EQ(s.bandit_served, 30);
  EXPECT_EQ(s.cold_start_direct, 0);
  EXPECT_EQ(s.budget_denied, 208);
  EXPECT_EQ(s.relay_cap_denied, 39);
  EXPECT_EQ(s.chose_direct, 255);
  EXPECT_EQ(s.chose_bounce, 13);
  EXPECT_EQ(s.chose_transit, 32);

  // top_k_for is const now that the per-pair model lives in the published
  // immutable snapshot.
  const ViaPolicy& const_policy = policy;
  for (std::size_t p = 0; p < scenario.pairs.size(); ++p) {
    EXPECT_EQ(const_policy.top_k_for(scenario.context_for(p)).size(), 1u) << "pair " << p;
  }
}

TEST(GoldenReplay, UnconstrainedBitIdentical) {
  GoldenScenario scenario;
  ViaPolicy policy(scenario.options, GoldenScenario::backbone(),
                   scenario.unconstrained_config());
  EXPECT_EQ(scenario.run(policy), kUnconstrainedGoldenHash);

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_EQ(s.calls, 300);
  EXPECT_EQ(s.epsilon_explored, 33);
  EXPECT_EQ(s.bandit_served, 267);
  EXPECT_EQ(s.cold_start_direct, 0);
  EXPECT_EQ(s.budget_denied, 0);
  EXPECT_EQ(s.relay_cap_denied, 0);
  EXPECT_EQ(s.chose_direct, 8);
  EXPECT_EQ(s.chose_bounce, 166);
  EXPECT_EQ(s.chose_transit, 126);

  const ViaPolicy& const_policy = policy;
  const std::vector<std::size_t> expected_topk = {1, 3, 1, 1};
  for (std::size_t p = 0; p < scenario.pairs.size(); ++p) {
    EXPECT_EQ(const_policy.top_k_for(scenario.context_for(p)).size(), expected_topk[p])
        << "pair " << p;
  }
}

TEST(GoldenReplay, SplitRefreshBitIdentical) {
  // The prepare/commit split replays the exact same decisions as the
  // monolithic refresh — both configs, against the pre-refactor hashes.
  {
    GoldenScenario scenario;
    ViaPolicy policy(scenario.options, GoldenScenario::backbone(),
                     scenario.constrained_config());
    EXPECT_EQ(scenario.run(policy, /*split_refresh=*/true), kConstrainedGoldenHash);
  }
  {
    GoldenScenario scenario;
    ViaPolicy policy(scenario.options, GoldenScenario::backbone(),
                     scenario.unconstrained_config());
    EXPECT_EQ(scenario.run(policy, /*split_refresh=*/true), kUnconstrainedGoldenHash);
  }
}

TEST(GoldenReplay, PrewarmedMemosDecideIdentically) {
  // Pre-warming only pre-builds memo entries that are pure functions of
  // (snapshot, pair, candidate set); every decision — and therefore the
  // golden hash — is unchanged.
  GoldenScenario scenario;
  ViaConfig config = scenario.unconstrained_config();
  config.prewarm_pairs = true;
  ViaPolicy policy(scenario.options, GoldenScenario::backbone(), config);
  EXPECT_EQ(scenario.run(policy, /*split_refresh=*/true), kUnconstrainedGoldenHash);
}

TEST(GoldenReplay, ParallelSolveKeepsGoldenHash) {
  // The parallel tomography solve is bit-identical to serial (segment
  // partitioning, see tomography.h), so a wide solver must replay the same
  // golden hash as solve_threads = 1.
  GoldenScenario scenario;
  ViaConfig config = scenario.constrained_config();
  config.predictor.tomography.solve_threads = 4;
  ViaPolicy policy(scenario.options, GoldenScenario::backbone(), config);
  EXPECT_EQ(scenario.run(policy), kConstrainedGoldenHash);
}

/// §6f: an *enabled* health tracker that never sees a failure must be a
/// pure no-op on the decision flow — same RNG draws, same picks, same
/// hash as the pre-health goldens.  (Scenario observations top out around
/// 267ms RTT / 2.7% loss, far under the catastrophic thresholds.)
TEST(GoldenReplay, HealthEnabledHealthyFleetBitIdentical) {
  GoldenScenario scenario;
  {
    ViaConfig config = scenario.constrained_config();
    config.health.enabled = true;
    ViaPolicy policy(scenario.options, GoldenScenario::backbone(), config);
    EXPECT_EQ(scenario.run(policy), kConstrainedGoldenHash);
    EXPECT_EQ(policy.stats().quarantine_rerouted, 0);
  }
  {
    ViaConfig config = scenario.unconstrained_config();
    config.health.enabled = true;
    ViaPolicy policy(scenario.options, GoldenScenario::backbone(), config);
    EXPECT_EQ(scenario.run(policy), kUnconstrainedGoldenHash);
  }
}

TEST(GoldenReplay, TelemetryReasonCountersReconcileWithStats) {
  GoldenScenario scenario;
  ViaPolicy policy(scenario.options, GoldenScenario::backbone(), scenario.constrained_config());
  obs::Telemetry telemetry;
  policy.attach_telemetry(&telemetry);
  // Attached telemetry must not perturb decisions.
  EXPECT_EQ(scenario.run(policy), kConstrainedGoldenHash);
  policy.attach_telemetry(nullptr);

  const ViaPolicy::Stats s = policy.stats();
  obs::MetricsRegistry& r = telemetry.registry;
  EXPECT_EQ(r.counter("policy.decision.ucb").value(), s.bandit_served);
  EXPECT_EQ(r.counter("policy.decision.epsilon_explore").value(), s.epsilon_explored);
  EXPECT_EQ(r.counter("policy.decision.budget_veto").value(),
            s.budget_denied + s.relay_cap_denied);
  EXPECT_EQ(r.counter("policy.decision.fallback_direct").value(), s.cold_start_direct);
  // Every routed call is tallied under exactly one reason and one kind.
  EXPECT_EQ(s.epsilon_explored + s.bandit_served + s.cold_start_direct + s.budget_denied +
                s.relay_cap_denied,
            s.calls);
  EXPECT_EQ(s.chose_direct + s.chose_bounce + s.chose_transit, s.calls);
}

// --------------------------------------------- concurrent serving state

/// A wider option universe for the hammer tests: 32 AS pairs, each with a
/// small distinct candidate set over 10 relays.
struct HammerWorld {
  RelayOptionTable options;
  std::vector<std::pair<AsId, AsId>> pairs;
  std::vector<std::vector<OptionId>> pair_options;

  HammerWorld() {
    std::vector<OptionId> bounces;
    for (RelayId r = 0; r < 10; ++r) bounces.push_back(options.intern_bounce(r));
    const OptionId t01 = options.intern_transit(0, 1);
    const OptionId t23 = options.intern_transit(2, 3);
    const OptionId direct = RelayOptionTable::direct_id();
    for (int p = 0; p < 32; ++p) {
      pairs.emplace_back(static_cast<AsId>(100 + p), static_cast<AsId>(200 + p));
      std::vector<OptionId> opts = {direct, bounces[static_cast<std::size_t>(p) % 10],
                                    bounces[static_cast<std::size_t>(p + 3) % 10]};
      if (p % 2 == 0) opts.push_back(t01);
      if (p % 3 == 0) opts.push_back(t23);
      pair_options.push_back(std::move(opts));
    }
  }

  [[nodiscard]] CallContext context_for(std::size_t pair_idx, CallId id, TimeSec time) const {
    CallContext ctx;
    ctx.id = id;
    ctx.time = time;
    ctx.src_as = pairs[pair_idx].first;
    ctx.dst_as = pairs[pair_idx].second;
    ctx.key_src = ctx.src_as;
    ctx.key_dst = ctx.dst_as;
    ctx.options = pair_options[pair_idx];
    return ctx;
  }

  [[nodiscard]] static double cost(std::size_t pair_idx, OptionId opt) {
    if (opt == RelayOptionTable::direct_id()) return 200.0 + static_cast<double>(pair_idx);
    return 80.0 + 11.0 * static_cast<double>(opt % 13) + static_cast<double>(pair_idx);
  }
};

/// N worker threads hammer choose+observe while the main thread runs
/// periodic refreshes; workers take the policy lock shared (the RPC
/// server's locking discipline for a concurrent-safe policy), refreshes
/// take it exclusive.  Afterwards the decision-reason counters must sum
/// exactly to the number of routed calls.
TEST(ConcurrentPolicy, HammerChooseObserveWithRefreshes) {
  HammerWorld world;
  ViaConfig config;
  config.epsilon = 0.1;
  config.seed = 7;
  config.serving_stripes = 16;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      config);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 2000;
  std::shared_mutex policy_lock;  // refresh exclusion, as in the RPC server
  std::atomic<CallId> next_id{1};
  std::atomic<bool> stop_refreshing{false};

  auto worker = [&](int t) {
    Rng rng(1000 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kCallsPerThread; ++i) {
      const auto p = static_cast<std::size_t>(rng.uniform_index(world.pairs.size()));
      const CallId id = next_id.fetch_add(1);
      const CallContext ctx = world.context_for(p, id, static_cast<TimeSec>(i));
      OptionId pick = kInvalidOption;
      {
        const std::shared_lock lock(policy_lock);
        pick = policy.choose(ctx);
      }
      Observation o;
      o.id = id;
      o.time = ctx.time;
      o.src_as = ctx.src_as;
      o.dst_as = ctx.dst_as;
      o.option = pick;
      const double c = HammerWorld::cost(p, pick);
      o.perf = {c, c / 100.0, c / 20.0};
      {
        const std::shared_lock lock(policy_lock);
        policy.observe(o);
      }
    }
  };

  std::thread refresher([&] {
    while (!stop_refreshing.load()) {
      {
        const std::unique_lock lock(policy_lock);
        policy.refresh(0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  stop_refreshing.store(true);
  refresher.join();

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_EQ(s.calls, kThreads * kCallsPerThread);
  EXPECT_EQ(s.epsilon_explored + s.bandit_served + s.cold_start_direct + s.budget_denied +
                s.relay_cap_denied,
            s.calls);
  EXPECT_EQ(s.chose_direct + s.chose_bounce + s.chose_transit, s.calls);
}

/// Same hammer, but racing the §6e background pipeline: a builder thread
/// runs prepare_refresh() under the *shared* lock (concurrent with the
/// choose/observe workers, exactly the RPC server's discipline) and only
/// commit_refresh() exclusively.  Pre-warm and the multi-threaded solver
/// are both on, so the prepare path TSan covers is the full production
/// one.
TEST(ConcurrentPolicy, HammerRacesBackgroundPrepare) {
  HammerWorld world;
  ViaConfig config;
  config.epsilon = 0.1;
  config.seed = 13;
  config.serving_stripes = 16;
  config.prewarm_pairs = true;
  config.predictor.tomography.solve_threads = 2;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      config);

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 1500;
  std::shared_mutex policy_lock;
  std::atomic<CallId> next_id{1};
  std::atomic<bool> stop_refreshing{false};

  auto worker = [&](int t) {
    Rng rng(2000 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kCallsPerThread; ++i) {
      const auto p = static_cast<std::size_t>(rng.uniform_index(world.pairs.size()));
      const CallId id = next_id.fetch_add(1);
      const CallContext ctx = world.context_for(p, id, static_cast<TimeSec>(i));
      OptionId pick = kInvalidOption;
      {
        const std::shared_lock lock(policy_lock);
        pick = policy.choose(ctx);
      }
      Observation o;
      o.id = id;
      o.time = ctx.time;
      o.src_as = ctx.src_as;
      o.dst_as = ctx.dst_as;
      o.option = pick;
      const double c = HammerWorld::cost(p, pick);
      o.perf = {c, c / 100.0, c / 20.0};
      {
        const std::shared_lock lock(policy_lock);
        policy.observe(o);
      }
    }
  };

  std::thread builder([&] {
    TimeSec now = 0;
    while (!stop_refreshing.load()) {
      {
        const std::shared_lock lock(policy_lock);  // serving keeps flowing
        policy.prepare_refresh(now);
      }
      {
        const std::unique_lock lock(policy_lock);  // just the pointer swap
        policy.commit_refresh(now);
      }
      now += kSecondsPerDay;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  stop_refreshing.store(true);
  builder.join();

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_EQ(s.calls, kThreads * kCallsPerThread);
  EXPECT_EQ(s.epsilon_explored + s.bandit_served + s.cold_start_direct + s.budget_denied +
                s.relay_cap_denied,
            s.calls);
  EXPECT_EQ(s.chose_direct + s.chose_bounce + s.chose_transit, s.calls);
}

/// §6f under contention: eight serving threads hammer choose/observe while
/// a saboteur thread concurrently flips two relays in and out of
/// quarantine with bursts of catastrophic / clean observations.  TSan
/// covers the tracker's relaxed hot-path load racing its locked
/// transitions; the reason accounting must stay exactly total, now
/// including the health reasons.
TEST(ConcurrentPolicy, HammerWithConcurrentQuarantineFlips) {
  HammerWorld world;
  ViaConfig config;
  config.epsilon = 0.1;
  config.seed = 7;
  config.serving_stripes = 16;
  config.health.enabled = true;
  config.health.degrade_after = 1;
  config.health.quarantine_after = 2;
  config.health.quarantine_period = 40;  // short: expires within the run
  config.health.probation_successes = 1;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      config);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 1500;
  std::shared_mutex policy_lock;
  std::atomic<CallId> next_id{1};
  std::atomic<bool> stop_saboteur{false};

  auto worker = [&](int t) {
    Rng rng(3000 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kCallsPerThread; ++i) {
      const auto p = static_cast<std::size_t>(rng.uniform_index(world.pairs.size()));
      const CallId id = next_id.fetch_add(1);
      const CallContext ctx = world.context_for(p, id, static_cast<TimeSec>(i));
      OptionId pick = kInvalidOption;
      {
        const std::shared_lock lock(policy_lock);
        pick = policy.choose(ctx);
      }
      Observation o;
      o.id = id;
      o.time = ctx.time;
      o.src_as = ctx.src_as;
      o.dst_as = ctx.dst_as;
      o.option = pick;
      const double c = HammerWorld::cost(p, pick);
      o.perf = {c, c / 100.0, c / 20.0};
      {
        const std::shared_lock lock(policy_lock);
        policy.observe(o);
      }
    }
  };

  // Alternating catastrophic and clean bursts for two bounce options:
  // quarantine, expire, probation, re-admit, re-quarantine — the full
  // state machine, concurrent with serving.
  std::thread saboteur([&] {
    TimeSec now = 0;
    while (!stop_saboteur.load()) {
      for (const std::size_t p : {std::size_t{0}, std::size_t{1}}) {
        const OptionId victim = world.pair_options[p][1];  // a bounce option
        for (int burst = 0; burst < 3; ++burst) {
          Observation o;
          o.id = next_id.fetch_add(1);
          o.time = now;
          o.src_as = world.pairs[p].first;
          o.dst_as = world.pairs[p].second;
          o.option = victim;
          o.perf = burst < 2 ? PathPerformance{5000.0, 100.0, 50.0}
                             : PathPerformance{50.0, 0.1, 1.0};
          const std::shared_lock lock(policy_lock);
          policy.observe(o);
        }
      }
      now += 25;  // walks through block expiries
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  stop_saboteur.store(true);
  saboteur.join();

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_EQ(s.calls, kThreads * kCallsPerThread);
  EXPECT_EQ(s.epsilon_explored + s.bandit_served + s.cold_start_direct + s.budget_denied +
                s.relay_cap_denied + s.quarantine_rerouted + s.outage_fallback_direct,
            s.calls);
  EXPECT_EQ(s.chose_direct + s.chose_bounce + s.chose_transit, s.calls);
  // The saboteur's bursts actually drove the state machine.
  EXPECT_GT(policy.relay_health().quarantine_events(), 0);
}

/// Pre-warm actually front-loads the per-pair builds: after a prepared +
/// committed refresh, every pair that carried traffic last period already
/// has its memo in the *new* snapshot, before any call touches it.
TEST(ConcurrentPolicy, PrewarmBuildsPairModelsBeforeFirstCall) {
  HammerWorld world;
  ViaConfig config;
  config.epsilon = 0.0;
  config.seed = 5;
  config.serving_stripes = 16;
  config.prewarm_pairs = true;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      config);

  // Period 1: observe every candidate, refresh, then serve one call per
  // pair so the serving state records each pair's pre-warm context.
  CallId next_id = 1;
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    for (const OptionId opt : world.pair_options[p]) {
      for (int rep = 0; rep < 3; ++rep) {
        Observation o;
        o.id = next_id++;
        o.time = rep;
        o.src_as = world.pairs[p].first;
        o.dst_as = world.pairs[p].second;
        o.option = opt;
        const double c = HammerWorld::cost(p, opt);
        o.perf = {c, c / 100.0, c / 20.0};
        policy.observe(o);
      }
    }
  }
  policy.refresh(kSecondsPerDay);
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    (void)policy.choose(world.context_for(p, next_id++, kSecondsPerDay + 1));
  }

  // Period 2: more traffic, then the split refresh.  Immediately after the
  // commit — zero post-refresh calls — the published snapshot must already
  // hold a model for every active pair.
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    Observation o;
    o.id = next_id++;
    o.time = kSecondsPerDay + 100;
    o.src_as = world.pairs[p].first;
    o.dst_as = world.pairs[p].second;
    o.option = world.pair_options[p][1];
    o.perf = {90.0, 0.9, 4.5};
    policy.observe(o);
  }
  policy.prepare_refresh(2 * kSecondsPerDay);
  policy.commit_refresh(2 * kSecondsPerDay);
  EXPECT_EQ(policy.model()->period(), 2u);
  EXPECT_GE(policy.model()->pair_models_built(), world.pairs.size());

  // And the pre-built models are what lazy fill would have produced: the
  // pick for each pair matches a fresh identically-configured policy that
  // replays the same sequence without pre-warming.
  ViaConfig lazy_config = config;
  lazy_config.prewarm_pairs = false;
  ViaPolicy lazy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      lazy_config);
  CallId lazy_id = 1;
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    for (const OptionId opt : world.pair_options[p]) {
      for (int rep = 0; rep < 3; ++rep) {
        Observation o;
        o.id = lazy_id++;
        o.time = rep;
        o.src_as = world.pairs[p].first;
        o.dst_as = world.pairs[p].second;
        o.option = opt;
        const double c = HammerWorld::cost(p, opt);
        o.perf = {c, c / 100.0, c / 20.0};
        lazy.observe(o);
      }
    }
  }
  lazy.refresh(kSecondsPerDay);
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    (void)lazy.choose(world.context_for(p, lazy_id++, kSecondsPerDay + 1));
  }
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    Observation o;
    o.id = lazy_id++;
    o.time = kSecondsPerDay + 100;
    o.src_as = world.pairs[p].first;
    o.dst_as = world.pairs[p].second;
    o.option = world.pair_options[p][1];
    o.perf = {90.0, 0.9, 4.5};
    lazy.observe(o);
  }
  lazy.refresh(2 * kSecondsPerDay);
  EXPECT_EQ(lazy.model()->pair_models_built(), 0u);  // still all-lazy
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    const CallContext warm_ctx = world.context_for(p, 900000 + p, 2 * kSecondsPerDay + 1);
    const CallContext lazy_ctx = world.context_for(p, 900000 + p, 2 * kSecondsPerDay + 1);
    EXPECT_EQ(policy.choose(warm_ctx), lazy.choose(lazy_ctx)) << "pair " << p;
  }
}

/// With the relay-share cap enabled, no relay may carry more than
/// cap * (relayed calls) + warm-up slack — tallied *client-side* from the
/// returned picks, so the check-then-account critical section is what is
/// actually under test.
TEST(ConcurrentPolicy, RelayShareCapHoldsUnderContention) {
  HammerWorld world;
  ViaConfig config;
  config.epsilon = 0.2;  // plenty of relayed traffic
  config.seed = 11;
  config.serving_stripes = 16;
  config.relay_share_cap = 0.25;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      config);

  // Warm the model so the bandit actually relays.
  CallId next_id = 1;
  for (std::size_t p = 0; p < world.pairs.size(); ++p) {
    for (const OptionId opt : world.pair_options[p]) {
      for (int rep = 0; rep < 3; ++rep) {
        Observation o;
        o.id = next_id++;
        o.time = rep;
        o.src_as = world.pairs[p].first;
        o.dst_as = world.pairs[p].second;
        o.option = opt;
        const double c = HammerWorld::cost(p, opt);
        o.perf = {c, c / 100.0, c / 20.0};
        policy.observe(o);
      }
    }
  }
  policy.refresh(kSecondsPerDay);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 1500;
  std::atomic<CallId> ids{100000};
  // Client-side per-relay tally: bounce loads its relay, transit both.
  constexpr std::size_t kMaxRelay = 16;
  std::vector<std::atomic<std::int64_t>> load(kMaxRelay);
  std::atomic<std::int64_t> relayed{0};

  auto worker = [&](int t) {
    Rng rng(500 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kCallsPerThread; ++i) {
      const auto p = static_cast<std::size_t>(rng.uniform_index(world.pairs.size()));
      const CallContext ctx =
          world.context_for(p, ids.fetch_add(1), kSecondsPerDay + static_cast<TimeSec>(i));
      const OptionId pick = policy.choose(ctx);
      const RelayOption& o = world.options.get(pick);
      if (o.kind == RelayKind::Direct) continue;
      relayed.fetch_add(1);
      load[static_cast<std::size_t>(o.a)].fetch_add(1);
      if (o.kind == RelayKind::Transit) load[static_cast<std::size_t>(o.b)].fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  const auto total = static_cast<double>(relayed.load());
  ASSERT_GT(total, 100.0);  // the scenario must actually relay
  for (std::size_t r = 0; r < kMaxRelay; ++r) {
    // 20-call warm-up window + the final accounted call of slack.
    EXPECT_LE(static_cast<double>(load[r].load()), 0.25 * total + 21.0) << "relay " << r;
  }
}

// ----------------------------------------------------- RPC server layer

TEST(ConcurrentRpc, MultiClientStressMatchesServerCounts) {
  HammerWorld world;
  ViaConfig config;
  config.epsilon = 0.1;
  config.seed = 3;
  config.serving_stripes = 16;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{5.0, 0.05, 0.5}; },
      config);
  ControllerServer server(policy);
  server.start();

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 250;
  std::atomic<std::int64_t> client_decisions{0};
  std::atomic<std::int64_t> client_reports{0};

  auto client_fn = [&](int t) {
    ControllerClient client(server.port());
    Rng rng(900 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kCallsPerClient; ++i) {
      const auto p = static_cast<std::size_t>(rng.uniform_index(world.pairs.size()));
      DecisionRequest req;
      req.call_id = static_cast<CallId>(t) * 1000000 + static_cast<CallId>(i);
      req.time = i;
      req.src_as = world.pairs[p].first;
      req.dst_as = world.pairs[p].second;
      req.options = world.pair_options[p];
      const OptionId pick = client.request_decision(req);
      client_decisions.fetch_add(1);
      Observation o;
      o.id = req.call_id;
      o.time = req.time;
      o.src_as = req.src_as;
      o.dst_as = req.dst_as;
      o.option = pick;
      const double c = HammerWorld::cost(p, pick);
      o.perf = {c, c / 100.0, c / 20.0};
      client.report(o);
      client_reports.fetch_add(1);
      if (t == 0 && i % 100 == 99) client.refresh((i / 100) * kSecondsPerDay);
    }
    client.shutdown();
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) clients.emplace_back(client_fn, t);
  for (auto& t : clients) t.join();

  EXPECT_EQ(server.decisions_served(), client_decisions.load());
  EXPECT_EQ(server.reports_received(), client_reports.load());
  EXPECT_EQ(server.decisions_served(), kClients * kCallsPerClient);

  // The live-load gauge is registered and visible over GetStats.
  ControllerClient stats_client(server.port());
  const std::string stats = stats_client.get_stats(obs::StatsFormat::Json);
  EXPECT_NE(stats.find("rpc.server.inflight"), std::string::npos);
  // The exclusive-section histogram is registered and saw the refreshes
  // that went through the background builder.
  EXPECT_NE(stats.find("rpc.server.refresh_stall_us"), std::string::npos);
  stats_client.shutdown();

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_EQ(s.calls, server.decisions_served());
  server.stop();
}

TEST(ConcurrentRpc, HandlerThreadsAreReaped) {
  RelayOptionTable options;
  (void)options.intern_bounce(0);
  ViaConfig config;
  config.serving_stripes = 4;
  ViaPolicy policy(
      options, [](RelayId, RelayId) { return PathPerformance{}; }, config);
  ControllerServer server(policy);
  server.start();

  // Sequential short-lived connections: each must drop out of the live
  // connection count once its client disconnects, not accumulate until
  // stop().
  for (int i = 0; i < 12; ++i) {
    ControllerClient client(server.port());
    (void)client.get_stats(obs::StatsFormat::Json);
    client.shutdown();
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_handlers() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.active_handlers(), 0u);
  server.stop();
}

}  // namespace
}  // namespace via
