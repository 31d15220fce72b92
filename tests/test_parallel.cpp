// Parallel experiment runner: determinism against serial execution, thread
// pool behavior, and concurrent GroundTruth access.
#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "netsim/groundtruth.h"
#include "netsim/world.h"
#include "sim/experiment.h"
#include "util/flat_map.h"
#include "util/thread_pool.h"

namespace via {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.submit([] {});
  pool.wait_idle();
}

TEST(ThreadPool, DefaultThreadsIsPositive) { EXPECT_GE(ThreadPool::default_threads(), 1); }

TEST(FlatMap, InsertFindClearRoundTrip) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  for (std::uint64_t k = 0; k < 1000; ++k) map[k * 7919] = static_cast<int>(k);
  EXPECT_EQ(map.size(), 1000U);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const int* v = map.find(k * 7919);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(map.find(7919 * 1000), nullptr);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  // Reinserted keys start from a default-constructed value.
  EXPECT_EQ(map[7919], 0);
}

TEST(FlatMap, IterationIsDeterministicForIdenticalInsertionSequences) {
  FlatMap<std::uint64_t> a;
  FlatMap<std::uint64_t> b;
  for (std::uint64_t k = 1; k <= 300; ++k) {
    a[k * k] = k;
    b[k * k] = k;
  }
  std::vector<std::uint64_t> order_a;
  std::vector<std::uint64_t> order_b;
  a.for_each([&](std::uint64_t key, const std::uint64_t&) { order_a.push_back(key); });
  b.for_each([&](std::uint64_t key, const std::uint64_t&) { order_b.push_back(key); });
  EXPECT_EQ(order_a, order_b);
}

// ------------------------------------------------------ determinism suite

/// Counter samples must match exactly; gauges/histograms are excluded
/// because engine.run_seconds and engine.choose_ns measure wall-clock.
void expect_same_counters(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.telemetry.counters.size(), b.telemetry.counters.size());
  for (std::size_t i = 0; i < a.telemetry.counters.size(); ++i) {
    EXPECT_EQ(a.telemetry.counters[i].name, b.telemetry.counters[i].name);
    EXPECT_EQ(a.telemetry.counters[i].value, b.telemetry.counters[i].value)
        << "counter " << a.telemetry.counters[i].name;
  }
}

void expect_identical_runs(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.evaluated_calls, b.evaluated_calls);
  EXPECT_EQ(a.used_direct, b.used_direct);
  EXPECT_EQ(a.used_bounce, b.used_bounce);
  EXPECT_EQ(a.used_transit, b.used_transit);
  EXPECT_EQ(a.probes_executed, b.probes_executed);
  // PNR and the raw per-call value streams must be bit-identical, not just
  // close: parallel replays share nothing mutable with each other.
  EXPECT_EQ(a.pnr.total(), b.pnr.total());
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(a.pnr.pnr(m), b.pnr.pnr(m));
    EXPECT_EQ(a.values[metric_index(m)], b.values[metric_index(m)]);
  }
  EXPECT_EQ(a.pnr_international.pnr_any(), b.pnr_international.pnr_any());
  EXPECT_EQ(a.pnr_domestic.pnr_any(), b.pnr_domestic.pnr_any());
  expect_same_counters(a, b);
}

std::vector<RunSpec> make_specs(Experiment& exp) {
  std::vector<RunSpec> specs;
  specs.push_back({"default", [&exp] { return exp.make_default(); }, {}});
  specs.push_back({"via-rtt", [&exp] { return exp.make_via(Metric::Rtt); }, {}});
  specs.push_back({"via-loss", [&exp] { return exp.make_via(Metric::Loss); }, {}});
  specs.push_back(
      {"prediction-only", [&exp] { return exp.make_prediction_only(Metric::Rtt); }, {}});
  BudgetConfig budget;
  budget.fraction = 0.3;
  specs.push_back({"oracle-budget",
                   [&exp, budget] { return exp.make_oracle(Metric::Rtt, budget); },
                   {}});
  return specs;
}

TEST(RunMany, BitIdenticalToSerialAcrossThreadCounts) {
  // Two independent experiments with the same setup: one replays serially
  // through Experiment::run (lazy cache fill), one through run_many.
  const auto setup = Experiment::default_setup(Experiment::Scale::Small);
  Experiment serial_exp(setup);
  Experiment parallel_exp(setup);

  const std::vector<RunSpec> serial_specs = make_specs(serial_exp);
  std::vector<RunResult> serial;
  serial.reserve(serial_specs.size());
  for (const RunSpec& spec : serial_specs) {
    auto policy = spec.make_policy();
    serial.push_back(serial_exp.run(*policy, spec.config));
  }

  const std::vector<RunSpec> parallel_specs = make_specs(parallel_exp);
  for (const int threads : {1, 2, 8}) {
    const std::vector<RunResult> parallel = parallel_exp.run_many(parallel_specs, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(serial_specs[i].label + " @" + std::to_string(threads) + " threads");
      expect_identical_runs(serial[i], parallel[i]);
    }
  }

  // Interning order must agree too: warm() replays the same first-touch
  // order the serial run used.
  const RelayOptionTable& st = serial_exp.ground_truth().option_table();
  const RelayOptionTable& pt = parallel_exp.ground_truth().option_table();
  ASSERT_EQ(st.size(), pt.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    EXPECT_EQ(st.label(static_cast<OptionId>(i)), pt.label(static_cast<OptionId>(i)));
  }
}

TEST(RunMany, RepeatedInvocationIsStable) {
  Experiment exp(Experiment::default_setup(Experiment::Scale::Small));
  const std::vector<RunSpec> specs = make_specs(exp);
  const std::vector<RunResult> first = exp.run_many(specs, 2);
  const std::vector<RunResult> second = exp.run_many(specs, 4);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(specs[i].label);
    expect_identical_runs(first[i], second[i]);
  }
}

TEST(RunMany, PropagatesRunExceptions) {
  Experiment exp(Experiment::default_setup(Experiment::Scale::Small));
  std::vector<RunSpec> specs;
  specs.push_back({"boom",
                   []() -> std::unique_ptr<RoutingPolicy> {
                     throw std::runtime_error("factory failed");
                   },
                   {}});
  EXPECT_THROW((void)exp.run_many(specs, 2), std::runtime_error);
}

// -------------------------------------------- concurrent GroundTruth reads

TEST(GroundTruthConcurrency, UnwarmedConcurrentReadersAgreeWithSerial) {
  WorldConfig wc;
  wc.num_ases = 24;
  wc.num_relays = 8;
  World world(wc);
  GroundTruth shared(world);
  GroundTruth reference(world);

  // 8 threads hammer overlapping pairs through every cached query path.
  constexpr int kThreads = 8;
  constexpr int kDays = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t, &failed] {
      for (int rep = 0; rep < 3; ++rep) {
        for (AsId s = 0; s < 24; ++s) {
          const AsId d = static_cast<AsId>((s + 1 + t) % 24);
          if (s == d) continue;
          const auto opts = shared.candidate_options(s, d);
          if (opts.empty() || opts[0] != RelayOptionTable::direct_id()) {
            failed.store(true);
            return;
          }
          (void)shared.nearest_relays(s);
          for (int day = 0; day < kDays; ++day) {
            for (const OptionId opt : opts) {
              (void)shared.day_mean(s, d, opt, day);
            }
          }
          (void)shared.sample_call(1000 + s, s, d, opts[0], 3600);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  // The direct option has id 0 in every table, so its day means are
  // comparable across instances regardless of interning order — and must
  // be bitwise equal to an untouched serial instance.
  for (AsId s = 0; s < 24; ++s) {
    for (int t = 0; t < kThreads; ++t) {
      const AsId d = static_cast<AsId>((s + 1 + t) % 24);
      if (s == d) continue;
      for (int day = 0; day < kDays; ++day) {
        const PathPerformance a = shared.day_mean(s, d, 0, day);
        const PathPerformance b = reference.day_mean(s, d, 0, day);
        ASSERT_EQ(a.rtt_ms, b.rtt_ms);
        ASSERT_EQ(a.loss_pct, b.loss_pct);
        ASSERT_EQ(a.jitter_ms, b.jitter_ms);
      }
    }
  }

  // Repeated queries on the shared instance are self-consistent (cache
  // hits return what the first compute produced).
  const auto opts = shared.candidate_options(0, 1);
  for (const OptionId opt : opts) {
    const PathPerformance first = shared.day_mean(0, 1, opt, 0);
    const PathPerformance again = shared.day_mean(0, 1, opt, 0);
    EXPECT_EQ(first.rtt_ms, again.rtt_ms);
  }
}

// ------------------------------------------------------- engine satellites

TEST(EngineOptions, ExcludeTransitWithoutTransitCandidatesMatchesUnfiltered) {
  auto setup = Experiment::default_setup(Experiment::Scale::Small);
  setup.ground_truth.transit_candidates_per_side = 0;  // no transit exists
  setup.trace.total_calls = 4000;
  Experiment exp(setup);

  RunConfig with_filter;
  with_filter.exclude_transit = true;
  RunConfig without_filter;

  auto p1 = exp.make_via(Metric::Rtt);
  auto p2 = exp.make_via(Metric::Rtt);
  const RunResult filtered = exp.run(*p1, with_filter);
  const RunResult unfiltered = exp.run(*p2, without_filter);

  // With no transit options the filter has nothing to remove: identical
  // candidate sets, identical replay.
  EXPECT_EQ(filtered.used_transit, 0);
  EXPECT_EQ(unfiltered.used_transit, 0);
  EXPECT_EQ(filtered.pnr.pnr_any(), unfiltered.pnr.pnr_any());
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(filtered.values[metric_index(m)], unfiltered.values[metric_index(m)]);
  }
}

TEST(DecisionTraceGating, DisabledRingKeepsCountersDropsEvents) {
  auto setup = Experiment::default_setup(Experiment::Scale::Small);
  setup.trace.total_calls = 4000;
  Experiment exp(setup);

  RunConfig with_ring;
  with_ring.decision_trace_capacity = 4096;
  RunConfig no_ring;
  no_ring.decision_trace_capacity = 0;

  auto p1 = exp.make_via(Metric::Rtt);
  auto p2 = exp.make_via(Metric::Rtt);
  auto p3 = exp.make_via(Metric::Rtt);
  const RunResult ringed = exp.run(*p1, with_ring);
  const RunResult ringless = exp.run(*p2, no_ring);
  const RunResult by_default = exp.run(*p3, RunConfig{});

  EXPECT_GT(ringed.decisions.size(), 0U);
  EXPECT_EQ(ringless.decisions.size(), 0U);
  EXPECT_EQ(by_default.decisions.size(), 0U);
  // Disabling the ring must not change routing or the reason tallies.
  EXPECT_EQ(ringed.pnr.pnr_any(), ringless.pnr.pnr_any());
  EXPECT_EQ(ringed.pnr.pnr_any(), by_default.pnr.pnr_any());
  expect_same_counters(ringed, ringless);
  expect_same_counters(ringed, by_default);
  // Every policy-routed call still carries exactly one reason.
  const std::int64_t reason_sum =
      by_default.telemetry.counter_value("policy.decision.ucb") +
      by_default.telemetry.counter_value("policy.decision.epsilon_explore") +
      by_default.telemetry.counter_value("policy.decision.budget_veto") +
      by_default.telemetry.counter_value("policy.decision.fallback_direct");
  EXPECT_GT(reason_sum, 0);
  EXPECT_EQ(reason_sum, p3->stats().calls);
}

}  // namespace
}  // namespace via
