// Fault-injection and graceful-degradation tests (DESIGN.md §6f):
//   - FaultPlan semantics: outage windows, flaps, degradations, parsing,
//     and the empty-plan no-op guarantee,
//   - RelayHealthTracker state machine: degrade -> quarantine -> probation
//     -> re-admit, with escalating re-quarantine,
//   - ViaPolicy health filtering: a quarantined relay receives zero picks
//     while blocked, with the reroute/fallback visible in stats, telemetry
//     counters, and the decision trace,
//   - engine plumbing: a faulted run completes, impairs samples, drives
//     the health machine, and an *empty* plan replays bit-identically.
#include "sim/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/relay_health.h"
#include "core/via_policy.h"
#include "flight_dump.h"
#include "obs/telemetry.h"
#include "sim/engine.h"
#include "trace/generator.h"

VIA_REGISTER_FLIGHT_DUMP("test_faults");

namespace via {
namespace {

// ----------------------------------------------------------- fault plans

FaultPlan outage_plan(RelayId relay, TimeSec start, TimeSec end) {
  FaultPlanConfig config;
  config.outages.push_back({relay, start, end});
  return FaultPlan(std::move(config));
}

TEST(FaultPlan, OutageWindowIsHalfOpen) {
  const FaultPlan plan = outage_plan(3, 100, 200);
  EXPECT_FALSE(plan.relay_down(3, 99));
  EXPECT_TRUE(plan.relay_down(3, 100));
  EXPECT_TRUE(plan.relay_down(3, 199));
  EXPECT_FALSE(plan.relay_down(3, 200));
  EXPECT_FALSE(plan.relay_down(4, 150));  // other relays unaffected
}

TEST(FaultPlan, OptionDownFollowsRelayUsage) {
  const FaultPlan plan = outage_plan(2, 0, 1000);
  RelayOption direct{RelayKind::Direct, -1, -1};
  RelayOption bounce_hit{RelayKind::Bounce, 2, -1};
  RelayOption bounce_miss{RelayKind::Bounce, 5, -1};
  RelayOption transit_hit{RelayKind::Transit, 7, 2};
  EXPECT_FALSE(plan.option_down(direct, 500));
  EXPECT_TRUE(plan.option_down(bounce_hit, 500));
  EXPECT_FALSE(plan.option_down(bounce_miss, 500));
  EXPECT_TRUE(plan.option_down(transit_hit, 500));
}

TEST(FaultPlan, ApplyReplacesOutageSampleWithImpairment) {
  const FaultPlan plan = outage_plan(1, 0, 1000);
  RelayOption bounce{RelayKind::Bounce, 1, -1};
  PathPerformance perf{80.0, 0.5, 3.0};
  EXPECT_TRUE(plan.apply(bounce, 10, perf));
  EXPECT_DOUBLE_EQ(perf.rtt_ms, plan.config().impairment.outage_rtt_ms);
  EXPECT_DOUBLE_EQ(perf.loss_pct, plan.config().impairment.outage_loss_pct);

  // Outside the window the sample is untouched.
  PathPerformance clean{80.0, 0.5, 3.0};
  EXPECT_FALSE(plan.apply(bounce, 2000, clean));
  EXPECT_DOUBLE_EQ(clean.rtt_ms, 80.0);
}

TEST(FaultPlan, DegradationScalesInsteadOfReplacing) {
  FaultPlanConfig config;
  config.degradations.push_back({.relay = 4,
                                 .start = 0,
                                 .end = 1000,
                                 .rtt_factor = 2.0,
                                 .loss_add_pct = 10.0,
                                 .jitter_factor = 3.0});
  const FaultPlan plan(std::move(config));
  RelayOption bounce{RelayKind::Bounce, 4, -1};
  PathPerformance perf{80.0, 0.5, 3.0};
  EXPECT_TRUE(plan.apply(bounce, 10, perf));
  EXPECT_DOUBLE_EQ(perf.rtt_ms, 160.0);
  EXPECT_DOUBLE_EQ(perf.loss_pct, 10.5);
  EXPECT_DOUBLE_EQ(perf.jitter_ms, 9.0);
}

TEST(FaultPlan, FlapAlternatesWithinWindow) {
  FaultPlanConfig config;
  config.flaps.push_back({.relay = 0, .start = 0, .end = 10'000, .period = 100,
                          .duty_down = 0.5});
  const FaultPlan plan(std::move(config));
  int down = 0;
  for (TimeSec t = 0; t < 10'000; ++t) {
    if (plan.relay_down(0, t)) ++down;
  }
  // Half of each cycle is down (phase-shifted, but the census is exact).
  EXPECT_EQ(down, 5'000);
  EXPECT_FALSE(plan.relay_down(0, 10'001));  // outside the flap window
}

TEST(FaultPlan, EmptyPlanNeverTouchesSamples) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  RelayOption bounce{RelayKind::Bounce, 1, -1};
  PathPerformance perf{80.0, 0.5, 3.0};
  EXPECT_FALSE(plan.apply(bounce, 10, perf));
  EXPECT_DOUBLE_EQ(perf.rtt_ms, 80.0);
}

TEST(FaultPlan, ParsesCompactSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "outage:relay=3,start=86400,end=172800;"
      "flap:relay=2,start=0,end=86400,period=600,duty=0.25;"
      "degrade:relay=1,start=0,end=86400,rtt=2.0,loss=5,jitter=1.5;"
      "seed=7");
  const FaultPlanConfig& c = plan.config();
  ASSERT_EQ(c.outages.size(), 1u);
  EXPECT_EQ(c.outages[0].relay, 3);
  EXPECT_EQ(c.outages[0].start, 86'400);
  EXPECT_EQ(c.outages[0].end, 172'800);
  ASSERT_EQ(c.flaps.size(), 1u);
  EXPECT_EQ(c.flaps[0].period, 600);
  EXPECT_DOUBLE_EQ(c.flaps[0].duty_down, 0.25);
  ASSERT_EQ(c.degradations.size(), 1u);
  EXPECT_DOUBLE_EQ(c.degradations[0].rtt_factor, 2.0);
  EXPECT_DOUBLE_EQ(c.degradations[0].loss_add_pct, 5.0);
  EXPECT_EQ(c.seed, 7u);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("bogus:relay=1"), std::runtime_error);
  EXPECT_THROW((void)FaultPlan::parse("outage:relay"), std::runtime_error);
  EXPECT_THROW((void)FaultPlan::parse("seed"), std::runtime_error);
}

// ---------------------------------------------------------- health tracker

RelayHealthConfig fast_health() {
  RelayHealthConfig c;
  c.enabled = true;
  c.degrade_after = 1;
  c.quarantine_after = 2;
  c.quarantine_period = 100;
  c.probation_successes = 2;
  return c;
}

TEST(RelayHealth, ConsecutiveFailuresWalkTheStateMachine) {
  RelayHealthTracker tracker(fast_health());
  const RelayOption bounce{RelayKind::Bounce, 5, -1};
  EXPECT_FALSE(tracker.maybe_blocked());

  auto t1 = tracker.record(bounce, /*failed=*/true, /*now=*/10);
  EXPECT_FALSE(t1.entered_quarantine);
  EXPECT_EQ(tracker.state_of(5), RelayHealthTracker::State::Degraded);
  EXPECT_TRUE(tracker.allows(5, 11));

  auto t2 = tracker.record(bounce, true, 11);
  EXPECT_TRUE(t2.entered_quarantine);
  EXPECT_EQ(tracker.state_of(5), RelayHealthTracker::State::Quarantined);
  EXPECT_TRUE(tracker.maybe_blocked());
  EXPECT_FALSE(tracker.allows(5, 50));
  EXPECT_TRUE(tracker.option_blocked(bounce, 50));
  // Block expires at now + quarantine_period.
  EXPECT_TRUE(tracker.allows(5, 111));
  EXPECT_EQ(tracker.quarantine_events(), 1);
}

TEST(RelayHealth, SuccessResetsTheFailureStreak) {
  RelayHealthTracker tracker(fast_health());
  const RelayOption bounce{RelayKind::Bounce, 0, -1};
  (void)tracker.record(bounce, true, 1);
  (void)tracker.record(bounce, false, 2);  // streak broken
  (void)tracker.record(bounce, true, 3);
  EXPECT_EQ(tracker.state_of(0), RelayHealthTracker::State::Degraded);
  EXPECT_TRUE(tracker.allows(0, 4));
}

TEST(RelayHealth, ProbationReadmitsAfterCleanStreak) {
  RelayHealthTracker tracker(fast_health());
  const RelayOption bounce{RelayKind::Bounce, 2, -1};
  (void)tracker.record(bounce, true, 10);
  (void)tracker.record(bounce, true, 11);  // quarantined until 111
  // First observation after expiry moves to probation.
  (void)tracker.record(bounce, false, 120);
  EXPECT_EQ(tracker.state_of(2), RelayHealthTracker::State::Probation);
  auto t = tracker.record(bounce, false, 121);
  EXPECT_TRUE(t.readmitted);
  EXPECT_EQ(tracker.state_of(2), RelayHealthTracker::State::Healthy);
  EXPECT_FALSE(tracker.maybe_blocked());
  EXPECT_EQ(tracker.readmissions(), 1);
}

TEST(RelayHealth, ProbationFailureEscalatesTheBlock) {
  RelayHealthTracker tracker(fast_health());
  const RelayOption bounce{RelayKind::Bounce, 2, -1};
  (void)tracker.record(bounce, true, 0);
  (void)tracker.record(bounce, true, 1);  // 1st spell: blocked until 101
  auto t = tracker.record(bounce, true, 150);  // probation relapse
  EXPECT_TRUE(t.entered_quarantine);
  // 2nd spell doubles: blocked until 150 + 200.
  EXPECT_FALSE(tracker.allows(2, 349));
  EXPECT_TRUE(tracker.allows(2, 350));
  EXPECT_EQ(tracker.quarantine_events(), 2);
}

TEST(RelayHealth, DirectOptionsRecordNothing) {
  RelayHealthTracker tracker(fast_health());
  const RelayOption direct{RelayKind::Direct, -1, -1};
  for (int i = 0; i < 10; ++i) (void)tracker.record(direct, true, i);
  EXPECT_FALSE(tracker.maybe_blocked());
  const auto counts = tracker.counts(100);
  EXPECT_EQ(counts.quarantined, 0);
}

// ------------------------------------------------- policy health filtering

/// A small world where one bounce relay is the clear bandit winner, so a
/// quarantine visibly forces rerouting.
struct HealthWorld {
  RelayOptionTable options;
  OptionId fast_bounce;   // relay 0: best path
  OptionId slow_bounce;   // relay 1: worse but viable
  std::vector<OptionId> candidates;

  HealthWorld() {
    fast_bounce = options.intern_bounce(0);
    slow_bounce = options.intern_bounce(1);
    candidates = {RelayOptionTable::direct_id(), fast_bounce, slow_bounce};
  }
};

ViaConfig health_policy_config() {
  ViaConfig c;
  c.epsilon = 0.1;
  c.seed = 42;
  c.health = fast_health();
  c.health.quarantine_period = 1'000'000;  // spans the whole test window
  return c;
}

/// Seeds enough history that the bandit has arms, then quarantines relay 0
/// through catastrophic observations and verifies zero subsequent picks
/// ride it while blocked.
TEST(PolicyHealth, QuarantinedRelayReceivesZeroPicks) {
  HealthWorld world;
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{10.0, 0.1, 1.0}; },
      health_policy_config());
  obs::Telemetry telemetry;
  policy.attach_telemetry(&telemetry);

  CallId next_id = 1;
  auto observe = [&](OptionId opt, PathPerformance perf, TimeSec t) {
    Observation o;
    o.id = next_id++;
    o.time = t;
    o.src_as = 1;
    o.dst_as = 2;
    o.option = opt;
    o.perf = perf;
    policy.observe(o);
  };

  // Seed history and refresh so the pair has a model and bandit arms.
  for (int rep = 0; rep < 6; ++rep) {
    for (const OptionId opt : world.candidates) {
      const double c = opt == RelayOptionTable::direct_id() ? 250.0
                       : opt == world.fast_bounce           ? 60.0
                                                            : 120.0;
      observe(opt, {c, c / 100.0, c / 20.0}, rep);
    }
  }
  policy.refresh(kSecondsPerDay);

  // Catastrophic observations quarantine relay 0.
  const TimeSec q_time = kSecondsPerDay + 10;
  observe(world.fast_bounce, {2500.0, 100.0, 120.0}, q_time);
  observe(world.fast_bounce, {2500.0, 100.0, 120.0}, q_time + 1);
  EXPECT_EQ(policy.relay_health().state_of(0), RelayHealthTracker::State::Quarantined);

  // Every subsequent pick inside the block window avoids relay 0.
  for (int i = 0; i < 400; ++i) {
    CallContext ctx;
    ctx.id = next_id++;
    ctx.time = q_time + 2 + i;
    ctx.src_as = 1;
    ctx.dst_as = 2;
    ctx.key_src = 1;
    ctx.key_dst = 2;
    ctx.options = world.candidates;
    const OptionId pick = policy.choose(ctx);
    const RelayOption& ropt = world.options.get(pick);
    EXPECT_FALSE(ropt.kind == RelayKind::Bounce && ropt.a == 0)
        << "call " << i << " rode the quarantined relay";
  }

  const ViaPolicy::Stats s = policy.stats();
  EXPECT_GT(s.quarantine_rerouted, 0);
  // Reason accounting stays total, including the new §6f reasons.
  EXPECT_EQ(s.epsilon_explored + s.bandit_served + s.cold_start_direct + s.budget_denied +
                s.relay_cap_denied + s.quarantine_rerouted + s.outage_fallback_direct,
            s.calls);

  // Telemetry reconciles and the trace carries the new reason.
  obs::MetricsRegistry& r = telemetry.registry;
  EXPECT_EQ(r.counter("policy.decision.quarantined_relay").value(), s.quarantine_rerouted);
  EXPECT_GT(r.counter("policy.health.quarantine_events").value(), 0);
  const auto events = telemetry.decisions.snapshot();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const obs::DecisionEvent& e) {
    return e.reason == obs::DecisionReason::QuarantinedRelay;
  }));
  policy.attach_telemetry(nullptr);
}

/// With *every* relayed candidate quarantined, the bandit path falls all
/// the way back to direct and says so.
TEST(PolicyHealth, TotalOutageFallsBackToDirect) {
  HealthWorld world;
  ViaConfig config = health_policy_config();
  config.epsilon = 0.0;  // force the bandit path
  ViaPolicy policy(
      world.options, [](RelayId, RelayId) { return PathPerformance{10.0, 0.1, 1.0}; },
      config);
  obs::Telemetry telemetry;
  policy.attach_telemetry(&telemetry);

  CallId next_id = 1;
  auto observe = [&](OptionId opt, PathPerformance perf, TimeSec t) {
    Observation o;
    o.id = next_id++;
    o.time = t;
    o.src_as = 1;
    o.dst_as = 2;
    o.option = opt;
    o.perf = perf;
    policy.observe(o);
  };
  for (int rep = 0; rep < 6; ++rep) {
    for (const OptionId opt : world.candidates) {
      const double c = opt == RelayOptionTable::direct_id() ? 250.0 : 80.0;
      observe(opt, {c, c / 100.0, c / 20.0}, rep);
    }
  }
  policy.refresh(kSecondsPerDay);

  const TimeSec q_time = kSecondsPerDay + 10;
  for (const RelayId relay : {RelayId{0}, RelayId{1}}) {
    const OptionId opt = relay == 0 ? world.fast_bounce : world.slow_bounce;
    observe(opt, {2500.0, 100.0, 120.0}, q_time);
    observe(opt, {2500.0, 100.0, 120.0}, q_time + 1);
    EXPECT_EQ(policy.relay_health().state_of(relay),
              RelayHealthTracker::State::Quarantined);
  }

  for (int i = 0; i < 50; ++i) {
    CallContext ctx;
    ctx.id = next_id++;
    ctx.time = q_time + 2 + i;
    ctx.src_as = 1;
    ctx.dst_as = 2;
    ctx.key_src = 1;
    ctx.key_dst = 2;
    ctx.options = world.candidates;
    EXPECT_EQ(policy.choose(ctx), RelayOptionTable::direct_id());
  }
  const ViaPolicy::Stats s = policy.stats();
  EXPECT_GT(s.outage_fallback_direct, 0);
  EXPECT_EQ(telemetry.registry.counter("policy.decision.fallback_direct_outage").value(),
            s.outage_fallback_direct);
  const auto events = telemetry.decisions.snapshot();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const obs::DecisionEvent& e) {
    return e.reason == obs::DecisionReason::FallbackDirectOutage;
  }));
  policy.attach_telemetry(nullptr);
}

// ------------------------------------------------------- engine plumbing

class FaultedEngineTest : public ::testing::Test {
 protected:
  FaultedEngineTest() : world_({.num_ases = 30, .num_relays = 6, .seed = 51}), gt_(world_) {
    TraceConfig config;
    config.days = 4;
    config.total_calls = 4'000;
    config.active_pairs = 40;
    config.seed = 9;
    TraceGenerator gen(gt_, config);
    arrivals_ = gen.generate_arrivals();
  }

  [[nodiscard]] RunResult run_via(const FaultPlan* faults, bool health) {
    RunConfig run;
    run.background_relay_fraction = 0.0;
    run.faults = faults;
    run.decision_trace_capacity = 4096;  // the outage test reads the events
    ViaConfig via;
    via.seed = 42;
    if (health) {
      via.health = fast_health();
      via.health.quarantine_period = 2 * kSecondsPerDay;
    }
    ViaPolicy policy(
        gt_.option_table(),
        [this](RelayId a, RelayId b) { return gt_.backbone(a, b); }, via);
    SimulationEngine engine(gt_, arrivals_, run);
    return engine.run(policy);
  }

  World world_;
  GroundTruth gt_;
  std::vector<CallArrival> arrivals_;
};

TEST_F(FaultedEngineTest, EmptyPlanIsBitIdenticalToNoPlan) {
  const FaultPlan empty;
  const RunResult without = run_via(nullptr, /*health=*/false);
  const RunResult with_empty = run_via(&empty, /*health=*/false);
  EXPECT_EQ(with_empty.fault_impaired_samples, 0);
  EXPECT_EQ(without.used_direct, with_empty.used_direct);
  EXPECT_EQ(without.used_bounce, with_empty.used_bounce);
  EXPECT_EQ(without.used_transit, with_empty.used_transit);
  // Strongest check: the exact per-call metric stream matches.
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    EXPECT_EQ(without.values[m], with_empty.values[m]);
  }
}

TEST_F(FaultedEngineTest, OutageRunCompletesAndDrivesTheHealthMachine) {
  // Every relay hard-down from day 1 on: all relayed samples during the
  // window come back outage-grade, so the health machine must quarantine
  // and the policy must keep serving (direct) to the end of the trace.
  FaultPlanConfig config;
  for (RelayId r = 0; r < 6; ++r) {
    config.outages.push_back({r, kSecondsPerDay, 4 * kSecondsPerDay});
  }
  const FaultPlan plan(std::move(config));

  const RunResult result = run_via(&plan, /*health=*/true);
  EXPECT_EQ(result.calls, 4'000);
  EXPECT_GT(result.fault_impaired_samples, 0);

  // Degradations are observable in the run telemetry.
  EXPECT_EQ(result.telemetry.counter_value("engine.fault.impaired_samples"),
            result.fault_impaired_samples);
  EXPECT_GT(result.telemetry.counter_value("policy.health.quarantine_events"), 0);
  const bool rerouted_visible =
      std::any_of(result.decisions.begin(), result.decisions.end(),
                  [](const obs::DecisionEvent& e) {
                    return e.reason == obs::DecisionReason::QuarantinedRelay ||
                           e.reason == obs::DecisionReason::FallbackDirectOutage;
                  });
  EXPECT_TRUE(rerouted_visible);
}

}  // namespace
}  // namespace via
