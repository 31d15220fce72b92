#include "rpc/testbed.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace via {
namespace {

TestbedConfig small_config() {
  TestbedConfig config;
  config.client_pairs = 6;
  config.measurement_rounds = 3;
  config.eval_calls_per_pair = 10;
  config.world.num_ases = 12;
  config.world.num_relays = 6;
  return config;
}

TEST(Testbed, RunsAndProducesResults) {
  const TestbedResult r = run_testbed(small_config());
  EXPECT_EQ(r.eval_calls, 60);
  EXPECT_GT(r.measurement_calls, 100);
  EXPECT_EQ(r.suboptimality.size(), 60u);
}

TEST(Testbed, SuboptimalityNonNegative) {
  const TestbedResult r = run_testbed(small_config());
  for (const double s : r.suboptimality) EXPECT_GE(s, 0.0);
}

TEST(Testbed, MostCallsNearOracle) {
  TestbedConfig config = small_config();
  config.client_pairs = 10;
  config.eval_calls_per_pair = 20;
  const TestbedResult r = run_testbed(config);
  // The paper reports ~70% of calls within 20%; be conservative here.
  EXPECT_GT(r.fraction_within(0.30), 0.5);
}

TEST(Testbed, FractionWithinMonotone) {
  const TestbedResult r = run_testbed(small_config());
  EXPECT_LE(r.fraction_within(0.1), r.fraction_within(0.2));
  EXPECT_LE(r.fraction_within(0.2), r.fraction_within(0.5));
  EXPECT_LE(r.fraction_within(0.5), 1.0);
}

TEST(Testbed, PicksBestSometimesButNotAlways) {
  TestbedConfig config = small_config();
  config.client_pairs = 10;
  config.eval_calls_per_pair = 20;
  const TestbedResult r = run_testbed(config);
  EXPECT_GT(r.fraction_best(), 0.05);
  EXPECT_LT(r.fraction_best(), 0.95);
}

TEST(Testbed, FaultPlanImpairsSamplesAndEveryEvalCallFinishes) {
  const FaultPlan plan = FaultPlan::parse("outage:relay=2,start=0,end=86400");
  TestbedConfig config = small_config();
  config.faults = &plan;
  const TestbedResult r = run_testbed(config);
  EXPECT_GT(r.fault_impaired_samples, 0);
  EXPECT_EQ(r.eval_calls, config.client_pairs * config.eval_calls_per_pair);
  EXPECT_EQ(r.suboptimality.size(), static_cast<std::size_t>(r.eval_calls));
}

TEST(Testbed, FractionBestZeroWhenEmpty) {
  TestbedResult r;
  EXPECT_EQ(r.fraction_best(), 0.0);
  EXPECT_EQ(r.fraction_within(0.5), 0.0);
}

}  // namespace
}  // namespace via
