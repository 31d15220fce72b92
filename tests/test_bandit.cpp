#include "core/bandit.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace via {
namespace {

std::vector<RankedOption> make_arms(std::initializer_list<std::pair<OptionId, double>> arms) {
  std::vector<RankedOption> out;
  for (const auto& [opt, upper] : arms) {
    RankedOption r;
    r.option = opt;
    r.pred.valid = true;
    r.pred.mean = upper * 0.9;
    r.pred.upper = upper;
    r.pred.lower = upper * 0.8;
    out.push_back(r);
  }
  return out;
}

BanditConfig no_seed() {
  BanditConfig config;
  config.seed_with_prediction = false;
  return config;
}

TEST(UcbBandit, NoArmsReturnsInvalid) {
  UcbBandit b;
  EXPECT_FALSE(b.has_arms());
  EXPECT_EQ(b.pick({}), kInvalidOption);
}

TEST(UcbBandit, UnplayedArmsTriedFirst) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 100.0}, {2, 100.0}, {3, 100.0}}), no_seed());
  // First three picks must cover all three arms.
  std::set<OptionId> seen;
  for (int i = 0; i < 3; ++i) {
    const OptionId pick = b.pick(no_seed());
    seen.insert(pick);
    b.observe(pick, 100.0);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(UcbBandit, NormalizerIsMeanOfUpperBounds) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 100.0}, {2, 200.0}, {3, 300.0}}), {});
  EXPECT_DOUBLE_EQ(b.normalizer(), 200.0);
}

TEST(UcbBandit, ConvergesToBestArm) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 150.0}, {2, 150.0}, {3, 150.0}}), no_seed());
  Rng rng(3);
  // True costs: arm 1 = 100, arm 2 = 140, arm 3 = 180 (noisy).
  auto cost_of = [&](OptionId opt) {
    const double base = opt == 1 ? 100.0 : (opt == 2 ? 140.0 : 180.0);
    return base * rng.lognormal_mean_cv(1.0, 0.1);
  };
  int best_picks = 0;
  const int rounds = 500;
  for (int i = 0; i < rounds; ++i) {
    const OptionId pick = b.pick(no_seed());
    if (pick == 1) ++best_picks;
    b.observe(pick, cost_of(pick));
  }
  EXPECT_GT(best_picks, rounds * 7 / 10);
  EXPECT_EQ(b.total_plays(), rounds);
}

TEST(UcbBandit, KeepsExploringOccasionally) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 150.0}, {2, 150.0}}), {});
  // Arm 1 is clearly better, but UCB's log(T) bonus must still revisit 2.
  int second_picks = 0;
  for (int i = 0; i < 2000; ++i) {
    const OptionId pick = b.pick({});
    if (pick == 2) ++second_picks;
    b.observe(pick, pick == 1 ? 100.0 : 140.0);
  }
  EXPECT_GT(second_picks, 5);
  EXPECT_LT(second_picks, 1000);
}

TEST(UcbBandit, ObserveUnknownArmIsNoOp) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 100.0}}), no_seed());
  b.observe(99, 50.0);
  EXPECT_EQ(b.total_plays(), 0);
}

TEST(UcbBandit, SetArmsResetsState) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 100.0}}), no_seed());
  b.observe(1, 100.0);
  EXPECT_EQ(b.total_plays(), 1);
  b.set_arms(make_arms({{2, 100.0}}), no_seed());
  EXPECT_EQ(b.total_plays(), 0);
  EXPECT_EQ(b.pick(no_seed()), 2);
}

TEST(UcbBandit, PredictionSeedingRanksArmsWithoutPlays) {
  UcbBandit b;
  // Seeded with pred.mean = 0.9 * upper: arm 1 starts best.
  b.set_arms(make_arms({{2, 200.0}, {1, 100.0}, {3, 300.0}}), {});
  EXPECT_EQ(b.total_plays(), 3);  // one pseudo-observation per arm
  EXPECT_EQ(b.pick({}), 1);
}

TEST(UcbBandit, CarryOverKeepsSurvivingArmStats) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 100.0}, {2, 100.0}}), no_seed());
  for (int i = 0; i < 10; ++i) b.observe(1, 50.0);
  for (int i = 0; i < 10; ++i) b.observe(2, 90.0);

  UcbBandit next;
  BanditConfig config = no_seed();
  config.carry_over = 0.5;
  next.set_arms(make_arms({{1, 100.0}, {3, 100.0}}), config, &b);
  // Arm 1 carried 5 decayed plays; arm 3 is fresh and gets tried first.
  EXPECT_EQ(next.total_plays(), 5);
  EXPECT_EQ(next.pick(config), 3);
  next.observe(3, 95.0);
  // With arm 3 looking worse, the carried knowledge favours arm 1.
  EXPECT_EQ(next.pick(config), 1);
}

TEST(UcbBandit, FullResetWhenCarryZero) {
  UcbBandit b;
  b.set_arms(make_arms({{1, 100.0}}), no_seed());
  b.observe(1, 50.0);
  UcbBandit next;
  BanditConfig config = no_seed();
  config.carry_over = 0.0;
  next.set_arms(make_arms({{1, 100.0}}), config, &b);
  EXPECT_EQ(next.total_plays(), 0);
}

TEST(UcbBandit, PaperNormalizationDiscriminatesUnderOutliers) {
  // The paper's critique of naive normalization (Section 4.5): dividing by
  // the full value range (here: the max observed, inflated by rare
  // outliers) squashes common-case differences below the exploration
  // bonus, so the bandit dithers.  Normalizing by the mean top-k upper
  // bound keeps the 100-vs-140 distinction visible.
  const BanditConfig paper{.normalization = BanditNormalization::MeanUpperBound};
  const BanditConfig naive{.normalization = BanditNormalization::MaxObserved};

  auto run = [&](const BanditConfig& config) {
    UcbBandit b;
    b.set_arms(make_arms({{1, 150.0}, {2, 150.0}}), config);
    Rng rng(11);
    int best = 0;
    for (int i = 0; i < 600; ++i) {
      const OptionId pick = b.pick(config);
      double cost = pick == 1 ? 100.0 : 140.0;
      // Rare huge spikes on the worse arm: they inflate the max-observed
      // normalizer, shrinking all index differences below the exploration
      // bonus.
      if (pick == 2 && rng.bernoulli(0.03)) cost *= 25.0;
      if (pick == 1) ++best;
      b.observe(pick, cost);
    }
    return best;
  };

  const int paper_best = run(paper);
  const int naive_best = run(naive);
  EXPECT_GT(paper_best, naive_best);
  EXPECT_GT(paper_best, 450);  // clear majority on the better arm
}

// Property sweep: convergence rate improves with the cost gap.
class BanditGap : public ::testing::TestWithParam<double> {};

TEST_P(BanditGap, LargerGapsEasierToExploit) {
  const double gap = GetParam();
  UcbBandit b;
  b.set_arms(make_arms({{1, 150.0}, {2, 150.0}}), {});
  Rng rng(hash_mix(static_cast<std::uint64_t>(gap * 10), 7));
  int best = 0;
  const int rounds = 600;
  for (int i = 0; i < rounds; ++i) {
    const OptionId pick = b.pick({});
    const double base = pick == 1 ? 100.0 : 100.0 + gap;
    if (pick == 1) ++best;
    b.observe(pick, base * rng.lognormal_mean_cv(1.0, 0.15));
  }
  // Even the smallest gap should favour arm 1; big gaps should dominate.
  EXPECT_GT(best, rounds / 2);
  if (gap >= 40.0) {
    EXPECT_GT(best, rounds * 8 / 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Gaps, BanditGap, ::testing::Values(10.0, 20.0, 40.0, 80.0));

}  // namespace
}  // namespace via
