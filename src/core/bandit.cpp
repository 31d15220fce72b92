#include "core/bandit.h"

#include <algorithm>
#include <cmath>

namespace via {

void UcbBandit::set_arms(std::span<const RankedOption> top_k, const BanditConfig& config,
                         const UcbBandit* carry_from) {
  const std::vector<Arm> previous =
      carry_from != nullptr ? carry_from->arms_ : std::vector<Arm>{};
  arms_.clear();
  arms_.reserve(top_k.size());
  total_plays_ = 0;
  max_observed_ = 0.0;

  double upper_sum = 0.0;
  for (const auto& r : top_k) {
    Arm arm{r.option, 0, 0.0};
    // Decayed carry-over from the previous period, if the arm survived.
    for (const Arm& old : previous) {
      if (old.option != r.option || old.plays <= 0) continue;
      const auto kept = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(old.plays) * config.carry_over));
      if (kept > 0) {
        arm.plays = kept;
        arm.cost_sum = old.cost_sum / static_cast<double>(old.plays) *
                       static_cast<double>(kept);
      }
      break;
    }
    if (arm.plays == 0 && config.seed_with_prediction && r.pred.valid) {
      arm.plays = 1;
      arm.cost_sum = r.pred.mean;
    }
    if (arm.plays > 0) arm.recache();
    total_plays_ += arm.plays;
    arms_.push_back(arm);
    upper_sum += r.pred.upper;
  }
  if (config.normalization == BanditNormalization::MeanUpperBound && !top_k.empty()) {
    w_ = std::max(1e-9, upper_sum / static_cast<double>(top_k.size()));
  } else {
    w_ = 1.0;  // MaxObserved adjusts dynamically as rewards arrive
  }
}

void UcbBandit::observe(OptionId option, double cost) {
  max_observed_ = std::max(max_observed_, cost);
  for (auto& arm : arms_) {
    if (arm.option == option) {
      ++arm.plays;
      arm.cost_sum += cost;
      arm.recache();
      ++total_plays_;
      return;
    }
  }
}

}  // namespace via
