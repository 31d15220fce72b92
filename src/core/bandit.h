// Modified UCB1 bandit over the top-k candidates (Algorithm 3).
//
// Standard UCB1 normalizes rewards into [0,1] by the full value range; with
// heavy-tailed network metrics that squashes the common case, so the paper
// instead normalizes by w = the mean of the top-k candidates' upper
// confidence bounds.  Because the metric is a cost (lower is better) the
// index *subtracts* the exploration bonus and the arm with the minimum
// index is played:
//     index(r) = mean(Q_r) / w  -  sqrt(0.1 * ln(T) / n_r)
// Arms never played are tried first (index -inf).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/topk.h"

namespace via {

enum class BanditNormalization : std::uint8_t {
  MeanUpperBound,  ///< the paper's scheme: w = avg Pred_upper over top-k
  MaxObserved,     ///< naive scheme for the Figure 15 ablation
};

struct BanditConfig {
  double exploration_coefficient = 0.1;  ///< the 0.1 in sqrt(0.1 ln T / n)
  BanditNormalization normalization = BanditNormalization::MeanUpperBound;
  /// Seed each arm with one pseudo-observation at its predicted mean, so
  /// the bandit starts from the predictor's ranking instead of playing
  /// every arm round-robin (costly at realistic per-pair call volumes).
  bool seed_with_prediction = true;
  /// When re-arming at a refresh, carry over this fraction of each
  /// surviving arm's play count (0 = full reset, as in stateless UCB1).
  double carry_over = 0.5;
};

/// Bandit state for one (AS pair, metric) within one refresh period.
class UcbBandit {
 public:
  UcbBandit() = default;

  /// Installs the period's arms (top-k options with predictions).  `w` is
  /// computed from the predictions per the config.  When `carry_from` is
  /// given, arms surviving from the previous period keep a decayed version
  /// of their statistics (non-stationarity adaptation without total
  /// amnesia); fresh arms are optionally seeded with their prediction.
  void set_arms(std::span<const RankedOption> top_k, const BanditConfig& config,
                const UcbBandit* carry_from = nullptr);

  /// Picks the arm with the minimum UCB index; kInvalidOption if armless.
  /// `config` is the policy-wide config the arms were installed with (its
  /// normalization and exploration coefficient); the bandit keeps no copy.
  [[nodiscard]] OptionId pick(const BanditConfig& config) const {
    return pick_if(config, [](OptionId) { return true; });
  }

  /// pick(), skipping arms whose option the predicate rejects (relay
  /// quarantine filtering); kInvalidOption when every arm is rejected.
  template <typename Pred>
  [[nodiscard]] OptionId pick_if(const BanditConfig& config, Pred&& allowed) const;

  /// Records an observed cost for an arm (no-op for unknown arms, which can
  /// happen for ε-exploration picks outside the top-k).
  void observe(OptionId option, double cost);

  [[nodiscard]] bool has_arms() const noexcept { return !arms_.empty(); }
  [[nodiscard]] std::size_t arm_count() const noexcept { return arms_.size(); }
  /// Heap bytes owned by this bandit (the arm array); the object itself is
  /// counted by whoever embeds it.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return arms_.capacity() * sizeof(Arm);
  }
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return sizeof(*this) + heap_bytes();
  }
  [[nodiscard]] std::int64_t total_plays() const noexcept { return total_plays_; }
  [[nodiscard]] double normalizer() const noexcept { return w_; }

 private:
  struct Arm {
    OptionId option = kInvalidOption;
    std::int64_t plays = 0;
    double cost_sum = 0.0;
    // Derived quantities cached at update time: pick() runs once per call
    // over every arm, so keeping the division and square root out of its
    // inner loop matters (observe() runs once per call total).
    double mean_cost = 0.0;       ///< cost_sum / plays (0 when unplayed)
    double inv_sqrt_plays = 0.0;  ///< 1 / sqrt(plays)  (0 when unplayed)
    void recache() {
      mean_cost = cost_sum / static_cast<double>(plays);
      inv_sqrt_plays = 1.0 / std::sqrt(static_cast<double>(plays));
    }
  };
  std::vector<Arm> arms_;
  double w_ = 1.0;
  double max_observed_ = 0.0;
  std::int64_t total_plays_ = 0;
};

template <typename Pred>
OptionId UcbBandit::pick_if(const BanditConfig& config, Pred&& allowed) const {
  if (arms_.empty()) return kInvalidOption;

  const double t = static_cast<double>(total_plays_ + 1);
  double best_index = std::numeric_limits<double>::infinity();
  OptionId best = kInvalidOption;

  const double w = config.normalization == BanditNormalization::MaxObserved
                       ? (max_observed_ > 1e-9 ? max_observed_ : 1e-9)
                       : w_;
  // index(r) = mean/w - sqrt(c*ln T)/sqrt(n_r); hoisting the shared
  // sqrt(c*ln T) and the division by w leaves one multiply-subtract per arm.
  // The predicate only prunes; ties keep the earliest arm.
  const double bonus = std::sqrt(config.exploration_coefficient * std::log(t));
  const double inv_w = 1.0 / w;
  for (const auto& arm : arms_) {
    if (!allowed(arm.option)) continue;
    double index;
    if (arm.plays == 0) {
      index = -std::numeric_limits<double>::infinity();
    } else {
      index = arm.mean_cost * inv_w - bonus * arm.inv_sqrt_plays;
    }
    if (index < best_index) {
      best_index = index;
      best = arm.option;
    }
  }
  return best;
}

}  // namespace via
