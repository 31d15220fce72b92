#include "core/pair_state_store.h"

#include <algorithm>

namespace via {

namespace {
std::size_t clamp_stripes(std::size_t requested) {
  const std::size_t capped = std::clamp<std::size_t>(requested, 1, 64);
  std::size_t pow2 = 1;
  while (pow2 * 2 <= capped) pow2 *= 2;
  return pow2;
}
}  // namespace

PairStateStore::PairStateStore(std::uint64_t seed, std::size_t stripes,
                               const BudgetConfig& budget, double relay_share_cap)
    : stripe_count_(clamp_stripes(stripes)),
      stripes_(std::make_unique<Stripe[]>(stripe_count_)),
      budget_config_(budget),
      budget_(budget),
      relay_share_cap_(relay_share_cap) {
  // Stripe 0's seed is exactly the historical single-stream seed
  // (hash_mix(seed, 0x1a)), so one stripe == the pre-split RNG sequence.
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    stripes_[i].rng.reseed(hash_mix(seed, 0x1a + i));
  }
}

void PairStateStore::budget_on_call(double predicted_benefit) {
  if (budget_config_.fraction >= 1.0) {
    // Unlimited budget: BudgetFilter::on_call would only bump its call
    // counter, which nothing reads, so the gate is skipped on the hot path.
    return;
  }
  const std::lock_guard lock(budget_mutex_);
  budget_.on_call(predicted_benefit);
}

bool PairStateStore::budget_allow_relay(double predicted_benefit) {
  if (budget_config_.fraction >= 1.0) return true;
  const std::lock_guard lock(budget_mutex_);
  return budget_.allow_relay(predicted_benefit);
}

std::int64_t PairStateStore::evict_stale(std::uint64_t current_period,
                                         std::uint64_t ttl_periods) {
  if (ttl_periods == 0) return 0;
  std::int64_t evicted = 0;
  std::vector<std::uint64_t> victims;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    Stripe& s = stripes_[i];
    const std::lock_guard lock(s.mutex);
    victims.clear();
    s.pairs.for_each([&](std::uint64_t key, const PairServingState& state) {
      if (state.period == ~0ULL) return;  // never armed: placeholder, tiny
      if (state.period + ttl_periods <= current_period) victims.push_back(key);
    });
    for (const std::uint64_t key : victims) s.pairs.erase(key);
    if (!victims.empty()) s.pairs.shrink_to_fit();
    evicted += static_cast<std::int64_t>(victims.size());
  }
  evicted_total_ += evicted;
  return evicted;
}

std::int64_t PairStateStore::enforce_resident_cap(std::size_t max_pairs) {
  if (max_pairs == 0) return 0;
  struct Candidate {
    std::uint64_t period;
    std::uint64_t key;
    std::uint32_t stripe;
  };
  std::vector<Candidate> candidates;
  std::size_t total = 0;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    Stripe& s = stripes_[i];
    const std::lock_guard lock(s.mutex);
    total += s.pairs.size();
    s.pairs.for_each([&](std::uint64_t key, const PairServingState& state) {
      candidates.push_back({state.period, key, static_cast<std::uint32_t>(i)});
    });
  }
  if (total <= max_pairs) return 0;
  // Oldest armed period first; pair key breaks ties, so the victim order
  // is a total order independent of stripe count.  Never-armed entries
  // (~0ULL) sort last and are shed only under extreme pressure.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return a.period != b.period ? a.period < b.period : a.key < b.key;
  });
  const std::size_t to_evict = total - max_pairs;
  for (std::size_t i = 0; i < to_evict; ++i) {
    Stripe& s = stripes_[candidates[i].stripe];
    const std::lock_guard lock(s.mutex);
    s.pairs.erase(candidates[i].key);
  }
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    Stripe& s = stripes_[i];
    const std::lock_guard lock(s.mutex);
    s.pairs.shrink_to_fit();
  }
  evicted_total_ += static_cast<std::int64_t>(to_evict);
  return static_cast<std::int64_t>(to_evict);
}

std::size_t PairStateStore::resident_pairs() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    const std::lock_guard lock(stripes_[i].mutex);
    n += stripes_[i].pairs.size();
  }
  return n;
}

std::size_t PairStateStore::approx_bytes() {
  std::size_t n = sizeof(*this) + stripe_count_ * sizeof(Stripe);
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    Stripe& s = stripes_[i];
    const std::lock_guard lock(s.mutex);
    n += s.pairs.approx_bytes();
    s.pairs.for_each([&](std::uint64_t, const PairServingState& state) {
      n += state.bandit.heap_bytes() + state.options.capacity() * sizeof(OptionId);
    });
  }
  {
    const std::lock_guard lock(relay_mutex_);
    n += relay_load_.approx_bytes();
  }
  return n;
}

bool PairStateStore::relay_cap_allows(const RelayOption& option) {
  if (relay_share_cap_ >= 1.0) return true;
  if (option.kind == RelayKind::Direct) return true;
  const auto key_a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(option.a));
  const auto key_b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(option.b));
  const std::lock_guard lock(relay_mutex_);
  // A short warm-up so the first few calls are not all rejected.
  if (relayed_total_ >= 20) {
    const double cap = relay_share_cap_ * static_cast<double>(relayed_total_);
    if (static_cast<double>(relay_load_[key_a]) >= cap) return false;
    if (option.kind == RelayKind::Transit &&
        static_cast<double>(relay_load_[key_b]) >= cap) {
      return false;
    }
  }
  ++relay_load_[key_a];
  if (option.kind == RelayKind::Transit) ++relay_load_[key_b];
  ++relayed_total_;
  return true;
}

}  // namespace via
