// The mutable half of the Via controller (paper stages 1 & 4): everything a
// per-call decision *writes* — bandit arms, the epsilon RNG, decision
// statistics, the relay budget, and per-relay load accounting.
//
// Per-pair state (the UCB bandit, re-armed from the published ModelSnapshot
// when its period changes) lives in lock stripes selected by the hashed
// pair key, so decisions for unrelated pairs proceed concurrently.  Each
// stripe also owns its own RNG stream, seeded off the policy seed and the
// stripe index: stripe 0's stream is seeded exactly like the historical
// single-stream implementation, so a store configured with ONE stripe (the
// default, what simulation replays use) reproduces pre-split results bit
// for bit, while the RPC server configures many stripes for concurrency.
//
// Global accounting is tiered by cost:
//   - decision stats: per-thread-sharded relaxed counters, always.
//   - budget gate: unlimited budget (the default) touches nothing; a
//     constrained budget wraps the exact BudgetFilter (P2
//     quantile + token bucket) in a dedicated mutex, preserving its
//     sequential semantics bit for bit.
//   - relay-share cap: disabled (cap >= 1) costs nothing; enabled, the
//     check-then-account runs under a dedicated mutex so the cap invariant
//     is never violated by a lost update.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/relay_option.h"
#include "core/bandit.h"
#include "core/budget.h"
#include "obs/metrics.h"
#include "util/cacheline.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace via {

/// One pair's mutable serving state.  `period` is the snapshot period the
/// bandit was last armed for; a newer published snapshot re-arms lazily.
struct PairServingState {
  std::uint64_t period = ~0ULL;
  UcbBandit bandit;
  /// Pre-warm context (ViaConfig::prewarm_pairs): endpoints and candidate
  /// set of the call that last re-armed this pair, captured once per
  /// period under the stripe lock so prepare_refresh() can rebuild the
  /// pair's memo in the next snapshot before it is published.  Left empty
  /// when pre-warming is off — replays pay nothing.
  AsId src_as = kInvalidAs;
  AsId dst_as = kInvalidAs;
  AsId key_src = kInvalidAs;
  AsId key_dst = kInvalidAs;
  std::vector<OptionId> options;
};

/// Decision accounting (the concurrent mirror of ViaPolicy::Stats;
/// ViaPolicy::stats() flattens it into the plain struct).  Every serving
/// thread bumps `calls` and a handful of outcome counters per decision, so
/// these are per-thread-sharded obs::Counters: single relaxed atomics here
/// put all eleven hot words on two shared cache lines and showed up as the
/// 4/8-thread throughput decline in BENCH_core.json.
struct ServingStats {
  obs::Counter calls;
  obs::Counter epsilon_explored;
  obs::Counter bandit_served;
  obs::Counter cold_start_direct;
  obs::Counter budget_denied;
  obs::Counter relay_cap_denied;
  obs::Counter quarantine_rerouted;
  obs::Counter outage_fallback_direct;
  obs::Counter chose_direct;
  obs::Counter chose_bounce;
  obs::Counter chose_transit;
};

class PairStateStore {
 public:
  /// `stripes` is clamped to a power of two in [1, 64].
  PairStateStore(std::uint64_t seed, std::size_t stripes, const BudgetConfig& budget,
                 double relay_share_cap);

  PairStateStore(const PairStateStore&) = delete;
  PairStateStore& operator=(const PairStateStore&) = delete;

  /// Padded to the destructive-interference size: stripes live in one
  /// contiguous array, and without the alignment two adjacent stripes'
  /// mutexes share a cache line, so unrelated pairs contend anyway.
  struct alignas(kDestructiveInterferenceSize) Stripe {
    std::mutex mutex;
    FlatMap<PairServingState> pairs;  ///< guarded by mutex
    Rng rng{0};                       ///< guarded by mutex (epsilon draws)
  };

  [[nodiscard]] Stripe& stripe(std::uint64_t pair_key) noexcept {
    return stripes_[stripe_index(pair_key)];
  }
  /// Direct stripe access for whole-store walks (the refresh pipeline's
  /// pre-warm harvest); callers lock each stripe's mutex themselves.
  [[nodiscard]] Stripe& stripe_at(std::size_t i) noexcept { return stripes_[i]; }
  [[nodiscard]] std::size_t stripe_count() const noexcept { return stripe_count_; }

  // ------------------------------------------------- budget gate (§4.6)
  /// Once per call, before allow_relay (mirrors BudgetFilter::on_call).
  void budget_on_call(double predicted_benefit);
  /// Whether a relay may be granted, consuming a token when it is.
  [[nodiscard]] bool budget_allow_relay(double predicted_benefit);

  // ------------------------------------------------- per-relay load cap
  /// Whether the relay-share cap permits routing another call via `option`;
  /// accounts the call's load when it does.  Exact under concurrency: the
  /// check and the account are one critical section.
  [[nodiscard]] bool relay_cap_allows(const RelayOption& option);

  // ------------------------------------------------- memory bounds (§6i)
  // Both eviction passes run from the policy's refresh commit, which the
  // host already serializes against serving (policy.h's exclusion
  // contract), so they see a quiescent store.  Both are deterministic at
  // any stripe count: eviction is decided by (armed period, pair key)
  // alone — per-entry state independent of stripe layout, insertion
  // interleaving, and hash order.

  /// Drops pairs whose bandit was last armed `ttl_periods` or more periods
  /// before `current_period` (0 = disabled).  Never-armed placeholder
  /// entries are kept.  Returns the evicted count.
  std::int64_t evict_stale(std::uint64_t current_period, std::uint64_t ttl_periods);

  /// Evicts oldest-armed pairs first (ties by pair key) until at most
  /// `max_pairs` remain (0 = unbounded).  Returns the evicted count.
  std::int64_t enforce_resident_cap(std::size_t max_pairs);

  [[nodiscard]] std::size_t resident_pairs();
  /// Resident bytes: stripe tables, per-pair bandit arms and pre-warm
  /// option vectors, and the relay-load table.
  [[nodiscard]] std::size_t approx_bytes();
  [[nodiscard]] std::int64_t evicted_total() const noexcept { return evicted_total_; }

  ServingStats stats;

 private:
  [[nodiscard]] std::size_t stripe_index(std::uint64_t pair_key) const noexcept {
    // High hash bits, like ShardedMap: FlatMap probes on the low bits.
    return static_cast<std::size_t>(splitmix64(pair_key) >> 58) & (stripe_count_ - 1);
  }

  std::size_t stripe_count_;
  std::unique_ptr<Stripe[]> stripes_;

  BudgetConfig budget_config_;
  std::mutex budget_mutex_;
  BudgetFilter budget_;  ///< guarded by budget_mutex_ (constrained path only)

  double relay_share_cap_;
  std::mutex relay_mutex_;
  FlatMap<std::int64_t> relay_load_;  ///< keyed by RelayId; guarded by relay_mutex_
  std::int64_t relayed_total_ = 0;    ///< guarded by relay_mutex_

  std::int64_t evicted_total_ = 0;  ///< written only by the refresh thread
};

}  // namespace via
