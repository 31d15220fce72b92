// DESIGN.md §6i: memory-bounded state.  Covers the PairStateStore eviction
// passes (determinism at any stripe count), the snapshot memo budget
// (identical bits from scratch-served views), and the ViaPolicy-level
// wiring (caps enforced at refresh commit, memory_stats populated,
// deterministic replay with every bound engaged).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/model_snapshot.h"
#include "core/pair_state_store.h"
#include "core/via_policy.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace via {
namespace {

// ---------------------------------------------------------------- store

std::unique_ptr<PairStateStore> make_store(std::size_t stripes) {
  return std::make_unique<PairStateStore>(99, stripes, BudgetConfig{}, 1.0);
}

void insert_pair(PairStateStore& store, std::uint64_t key, std::uint64_t period) {
  auto& stripe = store.stripe(key);
  const std::lock_guard lock(stripe.mutex);
  stripe.pairs[key].period = period;
}

std::set<std::uint64_t> resident_keys(PairStateStore& store) {
  std::set<std::uint64_t> keys;
  for (std::size_t i = 0; i < store.stripe_count(); ++i) {
    auto& stripe = store.stripe_at(i);
    const std::lock_guard lock(stripe.mutex);
    stripe.pairs.for_each(
        [&](std::uint64_t key, const PairServingState&) { keys.insert(key); });
  }
  return keys;
}

TEST(PairStateStore, EvictStaleDropsOldKeepsFreshAndNeverArmed) {
  auto store = make_store(4);
  insert_pair(*store, 1, 2);   // stale at period 10, ttl 3
  insert_pair(*store, 2, 8);   // fresh
  insert_pair(*store, 3, 7);   // exactly at the ttl boundary: evicted
  {
    auto& stripe = store->stripe(4);
    const std::lock_guard lock(stripe.mutex);
    (void)stripe.pairs[4];  // never armed (period stays ~0ULL): kept
  }
  EXPECT_EQ(store->evict_stale(10, 3), 2);
  const auto keys = resident_keys(*store);
  EXPECT_EQ(keys, (std::set<std::uint64_t>{2, 4}));
  EXPECT_EQ(store->evicted_total(), 2);
  EXPECT_EQ(store->evict_stale(10, 0), 0);  // ttl 0 = disabled
}

TEST(PairStateStore, ResidentCapEvictsOldestArmedFirst) {
  auto store = make_store(1);
  for (std::uint64_t k = 1; k <= 10; ++k) insert_pair(*store, k, k);
  EXPECT_EQ(store->enforce_resident_cap(4), 6);
  EXPECT_EQ(resident_keys(*store), (std::set<std::uint64_t>{7, 8, 9, 10}));
  EXPECT_EQ(store->resident_pairs(), 4u);
  EXPECT_EQ(store->enforce_resident_cap(0), 0);  // 0 = unbounded
}

TEST(PairStateStore, EvictionDeterministicAcrossStripeCounts) {
  // The victim set must be a pure function of (armed period, pair key) —
  // identical no matter how the pairs are spread over stripes.
  for (const auto& [ttl, cap] : {std::pair<std::uint64_t, std::size_t>{4, 0},
                                std::pair<std::uint64_t, std::size_t>{0, 60},
                                std::pair<std::uint64_t, std::size_t>{6, 40}}) {
    auto one = make_store(1);
    auto four = make_store(4);
    auto sixtyfour = make_store(64);
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t key = hash_mix(0xfeed, i);
      const std::uint64_t period = hash_mix(key, 0x60) % 12;
      insert_pair(*one, key, period);
      insert_pair(*four, key, period);
      insert_pair(*sixtyfour, key, period);
    }
    for (auto* store : {one.get(), four.get(), sixtyfour.get()}) {
      if (ttl > 0) store->evict_stale(12, ttl);
      if (cap > 0) store->enforce_resident_cap(cap);
    }
    const auto survivors = resident_keys(*one);
    EXPECT_EQ(resident_keys(*four), survivors);
    EXPECT_EQ(resident_keys(*sixtyfour), survivors);
  }
}

// ------------------------------------------------------------- snapshot

class MemoBudgetTest : public ::testing::Test {
 protected:
  MemoBudgetTest() {
    bounce_a_ = options_.intern_bounce(0);
    bounce_b_ = options_.intern_bounce(1);
    candidates_ = {RelayOptionTable::direct_id(), bounce_a_, bounce_b_};
  }

  [[nodiscard]] HistoryWindow filled_window() const {
    HistoryWindow window(&options_);
    for (AsId src = 1; src <= 6; ++src) {
      for (int i = 0; i < 4; ++i) {
        Observation o;
        o.src_as = src;
        o.dst_as = 100;
        o.option = RelayOptionTable::direct_id();
        o.perf = {250.0 + src + i, 0.5, 4.0};
        window.add(o);
        o.option = bounce_a_;
        o.perf = {110.0 + src + i, 0.4, 3.0};
        window.add(o);
        o.option = bounce_b_;
        o.perf = {190.0 + src + i, 0.6, 5.0};
        window.add(o);
      }
    }
    return window;
  }

  [[nodiscard]] std::unique_ptr<ModelSnapshot> make_snapshot(std::size_t budget) const {
    auto snap = std::make_unique<ModelSnapshot>(
        options_, [](RelayId, RelayId) { return PathPerformance{}; }, Metric::Rtt,
        PredictorConfig{}, TopKConfig{}, 1, filled_window());
    snap->set_memo_budget(budget);
    return snap;
  }

  CallContext ctx(AsId src) const {
    CallContext c;
    c.id = src;
    c.src_as = src;
    c.dst_as = 100;
    c.key_src = src;
    c.key_dst = 100;
    c.options = candidates_;
    return c;
  }

  RelayOptionTable options_;
  OptionId bounce_a_ = kInvalidOption;
  OptionId bounce_b_ = kInvalidOption;
  std::vector<OptionId> candidates_;
};

TEST_F(MemoBudgetTest, OverflowServesIdenticalBits) {
  auto unbounded = make_snapshot(0);
  auto budgeted = make_snapshot(2);

  for (AsId src = 1; src <= 6; ++src) {
    const auto expect = unbounded->pair_model(ctx(src), nullptr);
    const auto got = budgeted->pair_model(ctx(src), nullptr);
    ASSERT_EQ(expect.top_k.size(), got.top_k.size()) << "pair " << src;
    for (std::size_t i = 0; i < expect.top_k.size(); ++i) {
      EXPECT_EQ(expect.top_k[i].option, got.top_k[i].option);
      EXPECT_EQ(expect.top_k[i].pred.mean, got.top_k[i].pred.mean);
      EXPECT_EQ(expect.top_k[i].pred.sem, got.top_k[i].pred.sem);
    }
    EXPECT_EQ(expect.predicted_benefit, got.predicted_benefit);
  }
  EXPECT_EQ(unbounded->memo_overflow_builds(), 0);
  // 6 pairs through a 2-entry budget: at least 4 scratch-served builds
  // (every re-touch of an overflowed pair rebuilds).
  EXPECT_GE(budgeted->memo_overflow_builds(), 4);
  // The budgeted snapshot's memo table stayed bounded.
  EXPECT_LT(budgeted->approx_bytes(), unbounded->approx_bytes());
}

// --------------------------------------------------------------- policy

class BoundedPolicyTest : public ::testing::Test {
 protected:
  BoundedPolicyTest() {
    bounce_a_ = options_.intern_bounce(0);
    bounce_b_ = options_.intern_bounce(1);
    candidates_ = {RelayOptionTable::direct_id(), bounce_a_, bounce_b_};
  }

  [[nodiscard]] std::unique_ptr<ViaPolicy> make_policy(ViaConfig config) {
    return std::make_unique<ViaPolicy>(
        options_, [](RelayId, RelayId) { return PathPerformance{}; }, config);
  }

  CallContext ctx(CallId id, AsId src, TimeSec t) const {
    CallContext c;
    c.id = id;
    c.time = t;
    c.src_as = src;
    c.dst_as = 1000;
    c.key_src = src;
    c.key_dst = 1000;
    c.options = candidates_;
    return c;
  }

  /// Drives `days` periods of traffic over `num_pairs` pairs; returns the
  /// chosen option sequence.  `batch` > 1 decides that many calls per
  /// choose_batch() and observes them after the batch.
  std::vector<OptionId> drive(ViaPolicy& policy, int days, AsId num_pairs,
                              std::size_t batch = 1) {
    std::vector<OptionId> choices;
    std::vector<CallContext> calls;
    std::vector<OptionId> picks;
    auto flush = [&] {
      picks.resize(calls.size());
      if (batch > 1) {
        policy.choose_batch(calls, picks);
      } else {
        for (std::size_t i = 0; i < calls.size(); ++i) picks[i] = policy.choose(calls[i]);
      }
      for (std::size_t i = 0; i < calls.size(); ++i) {
        const OptionId pick = picks[i];
        choices.push_back(pick);
        Observation o;
        o.id = calls[i].id;
        o.time = calls[i].time;
        o.src_as = calls[i].key_src;
        o.dst_as = calls[i].key_dst;
        o.option = pick;
        const double base = pick == bounce_a_ ? 110.0 : pick == bounce_b_ ? 190.0 : 250.0;
        o.perf = {base + static_cast<double>(calls[i].src_as % 7), 0.5, 4.0};
        policy.observe(o);
      }
      calls.clear();
    };
    CallId id = 0;
    for (int day = 0; day < days; ++day) {
      for (AsId src = 1; src <= num_pairs; ++src) {
        // The pair set shrinks over time, so late periods leave early
        // pairs stale (TTL food).
        if (src > num_pairs - day * 8) continue;
        const TimeSec t = static_cast<TimeSec>(day) * kSecondsPerDay + src;
        calls.push_back(ctx(++id, src, t));
        if (calls.size() >= batch) flush();
      }
      flush();
      policy.refresh(static_cast<TimeSec>(day + 1) * kSecondsPerDay);
    }
    return choices;
  }

  [[nodiscard]] static ViaConfig bounded_config() {
    ViaConfig config;
    config.mem.max_window_paths = 64;
    config.mem.snapshot_memo_budget = 24;
    config.mem.max_resident_pairs = 40;
    config.mem.pair_ttl_periods = 2;
    return config;
  }

  RelayOptionTable options_;
  OptionId bounce_a_ = kInvalidOption;
  OptionId bounce_b_ = kInvalidOption;
  std::vector<OptionId> candidates_;
};

TEST_F(BoundedPolicyTest, CapsEnforcedAndStatsPopulated) {
  auto policy = make_policy(bounded_config());
  drive(*policy, 5, 100);
  ViaPolicy::MemoryStats mem = policy->memory_stats();
  EXPECT_LE(mem.resident_pairs, 40u);
  EXPECT_LE(mem.window_paths, 64u);
  EXPECT_GT(mem.window_bytes, 0u);
  EXPECT_GT(mem.snapshot_bytes, 0u);
  EXPECT_GT(mem.store_bytes, 0u);
  EXPECT_EQ(mem.total_bytes(), mem.window_bytes + mem.snapshot_bytes + mem.store_bytes);
  // 100 pairs × 3 options through a 64-path window: must have evicted.
  EXPECT_GT(mem.window_evictions, 0);
  EXPECT_GT(mem.store_evictions, 0);
  EXPECT_EQ(mem.window_rejected, 0);
}

TEST_F(BoundedPolicyTest, DeterministicReplayWithEvictionOn) {
  auto a = make_policy(bounded_config());
  auto b = make_policy(bounded_config());
  const auto choices_a = drive(*a, 5, 100);
  const auto choices_b = drive(*b, 5, 100);
  EXPECT_EQ(choices_a, choices_b);
  const auto mem_a = a->memory_stats();
  const auto mem_b = b->memory_stats();
  EXPECT_EQ(mem_a.window_evictions, mem_b.window_evictions);
  EXPECT_EQ(mem_a.store_evictions, mem_b.store_evictions);
  EXPECT_EQ(mem_a.resident_pairs, mem_b.resident_pairs);
}

TEST_F(BoundedPolicyTest, TinyMemoBudgetChoosesLikeUnbounded) {
  // Warm decisions serve the memo view cached at arming; an over-budget
  // pair's view lives in thread-local scratch and must never be cached, so
  // it is rebuilt (and counted) on every touch.  The ring makes every
  // decision read its top-k span, so a cached scratch view would also show
  // under ASan.
  ViaConfig tiny;
  tiny.mem.snapshot_memo_budget = 2;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
    auto unbounded = make_policy(ViaConfig{});
    auto bounded = make_policy(tiny);
    obs::Telemetry unbounded_telemetry;
    obs::Telemetry bounded_telemetry;
    unbounded->attach_telemetry(&unbounded_telemetry);
    bounded->attach_telemetry(&bounded_telemetry);
    const auto expect = drive(*unbounded, 4, 40, batch);
    EXPECT_EQ(drive(*bounded, 4, 40, batch), expect) << "batch " << batch;
    EXPECT_EQ(unbounded->memory_stats().memo_overflow_builds, 0);
    unbounded->attach_telemetry(nullptr);
    bounded->attach_telemetry(nullptr);
  }

  // A fresh snapshot (refresh, no pre-warm) admits the first two pairs;
  // the other eight overflow on each of three rounds of calls.
  auto bounded = make_policy(tiny);
  drive(*bounded, 3, 40);
  ASSERT_EQ(bounded->memory_stats().memo_overflow_builds, 0);
  const ViaPolicy::Stats before = bounded->stats();
  CallId id = 100000;
  for (int round = 0; round < 3; ++round) {
    for (AsId src = 1; src <= 10; ++src) {
      (void)bounded->choose(ctx(++id, src, 3 * kSecondsPerDay + round));
    }
  }
  EXPECT_EQ(bounded->memory_stats().memo_overflow_builds, 8 * 3);
  EXPECT_EQ(bounded->model()->pair_models_built(), 2u);
  // Round one arms all ten pairs; afterwards only the two resident pairs
  // are served warm, the eight over-budget ones ask the snapshot each call.
  const ViaPolicy::Stats after = bounded->stats();
  EXPECT_EQ(after.calls - before.calls, 30);
  EXPECT_EQ(after.snapshot_lookups - before.snapshot_lookups, 10 + 8 * 2);
}

TEST_F(BoundedPolicyTest, UnboundedConfigNeverEvicts) {
  auto policy = make_policy(ViaConfig{});
  drive(*policy, 5, 100);
  const auto mem = policy->memory_stats();
  EXPECT_EQ(mem.window_evictions, 0);
  EXPECT_EQ(mem.store_evictions, 0);
  EXPECT_EQ(mem.memo_overflow_builds, 0);
  EXPECT_EQ(mem.window_rejected, 0);
}

}  // namespace
}  // namespace via
