// The Via controller policy: prediction-guided exploration (Algorithm 1).
//
// Per refresh period (every T hours, stages 2-3): train the predictor
// (history + tomography) on the window that just completed, and lazily
// compute per-AS-pair top-k candidate sets from it.
//
// Per call (stages 1 & 4): with probability ε route to a uniformly random
// candidate (general exploration, guarding against non-stationary rewards);
// otherwise play the modified-UCB1 bandit over the pair's top-k set.  A
// budget filter (Section 4.6) can veto relaying when the predicted benefit
// is too small for the configured relay budget.
//
// Concurrency model (DESIGN.md §6d): the policy is split into a published
// read-only ModelSnapshot (the per-period products, swapped RCU-style by
// refresh()) and a striped PairStateStore (the per-call mutable state).
// choose()/observe()/plan_probes()/top_k_for() may run concurrently from
// many threads; refresh() and attach_telemetry() require external
// exclusion (the RPC server holds its policy lock exclusively for them and
// shared for everything else — see RoutingPolicy::concurrent_safe()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/relay_option.h"
#include "core/bandit.h"
#include "core/budget.h"
#include "core/history.h"
#include "core/model_snapshot.h"
#include "core/pair_state_store.h"
#include "core/policy.h"
#include "core/predictor.h"
#include "core/relay_health.h"
#include "core/topk.h"
#include "util/rng.h"

namespace via {

class ThreadPool;

namespace obs {
class Counter;
class Gauge;
class LatencyHistogram;
class DecisionTrace;
class Tracer;
class FlightRecorder;
enum class DecisionReason : std::uint8_t;
}  // namespace obs

struct ViaConfig {
  Metric target = Metric::Rtt;       ///< the metric this instance optimizes
  double epsilon = 0.03;             ///< general-exploration fraction
  TimeSec refresh_period = 24 * 3600;  ///< T (paper default: 24 hours)
  std::uint64_t seed = 99;
  PredictorConfig predictor;
  TopKConfig topk;
  BanditConfig bandit;
  BudgetConfig budget;  ///< fraction = 1 => unconstrained

  /// Per-relay load cap (paper §4.6 mentions per-relay budget models): no
  /// single relay may carry more than this fraction of the relayed calls.
  /// 1.0 disables the cap.
  double relay_share_cap = 1.0;

  /// Per-relay health state machine (DESIGN.md §6f): quarantines relays
  /// after consecutive catastrophic observations and filters them out of
  /// candidate picks until probation re-admits them.  Disabled by default —
  /// with it off (or on but with no relay ever quarantined) decisions are
  /// bit-identical to a health-unaware policy.
  RelayHealthConfig health;

  /// Serving-state lock stripes (power of two, clamped to [1, 64]).  Each
  /// stripe guards its slice of per-pair bandit state with its own mutex
  /// and owns its own epsilon RNG stream.  1 (the default) reproduces the
  /// historical single-stream replay results bit for bit — what the
  /// simulation engine and all figure benches rely on; the controller
  /// daemon and the concurrency tests configure more stripes so decisions
  /// for unrelated pairs proceed in parallel.
  std::size_t serving_stripes = 1;

  /// Memory bounds (DESIGN.md §6i).  Every knob defaults to 0 = unbounded,
  /// which is byte-for-byte the historical behavior — golden replays and
  /// fig benches never see an eviction.  The controller daemon and the
  /// scale bench set them to run 1M+-pair workloads at fixed RSS.
  struct MemoryConfig {
    /// Cap on resident (pair, option) aggregates in the accumulating
    /// history window; clock-hand second-chance eviction past it.
    std::size_t max_window_paths = 0;
    /// Cap on memoized per-pair models in each published snapshot; cold
    /// pairs past it are served from thread-local scratch (correct bits,
    /// no growth, rebuilt per touch).
    std::size_t snapshot_memo_budget = 0;
    /// Cap on resident per-pair serving states; enforced at refresh
    /// commit, oldest armed period evicted first.
    std::size_t max_resident_pairs = 0;
    /// Serving states not re-armed for this many refresh periods are
    /// dropped at the next commit.
    std::uint64_t pair_ttl_periods = 0;
  };
  MemoryConfig mem;

  /// Eagerly rebuild the per-pair top-k/benefit memos of every pair that
  /// carried traffic last period when a new snapshot is prepared, so the
  /// first post-refresh call per pair hits the warm path (~168ns) instead
  /// of the cold predict/top-k build (~2.7µs).  Decisions are identical
  /// either way (each memo is a pure function of snapshot + pair +
  /// candidate set); off by default so replays keep the historical lazy
  /// fill order for the probe wishlist.  The daemon enables it.  Assumes a
  /// pair's candidate set is stable across calls, as everywhere else in
  /// the memoization.
  bool prewarm_pairs = false;
};

class ViaPolicy final : public RoutingPolicy, private PairBuildObserver {
 public:
  ViaPolicy(const RelayOptionTable& options, BackboneFn backbone, ViaConfig config = {});
  ~ViaPolicy() override;

  [[nodiscard]] OptionId choose(const CallContext& call) override;
  /// Batched choose (§6h): pins the published snapshot once for the whole
  /// batch instead of once per call, then decides each context exactly as
  /// choose() would.  Bit-identical to the sequential loop.
  void choose_batch(std::span<const CallContext> calls, std::span<OptionId> out) override;
  void observe(const Observation& obs) override;
  /// Monolithic refresh: prepare + commit back to back.  What the serial
  /// simulation engine drives; equivalent to the split protocol with no
  /// serving traffic in between.
  void refresh(TimeSec now) override;
  /// Split refresh (DESIGN.md §6e).  prepare_refresh() harvests the
  /// accumulating window, solves tomography, trains the predictor, and
  /// (with ViaConfig::prewarm_pairs) pre-warms per-pair memos — all into a
  /// staged snapshot, safe to run concurrently with choose()/observe()
  /// (hosts hold their policy lock shared).  Concurrent prepares serialize
  /// on an internal mutex.  commit_refresh() just publishes the staged
  /// snapshot — the RCU pointer swap is the only work left under the
  /// host's exclusive lock; with nothing staged it falls back to a full
  /// monolithic build.
  void prepare_refresh(TimeSec now) override;
  void commit_refresh(TimeSec now) override;
  /// Coverage holes collected while building per-pair candidate sets, for
  /// the active-measurement extension (§7).  Drains the wishlist.
  [[nodiscard]] std::vector<ProbeRequest> plan_probes(std::size_t max_probes) override;
  [[nodiscard]] std::string_view name() const override { return "via"; }

  /// choose/observe/plan_probes/top_k_for are safe to call concurrently;
  /// refresh and attach_telemetry still require exclusion (see policy.h).
  [[nodiscard]] bool concurrent_safe() const noexcept override { return true; }

  /// Telemetry hookup (obs/telemetry.h): per-decision reason counters and
  /// DecisionTrace events, per-refresh coverage/tomography instruments.
  /// Instrument references are resolved once here so choose() stays a few
  /// relaxed atomics.  nullptr detaches.
  void attach_telemetry(obs::Telemetry* telemetry) override;

  /// Federation hook (§6k): supplies peer-replica tomography segments to
  /// fold into each refresh's staged snapshot, right after its predictor
  /// trains and before memos/prewarm derive from it.  An unset source or
  /// an empty return is a strict no-op — decisions stay bit-identical to a
  /// standalone controller, which is what the golden-hash tests pin.
  /// Serialized with prepares; safe to call while serving.
  using PeerSegmentSource = std::function<std::vector<PeerSegment>()>;
  void set_peer_segment_source(PeerSegmentSource source);
  /// Lifetime count of peer segment estimates folded into snapshots.
  [[nodiscard]] std::int64_t peer_segments_folded() const noexcept {
    return peer_segments_folded_.load(std::memory_order_relaxed);
  }

  /// Decision accounting, for the Section 5.2 relaying-mix analysis.
  struct Stats {
    std::int64_t calls = 0;
    std::int64_t epsilon_explored = 0;
    std::int64_t bandit_served = 0;     ///< calls decided by the top-k bandit
    std::int64_t cold_start_direct = 0; ///< no prediction available yet
    std::int64_t budget_denied = 0;
    std::int64_t relay_cap_denied = 0;
    std::int64_t quarantine_rerouted = 0;    ///< pick hit a quarantined relay; substituted
    std::int64_t outage_fallback_direct = 0; ///< every candidate quarantined; direct used
    std::int64_t chose_direct = 0;
    std::int64_t chose_bounce = 0;
    std::int64_t chose_transit = 0;
    /// Decisions not served warm: they asked the snapshot for the pair's
    /// model (arming, or an over-budget pair).  calls - snapshot_lookups
    /// is the warm count.
    std::int64_t snapshot_lookups = 0;
  };
  /// A consistent-enough snapshot of the relaxed atomic counters (exact
  /// once concurrent callers have quiesced).
  [[nodiscard]] Stats stats() const noexcept;

  /// Memory accounting across the policy's three stateful layers (§6i),
  /// surfaced as the policy.mem.* gauges and /varz.  Non-const: walking
  /// the store takes its stripe locks.
  struct MemoryStats {
    std::size_t window_bytes = 0;    ///< accumulating history window
    std::size_t snapshot_bytes = 0;  ///< published snapshot (window+predictor+memos)
    std::size_t store_bytes = 0;     ///< per-pair serving state
    std::size_t window_paths = 0;
    std::size_t resident_pairs = 0;
    std::int64_t window_evictions = 0;  ///< lifetime, across all windows
    std::int64_t window_rejected = 0;   ///< lifetime path_key-range rejections
    std::int64_t store_evictions = 0;   ///< lifetime ttl+cap evictions
    std::int64_t memo_overflow_builds = 0;  ///< published snapshot only
    [[nodiscard]] std::size_t total_bytes() const noexcept {
      return window_bytes + snapshot_bytes + store_bytes;
    }
  };
  [[nodiscard]] MemoryStats memory_stats();

  /// The currently published model's predictor.  The reference is valid
  /// while the snapshot stays published; hold model() across refreshes if
  /// concurrent refreshing is possible.
  [[nodiscard]] const Predictor& predictor() const noexcept { return model()->predictor(); }
  [[nodiscard]] const ViaConfig& config() const noexcept { return config_; }

  /// The published read-only model snapshot (refresh() swaps a new one in).
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> model() const noexcept {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// The pair's current top-k set (empty if nothing predictable this
  /// period), read from the published ModelSnapshot; exposed for the
  /// deployment prototype and tests.  Const: a cold pair's model is built
  /// memoized into the snapshot, which is logically immutable.
  [[nodiscard]] std::vector<RankedOption> top_k_for(const CallContext& call) const;

  /// The per-relay health state machine (read-only; observe() drives it).
  [[nodiscard]] const RelayHealthTracker& relay_health() const noexcept { return health_; }

 private:
  /// Cached instrument pointers, all null while no telemetry is attached.
  struct Instruments {
    obs::DecisionTrace* trace = nullptr;
    /// Request tracing (§6g): null unless the attached telemetry's tracer
    /// is enabled, so the untraced choose() pays exactly one branch.
    obs::Tracer* tracer = nullptr;
    /// Flight recorder (§6g): null unless enabled; fed only by rare
    /// structural events (health transitions, total-outage fallbacks).
    obs::FlightRecorder* flight = nullptr;
    /// True only when the attached trace ring has nonzero capacity; gates
    /// the per-call DecisionEvent construction and observed-value fill-in
    /// so a disabled ring costs nothing on the choose/observe hot paths.
    bool ring = false;
    obs::Counter* ucb = nullptr;
    obs::Counter* epsilon_explore = nullptr;
    obs::Counter* budget_veto = nullptr;
    obs::Counter* fallback_direct = nullptr;
    obs::Counter* quarantined_relay = nullptr;
    obs::Counter* fallback_direct_outage = nullptr;
    obs::Counter* health_quarantine_events = nullptr;
    obs::Counter* health_readmissions = nullptr;
    obs::Gauge* health_quarantined = nullptr;
    obs::Gauge* health_degraded = nullptr;
    obs::Counter* choice_direct = nullptr;
    obs::Counter* choice_bounce = nullptr;
    obs::Counter* choice_transit = nullptr;
    obs::Counter* refreshes = nullptr;
    obs::Counter* predict_considered = nullptr;
    obs::Counter* predict_valid = nullptr;
    obs::Gauge* tomography_segments = nullptr;
    obs::Gauge* tomography_sweeps = nullptr;
    obs::LatencyHistogram* topk_size = nullptr;
    obs::LatencyHistogram* refresh_prepare_us = nullptr;
    obs::LatencyHistogram* refresh_swap_us = nullptr;
    /// §6i memory gauges, refreshed once per commit (totals, so gauges
    /// rather than counters: a restart-safe scrape sees current state).
    obs::Gauge* mem_window_bytes = nullptr;
    obs::Gauge* mem_snapshot_bytes = nullptr;
    obs::Gauge* mem_store_bytes = nullptr;
    obs::Gauge* mem_total_bytes = nullptr;
    obs::Gauge* mem_resident_pairs = nullptr;
    obs::Gauge* mem_window_evictions = nullptr;
    obs::Gauge* mem_store_evictions = nullptr;
    obs::Gauge* mem_rejected_keys = nullptr;
    obs::Gauge* mem_memo_overflow = nullptr;
  };

  /// PairBuildObserver: telemetry tallies + probe-wishlist fill for one
  /// cold per-pair model build (fires once per pair and snapshot).
  void on_pair_built(const CallContext& call, std::span<const Prediction> preds,
                     std::span<const RankedOption> top_k,
                     const TopKCoverage& coverage) override;

  void count_choice(OptionId option);
  /// Emits the reason counter + DecisionTrace event for one routed call
  /// (no-op when telemetry is detached).
  void trace_decision(const CallContext& call, OptionId option, obs::DecisionReason reason,
                      std::span<const RankedOption> top_k, std::int64_t bandit_pulls);

  /// choose() against an already-pinned snapshot — the shared body of
  /// choose() and choose_batch().  A pair already armed for `snap` is
  /// served from its PairServingState alone (warm path: one stripe lock,
  /// no memo probe).  Otherwise it is armed under the stripe lock from
  /// the memo's resident view, or — when the memo lacks one — from a view
  /// built outside the stripe lock.  stats().snapshot_lookups counts
  /// those non-warm calls.
  [[nodiscard]] OptionId choose_with(const ModelSnapshot& snap, const CallContext& call);

  /// The published snapshot via a thread-local pin revalidated against
  /// snapshot_version_.  Functionally identical to model(), but the common
  /// case (no refresh since this thread's last call) costs one acquire
  /// load of a plain word instead of an atomic<shared_ptr> load — which in
  /// libstdc++ serializes every caller on a per-object spinlock plus two
  /// contended refcount RMWs, and was a main driver of the 4/8-thread
  /// choose throughput decline.
  ///
  /// Borrowed-pin invariant: the returned reference IS the calling
  /// thread's pin (one per thread, shared by every ViaPolicy), not a copy,
  /// so a decision pays no refcount traffic on the shared control block.
  /// It stays valid, and keeps its snapshot alive, until this thread's
  /// next model_cached() call on any policy.  choose(), choose_batch() and
  /// observe() each call it once and make no nested call that could
  /// reload it (observers and telemetry never reach a policy's serving
  /// entry points); keep it that way, or copy the shared_ptr.
  [[nodiscard]] const std::shared_ptr<const ModelSnapshot>& model_cached() const noexcept;

  const RelayOptionTable* options_;
  ViaConfig config_;
  BackboneFn backbone_;  ///< kept to construct each refresh's predictor

  /// The accumulating window (stage 1).  Guarded by window_mutex_: a
  /// single insertion point keeps observation order — and therefore the
  /// next period's tomography solve — identical to the serial execution.
  std::mutex window_mutex_;
  HistoryWindow current_window_;

  /// The published read-only model (stages 2-3 products), RCU-style.
  std::atomic<std::shared_ptr<const ModelSnapshot>> snapshot_;
  /// Publication epoch: bumped (release) right after every snapshot_ store
  /// so model_cached() can revalidate thread-local pins cheaply.
  std::atomic<std::uint64_t> snapshot_version_{1};
  /// Globally unique per-instance id (never reused), keying the
  /// thread-local pins in model_cached() so a new policy constructed at a
  /// freed policy's address cannot inherit its stale cache entries.
  const std::uint64_t policy_uid_;

  /// The striped mutable serving state (stages 1 & 4).
  PairStateStore store_;

  /// Per-relay health (§6f); consulted by choose() only while
  /// config_.health.enabled, fed by observe().
  RelayHealthTracker health_;

  /// Active-measurement planning (paper §7): up to kProbeWishlistCapacity
  /// coverage holes (candidate options with no prediction) per refresh
  /// period, offered via plan_probes().
  static constexpr std::size_t kProbeWishlistCapacity = 256;
  std::mutex wishlist_mutex_;
  std::vector<ProbeRequest> probe_wishlist_;  ///< guarded by wishlist_mutex_

  /// Split-refresh staging (§6e).  prepare_mutex_ serializes prepares and
  /// guards pending_ (the built-but-unpublished snapshot) and the lazily
  /// created pre-warm pool.
  std::mutex prepare_mutex_;
  std::shared_ptr<const ModelSnapshot> pending_;
  std::unique_ptr<ThreadPool> refresh_pool_;
  PeerSegmentSource peer_segment_source_;  ///< guarded by prepare_mutex_
  std::atomic<std::int64_t> peer_segments_folded_{0};

  /// Lifetime eviction/rejection totals carried across window swaps (each
  /// completed window's counters die with it); relaxed — diagnostics only.
  std::atomic<std::int64_t> window_evictions_total_{0};
  std::atomic<std::int64_t> window_rejected_total_{0};

  Instruments inst_;
};

}  // namespace via
