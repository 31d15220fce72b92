// The read-only half of the Via controller (paper stages 2-3): everything a
// refresh period produces and per-call serving only *reads*.
//
// A ModelSnapshot owns the completed history window, the predictor trained
// on it (empirical + tomography), and the per-AS-pair products derived from
// the predictor — top-k candidate sets and predicted relaying benefits.
// Snapshots are immutable once published: `refresh()` builds a fresh one
// and swaps it into an `std::atomic<std::shared_ptr<const ModelSnapshot>>`
// RCU-style, so decision threads keep serving off the old model until they
// naturally pick up the new pointer, and never block on a refresh.
//
// The per-pair products cannot be enumerated eagerly at refresh time — the
// candidate option set for a pair arrives with the first call that names it
// — so they are memoized lazily in a ShardedMap.  That stays logically
// immutable by the same argument as the ground-truth caches (DESIGN.md §6c):
// each entry is a pure function of (snapshot, pair, candidate set), so a
// concurrent duplicate build computes identical bits and a lost insert race
// is harmless.  Spans handed out over a cached top-k vector stay valid for
// the snapshot's lifetime because entries are never erased or mutated after
// publication.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/call.h"
#include "common/relay_option.h"
#include "core/history.h"
#include "core/predictor.h"
#include "core/topk.h"
#include "util/sharded_map.h"

namespace via {

class ThreadPool;

/// Hook fired exactly once per (pair, snapshot) when a lazy per-pair model
/// is built: the *mutable* side effects of a build — the active-measurement
/// probe wishlist and telemetry tallies — belong to the policy, not to the
/// immutable snapshot.  Under a concurrent duplicate build only the thread
/// whose insert wins fires the hook, so effects stay once-per-pair-period.
class PairBuildObserver {
 public:
  virtual ~PairBuildObserver() = default;

  /// `preds[i]` is the prediction for `call.options[i]`; `top_k` is the
  /// selected candidate set; `coverage` the considered/predictable tally.
  virtual void on_pair_built(const CallContext& call, std::span<const Prediction> preds,
                             std::span<const RankedOption> top_k,
                             const TopKCoverage& coverage) = 0;
};

class ModelSnapshot {
 public:
  /// One pair's slice of the model.  A resident view's span points into
  /// the memo and stays valid for the snapshot's lifetime; a non-resident
  /// one (an over-budget build, see set_memo_budget) points into
  /// thread-local scratch and must not outlive the call.
  struct PairView {
    std::span<const RankedOption> top_k;
    /// Predicted benefit of relaying: direct prediction minus the best
    /// candidate's prediction (0 when either side is unknown).
    double predicted_benefit = 0.0;
    /// Whether the view is memo-resident, so callers may keep it for as
    /// long as they keep the snapshot (PairServingState does).
    bool resident = false;
  };

  /// The cold controller's period-0 snapshot: untrained predictor, so every
  /// pair model comes out empty and calls fall back to the direct path.
  ModelSnapshot(const RelayOptionTable& options, BackboneFn backbone, Metric target,
                const PredictorConfig& predictor_config, const TopKConfig& topk_config);

  /// A refresh's product: takes ownership of the completed window and
  /// trains the predictor on it (history + tomography).
  ModelSnapshot(const RelayOptionTable& options, BackboneFn backbone, Metric target,
                const PredictorConfig& predictor_config, const TopKConfig& topk_config,
                std::uint64_t period, HistoryWindow&& window);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  /// The pair's model, memoized on first touch (see file comment for why
  /// lazy fill keeps the snapshot logically immutable).  `observer` (may be
  /// null) fires only when this call actually built the entry.  ViaPolicy
  /// calls it only to arm a pair the memo lacks (and on every call of an
  /// over-budget pair); warm calls read the resident view that arming
  /// cached in the pair's PairServingState.
  [[nodiscard]] PairView pair_model(const CallContext& call, PairBuildObserver* observer) const;

  /// The pair's memo entry if it is already resident; never builds.  One
  /// shard read lock and a probe — cheap enough to run under a caller's
  /// own lock (ViaPolicy arms memo-resident pairs under the stripe lock).
  [[nodiscard]] std::optional<PairView> resident_view(std::uint64_t pair_key) const;

  /// Eagerly builds the per-pair memos for `calls` (DESIGN.md §6e): the
  /// refresh pipeline pre-warms the pairs that carried traffic last period
  /// so the first post-publication call per pair hits the warm path
  /// instead of paying the cold predict/top-k build.  Fans the builds out
  /// over `pool` when given (nullptr = inline); safe because each entry is
  /// a pure function of (snapshot, pair, candidate set), so the values are
  /// identical to what lazy first-call fill would have produced.
  void prewarm(std::span<const CallContext> calls, PairBuildObserver* observer,
               ThreadPool* pool) const;

  /// Federation (§6k): folds peer-replica segment estimates into this
  /// snapshot's predictor.  Part of *building* a snapshot (like
  /// set_memo_budget): only valid before publication, and before any
  /// pair-model memo is built from the predictor.
  std::size_t fold_peer_segments(std::vector<PeerSegment> peers) {
    return predictor_.fold_peer_segments(std::move(peers));
  }

  [[nodiscard]] std::uint64_t period() const noexcept { return period_; }
  [[nodiscard]] const Predictor& predictor() const noexcept { return predictor_; }
  [[nodiscard]] const HistoryWindow& window() const noexcept { return window_; }
  /// Pair models built so far (diagnostics/tests).
  [[nodiscard]] std::size_t pair_models_built() const { return pair_models_.size(); }

  /// Caps memoized per-pair models; 0 (default) = unbounded.  Set before
  /// the snapshot is published (it is part of building, not serving).  Once
  /// `budget` pairs are resident, further cold pairs are served from
  /// thread-local scratch instead of being inserted: correct bits, no
  /// growth, but rebuilt on every touch and — like a lost insert race —
  /// no observer fire.  A scratch-served PairView (resident == false) is
  /// valid only until the same thread's next overflow build, so callers
  /// use it within the call and never cache it.
  void set_memo_budget(std::size_t budget) noexcept { memo_budget_ = budget; }
  [[nodiscard]] std::size_t memo_budget() const noexcept { return memo_budget_; }
  /// Cold builds served from scratch because the budget was exhausted.
  [[nodiscard]] std::int64_t memo_overflow_builds() const noexcept {
    return memo_overflow_.load(std::memory_order_relaxed);
  }

  /// Resident bytes of the full snapshot: window + predictor (tomography)
  /// + per-pair memo table including the memoized top-k vectors.
  [[nodiscard]] std::size_t approx_bytes() const;

 private:
  struct PairModel {
    std::vector<RankedOption> top_k;
    double predicted_benefit = 0.0;
  };

  /// Predict + top-k build for one cold pair (pure function of snapshot
  /// and candidate set).  `preds`/`coverage` are outputs for the observer.
  void build_pair_model(const CallContext& call, std::vector<Prediction>& preds,
                        TopKCoverage& coverage, PairModel& out) const;

  const RelayOptionTable* options_;
  Metric target_;
  TopKConfig topk_;
  std::uint64_t period_ = 0;
  HistoryWindow window_;
  Predictor predictor_;
  mutable ShardedMap<PairModel> pair_models_;
  std::size_t memo_budget_ = 0;
  /// Approximate resident-entry count (bumped on winning inserts only);
  /// avoids the 16-shard size() walk on the per-call budget check.
  mutable std::atomic<std::size_t> memo_count_{0};
  mutable std::atomic<std::int64_t> memo_overflow_{0};
};

}  // namespace via
