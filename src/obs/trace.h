// Per-call decision tracing: one structured event per routed call,
// recording *why* the controller picked the option it picked (§4.4-4.6
// decision taxonomy).  Events live in bounded per-thread rings (old entries
// are overwritten) and export as JSONL, one self-contained object per
// line, parseable back into DecisionEvent for offline analysis.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace via::obs {

/// Why a call was routed the way it was.  Exactly one reason per call.
enum class DecisionReason : std::uint8_t {
  Ucb = 0,             ///< modified-UCB1 pick over the pair's top-k set
  EpsilonExplore = 1,  ///< ε general-exploration pick over all candidates
  BudgetVeto = 2,      ///< relay denied by budget/relay-cap; direct used
  FallbackDirect = 3,  ///< cold start: nothing predictable, direct used
  BackgroundRelay = 4, ///< connectivity-relayed traffic, not a policy pick
  QuarantinedRelay = 5,    ///< pick used a quarantined relay; rerouted
  FallbackDirectOutage = 6,///< all top-k candidates quarantined; direct used
};

inline constexpr std::size_t kNumDecisionReasons = 7;

[[nodiscard]] constexpr std::string_view decision_reason_name(DecisionReason r) noexcept {
  switch (r) {
    case DecisionReason::Ucb:
      return "ucb";
    case DecisionReason::EpsilonExplore:
      return "epsilon_explore";
    case DecisionReason::BudgetVeto:
      return "budget_veto";
    case DecisionReason::FallbackDirect:
      return "fallback_direct";
    case DecisionReason::BackgroundRelay:
      return "background_relay";
    case DecisionReason::QuarantinedRelay:
      return "quarantined_relay";
    case DecisionReason::FallbackDirectOutage:
      return "fallback_direct_outage";
  }
  return "?";
}

[[nodiscard]] std::optional<DecisionReason> decision_reason_from(std::string_view name) noexcept;

/// One routed call's decision record.  `predicted` is the controller's
/// mean prediction for the chosen option on its target metric at decision
/// time; `observed` is the measurement that came back (NaN until the
/// completed call is reported, and serialized as JSON null).
struct DecisionEvent {
  CallId call_id = 0;
  TimeSec time = 0;
  AsId src_as = kInvalidAs;
  AsId dst_as = kInvalidAs;
  OptionId option = kInvalidOption;
  DecisionReason reason = DecisionReason::FallbackDirect;
  double predicted = std::numeric_limits<double>::quiet_NaN();
  double observed = std::numeric_limits<double>::quiet_NaN();
  std::int32_t top_k_size = 0;      ///< size of the pair's top-k set
  std::int64_t bandit_pulls = 0;    ///< pair bandit's total plays at decision time

  /// One JSON object, no trailing newline.
  [[nodiscard]] std::string to_jsonl() const;
  /// Parses a to_jsonl() line; nullopt on malformed input.
  [[nodiscard]] static std::optional<DecisionEvent> from_jsonl(std::string_view line);
};

/// Bounded, thread-safe ring buffer of DecisionEvents.  A call-id index
/// lets the completed-call measurement be filled into its event in O(1)
/// while the event is still resident.  Capacity 0 disables the ring
/// entirely: record()/fill_observed() become no-ops, and callers can (and
/// the policy does) check enabled() to skip building events altogether.
///
/// Sharding.  Every serving thread records a decision per call, so the
/// ring is split into up to kMaxShards shards, one per recording thread
/// (picked by tls_counter_slot(); threads past kMaxShards share).  A shard
/// is created on its thread's first record() and then owns:
///   - its own mutex, taken by its recording thread and, rarely, by a
///     fill_observed() or snapshot() from another thread;
///   - a ring of `capacity` events, reserved when the shard is created;
///   - an open-addressing index (call id -> ring slot, FlatMap with
///     backward-shift delete) reserved for `capacity` ids.
/// record() therefore neither contends nor allocates once its shard exists.
///
/// Bounds and order.  The capacity bound is per shard: each shard keeps
/// its thread's newest `capacity` events, so a trace recorded from N
/// threads holds up to min(N, kMaxShards) * capacity events.  snapshot()
/// concatenates the shards in shard order, each oldest first; events of
/// different threads are not ordered against each other.  Recording from
/// one thread (the simulation engine, every single-threaded caller) uses
/// one shard and keeps exactly the newest `capacity` events, oldest first.
///
/// Lookup.  fill_observed() searches the caller's own shard first, then
/// the others, and fills the first resident match it finds.  Within
/// a shard a repeated call id resolves to its newest event.
class DecisionTrace {
 public:
  static constexpr std::size_t kMaxShards = 16;  // power of two

  explicit DecisionTrace(std::size_t capacity = 4096);
  ~DecisionTrace();

  DecisionTrace(const DecisionTrace&) = delete;
  DecisionTrace& operator=(const DecisionTrace&) = delete;

  /// False when constructed with capacity 0 (tracing turned off).
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  void record(const DecisionEvent& event);

  /// Fills `observed` into the resident event for `call_id`, if any.
  void fill_observed(CallId call_id, double observed);

  /// Resident events: shard by shard, each oldest first.
  [[nodiscard]] std::vector<DecisionEvent> snapshot() const;

  /// Writes the resident events as JSONL, in snapshot() order.
  void export_jsonl(std::ostream& os) const;

  /// Events each shard keeps (the per-shard bound).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::int64_t recorded() const;  ///< total ever recorded
  [[nodiscard]] std::int64_t dropped() const;   ///< overwritten by wraparound

 private:
  struct Shard;

  [[nodiscard]] Shard& own_shard();
  /// Runs fn(const Shard&) on every created shard, each under its mutex.
  template <typename Fn>
  void for_each_shard(Fn&& fn) const;

  const std::size_t capacity_;
  std::atomic<Shard*> shards_[kMaxShards] = {};  ///< created once, freed by ~DecisionTrace
  std::mutex create_mutex_;                      ///< serializes shard creation
};

}  // namespace via::obs
