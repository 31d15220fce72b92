// Flight recorder: a bounded ring of structured "something notable
// happened" events — health-state transitions, RPC errors/retries/
// fallbacks, refresh prepare/commit ticks, shed and drain actions — kept
// resident so the seconds *before* a failure can be reconstructed after
// the fact.  Events are rare by construction (no per-call producers).  They
// live in the telemetry EventRing, bounded per recording thread, and every
// recorder mirrors into FlightRing::process(), whose global sequence
// numbers give one total order across client, server, and policy
// recorders.
//
// Dumps are JSONL (one self-contained object per line) parseable back via
// FlightEvent::from_jsonl, written on demand (GetFlightRecord RPC, admin
// HTTP), on fault (test failure listeners), or at exit (--flight-recorder).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/event_ring.h"

namespace via::obs {

enum class FlightEventKind : std::uint8_t {
  HealthQuarantine = 0,  ///< relay entered quarantine (a = relay id)
  HealthReadmit = 1,     ///< relay readmitted from probation (a = relay id)
  RpcError = 2,          ///< client request failed (detail = kind: message)
  RpcRetry = 3,          ///< client retrying after a retryable error
  RpcReconnect = 4,      ///< client re-established its connection
  RpcFallback = 5,       ///< client gave up and used the direct path
  Shed = 6,              ///< server shed a request under overload (Busy)
  ProtocolError = 7,     ///< server received a malformed frame
  DrainForcedClose = 8,  ///< drain timeout forced a connection shut
  RefreshPrepare = 9,    ///< model rebuild started (a = refresh time)
  RefreshCommit = 10,    ///< new model published (a = refresh time)
  OutageFallback = 11,   ///< every candidate quarantined; direct served
  Note = 12,             ///< freeform annotation
  BackpressurePause = 13,   ///< reactor paused a connection (a = fd, b = queued bytes)
  BackpressureResume = 14,  ///< paused connection resumed (a = fd, b = queued bytes)
  ReplicaDown = 15,       ///< fed client marked a controller replica down (a = replica)
  ReplicaRehomed = 16,    ///< traffic re-homed to the ring successor (a = from, b = to)
  ReplicaRecovered = 17,  ///< probation probe succeeded; replica back in rotation (a = replica)
  RingEpochBump = 18,     ///< reply carried a newer ring epoch (a = ours, b = theirs)
};

inline constexpr std::size_t kNumFlightEventKinds = 19;

[[nodiscard]] std::string_view flight_event_kind_name(FlightEventKind k) noexcept;
[[nodiscard]] std::optional<FlightEventKind> flight_event_kind_from(
    std::string_view name) noexcept;

/// One recorded event.  `seq` comes from a process-global counter, so
/// events from different recorders merge into one total order; `wall_us`
/// is steady-clock microseconds since process start; `time` is the domain
/// timestamp (sim/report seconds) when the producer has one, else -1.
struct FlightEvent {
  std::int64_t seq = 0;
  std::int64_t wall_us = 0;
  TimeSec time = -1;
  FlightEventKind kind = FlightEventKind::Note;
  std::string detail;
  std::int64_t a = -1;  ///< kind-specific argument (relay id, refresh time, ...)
  std::int64_t b = -1;

  /// One JSON object, no trailing newline.
  [[nodiscard]] std::string to_jsonl() const;
  /// Parses a to_jsonl() line; nullopt on malformed input.
  [[nodiscard]] static std::optional<FlightEvent> from_jsonl(std::string_view line);
};

/// Flight snapshot order: by global sequence number.
struct FlightSeqOrder {
  [[nodiscard]] bool operator()(const FlightEvent& x, const FlightEvent& y) const noexcept {
    return x.seq < y.seq;
  }
};

using FlightRing = EventRing<FlightEvent, FlightSeqOrder>;

/// record() stamps each event and adds it to a FlightRing that mirrors
/// into FlightRing::process().  Capacity 0 disables recording (and the
/// process mirror) for this instance.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kEventRingCapacity)
      : ring_(capacity, &FlightRing::process()) {}

  [[nodiscard]] bool enabled() const noexcept { return ring_.enabled(); }

  /// Stamps `seq` (process-global) and `wall_us`, then records the event.
  void record(FlightEventKind kind, std::string_view detail = {}, std::int64_t a = -1,
              std::int64_t b = -1, TimeSec time = -1);

  /// Resident events in sequence order (oldest first).
  [[nodiscard]] std::vector<FlightEvent> snapshot() const { return ring_.snapshot(); }

  /// Writes the resident events as JSONL, oldest first.
  void export_jsonl(std::ostream& os) const { ring_.export_jsonl(os); }

  [[nodiscard]] std::int64_t recorded() const { return ring_.recorded(); }  ///< total ever recorded

 private:
  FlightRing ring_;
};

}  // namespace via::obs
