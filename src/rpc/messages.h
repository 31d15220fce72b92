// Controller protocol messages.  One round trip per call: the client asks
// for a relaying decision before dialing and pushes its measurements after
// hanging up — exactly the per-call controller exchange the paper
// describes in Section 7 ("one measurement update and one control message
// exchange per call").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/policy.h"
#include "core/tomography.h"
#include "rpc/framing.h"

namespace via {

enum class MsgType : std::uint8_t {
  DecisionRequest = 1,
  DecisionResponse = 2,
  Report = 3,
  ReportAck = 4,
  Refresh = 5,      ///< testbed drives controller refresh explicitly
  RefreshAck = 6,
  Shutdown = 7,
  GetStats = 8,       ///< live telemetry query (src/obs/ registry snapshot)
  GetStatsResponse = 9,
  /// Server-to-client failure replies (graceful degradation, DESIGN.md
  /// §6f): Error reports a protocol violation before the server closes the
  /// connection; Busy (empty payload) sheds a request under overload — the
  /// client backs off and retries.
  Error = 10,
  Busy = 11,
  /// Admin-plane dumps (§6g): the server's span buffer as Chrome
  /// trace-event JSON and its flight recorder as JSONL.  Exempt from
  /// shedding, like GetStats — operators need them most under duress.
  GetTrace = 12,
  GetTraceResponse = 13,
  GetFlightRecord = 14,
  GetFlightRecordResponse = 15,
  /// Federation plane (§6k).  Ping is the lightweight liveness probe (no
  /// request payload; the Pong carries the replica's identity) used by
  /// client health probes and `via_call_client ping`.  GossipSegments is
  /// the replica-to-replica segment-estimate push.  Both are exempt from
  /// shedding: probes and exchange must work exactly when the fleet is
  /// under duress.
  Ping = 16,
  Pong = 17,
  GossipSegments = 18,
  GossipSegmentsAck = 19,
};

struct DecisionRequest {
  CallId call_id = 0;
  TimeSec time = 0;
  AsId src_as = kInvalidAs;
  AsId dst_as = kInvalidAs;
  /// Candidate options the client pair can use (the testbed registers
  /// these; empty means "controller decides from its own option table").
  std::vector<OptionId> options;
  /// Request-tracing id (§6g), appended after the original fields so old
  /// peers interoperate: absent on the wire decodes as 0 ("untraced").
  std::uint64_t trace_id = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static DecisionRequest decode(WireReader& r);
  /// decode() into `out`, reusing the capacity of `out.options`, so a
  /// serving loop that keeps its requests decodes without allocating.
  static void decode_into(WireReader& r, DecisionRequest& out);
};

struct DecisionResponse {
  CallId call_id = 0;
  OptionId option = 0;
  /// Which replica answered, and under which ring configuration epoch —
  /// appended after the original fields (absent decodes as 0/0, meaning an
  /// unfederated controller), so a client can both attribute the decision
  /// and detect that its own ring config has gone stale (§6k).
  std::uint32_t replica_id = 0;
  std::uint64_t ring_epoch = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static DecisionResponse decode(WireReader& r);
};

struct ReportMsg {
  Observation obs;

  void encode(WireWriter& w) const;
  [[nodiscard]] static ReportMsg decode(WireReader& r);
};

struct RefreshMsg {
  TimeSec now = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static RefreshMsg decode(WireReader& r);
};

/// Telemetry query: the server renders its metrics registry in the
/// requested format (wire values match obs::StatsFormat: 0 = JSON,
/// 1 = Prometheus text, 2 = human-readable table).
struct StatsRequest {
  std::uint8_t format = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static StatsRequest decode(WireReader& r);
};

struct StatsResponse {
  std::string text;
  /// Replica that rendered the dump (appended field; absent decodes as 0)
  /// so multi-replica stats/trace/flightrecord dumps are attributable.
  std::uint32_t replica_id = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static StatsResponse decode(WireReader& r);
};

/// Admin-plane dump request (GetTrace / GetFlightRecord share the shape):
/// `max_bytes` caps the rendered dump so the response stays under the
/// frame payload limit; 0 means "server default" (kMaxPayload minus frame
/// overhead).  The response reuses StatsResponse's single-string payload.
struct DumpRequest {
  std::uint32_t max_bytes = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static DumpRequest decode(WireReader& r);
};

/// Pong payload: the replying replica's identity (§6k).  The Ping request
/// itself carries no payload.
struct PongMsg {
  std::uint32_t replica_id = 0;
  std::uint64_t ring_epoch = 0;

  void encode(WireWriter& w) const;
  [[nodiscard]] static PongMsg decode(WireReader& r);
};

/// Replica-to-replica segment push (§6k): the sender's identity plus its
/// solver's current segment estimates.  64 bytes per entry on the wire, so
/// the frame-size cap bounds a push to ~16k segments; senders truncate to
/// FederationConfig::exchange_max_segments before encoding.
struct GossipSegmentsMsg {
  std::uint32_t replica_id = 0;
  std::uint64_t ring_epoch = 0;
  std::vector<PeerSegment> segments;

  void encode(WireWriter& w) const;
  [[nodiscard]] static GossipSegmentsMsg decode(WireReader& r);
};

struct GossipSegmentsAckMsg {
  std::uint32_t replica_id = 0;  ///< receiver's identity
  std::uint64_t ring_epoch = 0;
  std::uint32_t accepted = 0;  ///< segment estimates stored by the receiver

  void encode(WireWriter& w) const;
  [[nodiscard]] static GossipSegmentsAckMsg decode(WireReader& r);
};

/// Payload of an MsgType::Error reply: the request frame type that failed
/// and a short human-readable reason.  The server closes the connection
/// right after sending one.
struct ErrorMsg {
  std::uint8_t request_type = 0;
  std::string text;

  void encode(WireWriter& w) const;
  [[nodiscard]] static ErrorMsg decode(WireReader& r);
};

}  // namespace via
