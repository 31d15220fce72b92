// Instrumented-client stub: the piece that lives inside the (modified)
// VoIP client.  Before a call it asks the controller which relaying option
// to use; after the call it pushes its network measurements.
//
// Robustness (DESIGN.md §6f): every round trip can run under a request
// deadline (poll-based socket timeout), with bounded retries under
// exponential backoff + deterministic jitter.  Timeouts and resets drop
// the connection and reconnect before retrying (a late response on the old
// stream would desynchronize framing); Busy retries on the same
// connection; Protocol errors never retry.  Report retries are safe end to
// end because the observation id is an idempotency key the server dedups
// on.  With `fallback_direct`, a controller that stays unreachable costs
// the caller nothing but relay gain: request_decision() returns the direct
// path instead of throwing — the paper's fail-safe deployment story.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "rpc/errors.h"
#include "rpc/messages.h"
#include "rpc/socket.h"

namespace via {

struct ClientConfig {
  /// Per-request response deadline in ms; 0 waits forever (legacy).
  int request_timeout_ms = 0;
  /// Extra attempts after the first (0 = fail fast, legacy).
  int max_retries = 0;
  int backoff_base_ms = 5;   ///< first retry delay; doubles per attempt
  int backoff_max_ms = 250;  ///< backoff ceiling
  std::uint64_t jitter_seed = 0x5eed;  ///< deterministic backoff jitter
  /// request_decision() answers "direct" instead of throwing when the
  /// controller stays unreachable through all retries.
  bool fallback_direct = false;
};

class ControllerClient {
 public:
  /// Produces a fresh transport; called on connect and every reconnect.
  /// May return a subclass (e.g. FaultyConnection) for chaos tests.
  using ConnectionFactory = std::function<std::unique_ptr<TcpConnection>()>;

  /// Connects to a local controller.  With a default config this connects
  /// eagerly and throws on failure (legacy contract); a config with
  /// retries or fallback connects lazily on first use, so a dead
  /// controller degrades instead of aborting construction.
  explicit ControllerClient(std::uint16_t port, ClientConfig config = {});

  /// Custom transport factory (chaos tests inject faults here).
  ControllerClient(ConnectionFactory factory, ClientConfig config = {});

  /// Optional telemetry: request latency histogram, bytes in/out, and
  /// request-error counters (total + per RpcErrorKind) are recorded into
  /// `registry` (caller-owned, must outlive the client).  nullptr detaches.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Optional flight recorder (§6g): RPC errors, retries, reconnects, and
  /// direct fallbacks are recorded as structured events (caller-owned,
  /// must outlive the client).  nullptr detaches.
  void attach_flight(obs::FlightRecorder* flight) noexcept { flight_ = flight; }

  /// Round trip: returns the relaying option to use for this call.  With
  /// fallback_direct, returns the direct option when the controller is
  /// unreachable (never for Protocol errors — those indicate a bug, not an
  /// outage).
  [[nodiscard]] OptionId request_decision(const DecisionRequest& request);

  /// Pushes a completed call's measurements (waits for the ack).  Safe to
  /// retry: the observation id is the idempotency key.
  void report(const Observation& obs);

  /// Asks the controller to run its periodic refresh (testbed-driven time).
  /// Safe to retry: the server dedups on the refresh timestamp.
  void refresh(TimeSec now);

  /// Fetches the controller's telemetry snapshot, rendered server-side.
  [[nodiscard]] std::string get_stats(obs::StatsFormat format = obs::StatsFormat::Json);

  /// Fetches the controller's span buffer as Chrome trace-event JSON
  /// (§6g).  `max_bytes` 0 = server default (just under the frame cap).
  [[nodiscard]] std::string get_trace(std::uint32_t max_bytes = 0);

  /// Fetches the controller's flight recorder as JSONL (newest events kept
  /// when the dump exceeds `max_bytes`).
  [[nodiscard]] std::string get_flight_record(std::uint32_t max_bytes = 0);

  /// Liveness probe (§6k): one Ping round trip; the Pong carries the
  /// replica's identity.  Throws RpcError when the replica is unreachable.
  [[nodiscard]] PongMsg ping();

  /// Pushes a segment-estimate update to a peer replica (§6k); returns the
  /// receiver's ack.  Used by the controller's gossip loop and the
  /// in-process fleet harness, not by call clients.
  [[nodiscard]] GossipSegmentsAckMsg gossip_segments(const GossipSegmentsMsg& msg);

  /// Politely ends the session (best-effort; never throws).
  void shutdown();

  /// Heap bytes held by the reused request and reply buffers.  Between
  /// requests each holds at most kRetainCapacity (conn_buffer.h): a frame
  /// that grew one past it is released once its request completes.
  [[nodiscard]] std::size_t buffer_bytes() const noexcept {
    return tx_.capacity() + rx_.payload.capacity();
  }

  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }
  /// Degradation accounting, readable without a metrics registry.
  [[nodiscard]] std::int64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::int64_t reconnects() const noexcept { return reconnects_; }
  [[nodiscard]] std::int64_t fallback_decisions() const noexcept { return fallbacks_; }

  /// Identity stamped on the most recent reply that carried one (§6k):
  /// 0/0 until a federated controller has answered.  Lets a caller
  /// attribute decisions/dumps and detect a stale ring config.
  [[nodiscard]] std::uint32_t last_replica_id() const noexcept { return last_replica_id_; }
  [[nodiscard]] std::uint64_t last_ring_epoch() const noexcept { return last_ring_epoch_; }

 private:
  /// Starts the next request frame in tx_ and returns a writer appending
  /// its payload there.
  [[nodiscard]] WireWriter begin_request();
  /// exchange(), then returns `decode(WireReader&)` over the reply's
  /// payload.  Either buffer grown past kRetainCapacity is released
  /// afterwards, whether the request succeeded or threw.
  template <typename Decode>
  decltype(auto) round_trip(MsgType type, MsgType expected, Decode&& decode);
  /// Sends the frame in tx_ and waits for the expected response type (into
  /// rx_) under the configured deadline/retry policy, recording
  /// latency/bytes/errors when metrics are attached.
  void exchange(MsgType type, MsgType expected);
  /// One attempt; every failure surfaces as a typed RpcError.
  void attempt(MsgType type, MsgType expected);
  void release_oversized_buffers() noexcept;
  void ensure_connected();
  void note_error(RpcErrorKind kind);
  void backoff_sleep(int attempt_index);

  ConnectionFactory factory_;
  ClientConfig config_;
  std::unique_ptr<TcpConnection> conn_;
  /// The request frame being sent (header + payload) and the last reply,
  /// both reused across requests so a steady-state decision or report
  /// allocates nothing (see buffer_bytes() for what they may keep).
  std::vector<std::byte> tx_;
  Frame rx_;
  bool ever_connected_ = false;
  std::int64_t retries_ = 0;
  std::int64_t reconnects_ = 0;
  std::int64_t fallbacks_ = 0;
  std::uint32_t last_replica_id_ = 0;
  std::uint64_t last_ring_epoch_ = 0;
  std::uint64_t backoff_draws_ = 0;
  obs::FlightRecorder* flight_ = nullptr;

  obs::Counter* tel_bytes_in_ = nullptr;
  obs::Counter* tel_bytes_out_ = nullptr;
  obs::Counter* tel_errors_ = nullptr;
  obs::Counter* tel_errors_timeout_ = nullptr;
  obs::Counter* tel_errors_reset_ = nullptr;
  obs::Counter* tel_errors_protocol_ = nullptr;
  obs::Counter* tel_errors_busy_ = nullptr;
  obs::Counter* tel_retries_ = nullptr;
  obs::Counter* tel_reconnects_ = nullptr;
  obs::Counter* tel_fallback_direct_ = nullptr;
  obs::LatencyHistogram* tel_request_us_ = nullptr;
};

}  // namespace via
