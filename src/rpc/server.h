// Controller server: hosts a RoutingPolicy behind the TCP protocol.  All
// connections are served by the event-driven epoll reactor (§6h, §6j) — a
// small worker pool with per-connection buffers and incremental frame
// decode.  Every DecisionRequest is served by one function: a run of
// consecutive DecisionRequests decoded from one readiness event (a lone
// one included) sheds its head past the inflight cap, then answers the
// rest under a single policy-lock acquire — through
// RoutingPolicy::choose_batch, or one choose() per request under its own
// rpc.decide span when tracing is on.  The policy sits behind a
// reader-writer lock:
// when the policy declares itself concurrent-safe (ViaPolicy does — see
// RoutingPolicy::concurrent_safe()), decision and report handlers take the
// lock shared, so clients are served in parallel.
//
// The periodic model rebuild stalls serving only for its publish (DESIGN.md
// §6e): the worker that reads a Refresh runs the policy's split protocol
// inline — prepare_refresh() under the *shared* lock (decisions keep
// flowing while tomography solves and the predictor trains), then
// commit_refresh() under the exclusive lock, which is just the RCU pointer
// swap.  Concurrent Refreshes are serialized, one prepare+commit at a time.
// The exclusive-section duration is exported as the
// rpc.server.refresh_stall_us histogram, so the serving stall a refresh
// actually causes is visible in GetStats.
//
// The server owns the protocol and its instruments; the reactor owns the
// connection-level accounts (accepts, connection errors, forced closes,
// backpressure, and the inflight count the shed checks read) and records
// them in the server's telemetry itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/policy.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/timer.h"
#include "rpc/messages.h"
#include "rpc/reactor.h"
#include "rpc/socket.h"

namespace via {

/// Serving backend (§6h, §6j).  The epoll reactor is the only one, so this
/// has a single value; it, ServerConfig::backend, serving_backend() and
/// serving_backend_name() stay only because the controller benchmark
/// (ctlbench/, frozen with its metrics) compiles against them.  A change to
/// the benchmark may remove all four.
enum class ServingBackend : std::uint8_t {
  kEpoll = 1,
};

[[nodiscard]] constexpr const char* serving_backend_name(ServingBackend) noexcept {
  return "epoll";
}

/// Robustness knobs (DESIGN.md §6f).  Shedding is off by default.  Report
/// dedup is always on (a fixed window, invisible to well-behaved clients).
struct ServerConfig {
  /// Overload shedding: when more than this many requests are being served
  /// at once, new DecisionRequest/Report/Refresh frames get an immediate
  /// Busy reply instead of queueing on the policy lock.  GetStats and
  /// Shutdown are always served (operators need them most under load).
  /// 0 disables shedding.
  std::int64_t max_inflight = 0;
  /// stop() lets in-flight connections finish for this long, then forces
  /// the stragglers closed.
  int drain_timeout_ms = 5000;

  /// Request tracing (§6g): record 1 in `trace_sample` decision traces
  /// (0 disables tracing entirely; 1 records everything).  Sampled traces
  /// cover each request's rpc.decide span (its choose() call inside the
  /// run's policy-lock acquire) plus the policy's choose sub-stages, held
  /// in the tracer's span ring (obs::kEventRingCapacity spans per
  /// recording thread), dumpable via GetTrace.  The flight recorder keeps
  /// as many events per thread; it is fed by rare structural events only
  /// — shed requests, protocol errors, forced drain closes, refresh ticks,
  /// plus whatever the hosted policy records.
  std::uint32_t trace_sample = 0;
  /// Wall-clock windowed time series: every `timeseries_window_ms` a
  /// ticker closes a window of counter/histogram deltas over the server's
  /// registry.  0 disables the ticker.
  int timeseries_window_ms = 0;

  /// Reactor worker threads (§6h); connections are pinned to the
  /// least-loaded worker at accept.  Must be >= 1: the constructor throws
  /// std::invalid_argument otherwise.
  int reactor_threads = 2;

  /// Always kEpoll; kept for the benchmark's sake (see ServingBackend).
  ServingBackend backend = ServingBackend::kEpoll;
  /// Per-connection queued-reply byte cap (0 disables backpressure): a
  /// connection at the cap stops being read until its socket drains below
  /// half the cap.  The queue can overshoot by at most one reply frame.
  std::size_t write_buffer_cap = 4 * 1024 * 1024;
  /// Aggregate queued-reply cap per reactor worker (0 disables); bounds
  /// total reply RSS when many connections stall at once.
  std::size_t worker_write_cap = 64 * 1024 * 1024;

  /// Federation identity (§6k): stamped into DecisionResponse, the
  /// stats/trace/flightrecord dumps, and the Pong payload so replies are
  /// attributable and a client can detect a stale ring.  0/0 (the
  /// default) reads as an unfederated controller on the wire.
  std::uint32_t replica_id = 0;
  std::uint64_t ring_epoch = 0;
};

class ControllerServer {
 public:
  /// Binds to 127.0.0.1:`port` (0 = ephemeral).  The policy must outlive
  /// the server.  The server owns an obs::Telemetry for its lifetime and
  /// attaches it to the policy, so GetStats sees both the RPC-layer
  /// instruments and the policy's decision counters in one registry.
  ControllerServer(RoutingPolicy& policy, std::uint16_t port = 0, ServerConfig config = {});
  ~ControllerServer();

  ControllerServer(const ControllerServer&) = delete;
  ControllerServer& operator=(const ControllerServer&) = delete;

  /// Starts the reactor workers (and the time-series ticker, if enabled).
  void start();

  /// Stops accepting, drains connections, and joins all threads.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }
  [[nodiscard]] std::int64_t decisions_served() const noexcept { return tel_decisions_->value(); }
  [[nodiscard]] std::int64_t reports_received() const noexcept { return tel_reports_->value(); }
  /// Degradation accounting (§6f), readable without parsing GetStats.
  [[nodiscard]] std::int64_t busy_rejections() const noexcept { return tel_busy_->value(); }
  [[nodiscard]] std::int64_t protocol_errors() const noexcept {
    return tel_protocol_errors_->value();
  }
  [[nodiscard]] std::int64_t duplicate_reports() const noexcept {
    return tel_dup_reports_->value();
  }
  [[nodiscard]] std::int64_t duplicate_refreshes() const noexcept {
    return tel_dup_refreshes_->value();
  }
  /// Live client connections; for tests and diagnostics.
  [[nodiscard]] std::size_t active_handlers() const;

  /// Always kEpoll; kept for the benchmark's sake (see ServingBackend).
  [[nodiscard]] ServingBackend serving_backend() const noexcept { return ServingBackend::kEpoll; }

  /// Backpressure observability (§6j); all zero before start().
  [[nodiscard]] std::size_t backpressure_paused_conns() const noexcept;
  [[nodiscard]] std::uint64_t backpressure_pauses_total() const noexcept;
  [[nodiscard]] std::size_t backpressure_queued_bytes() const noexcept;
  /// High-water mark of any single connection's write queue — the bound
  /// the soak asserts against (cap + one reply frame).
  [[nodiscard]] std::size_t peak_conn_queued_bytes() const noexcept;
  /// Live connections per reactor worker (least-connections pinning).
  [[nodiscard]] std::vector<std::size_t> reactor_worker_connections() const;

  /// The server's (and hosted policy's) telemetry.  Its decision ring has
  /// capacity 0: the policy's per-reason counters are tallied, but no
  /// decision events are kept.
  [[nodiscard]] obs::Telemetry& telemetry() noexcept { return telemetry_; }

  /// Federation (§6k): invoked for every GossipSegments frame with the
  /// decoded peer update; returns how many segment estimates were
  /// accepted (echoed in the ack).  Set before start(); unset means
  /// gossip frames are acked with accepted = 0.
  using GossipHandler = std::function<std::size_t(const GossipSegmentsMsg&)>;
  void set_gossip_handler(GossipHandler handler) { gossip_handler_ = std::move(handler); }
  [[nodiscard]] std::int64_t gossip_updates() const noexcept {
    return tel_gossip_updates_->value();
  }
  [[nodiscard]] std::int64_t pings_served() const noexcept { return tel_pings_->value(); }

  /// Copy of the windowed time series closed so far (empty unless
  /// ServerConfig::timeseries_window_ms is set).
  [[nodiscard]] obs::TimeSeries timeseries() const;

 private:
  /// Serves one decoded non-decision frame (the protocol switch).
  /// Returns false on Shutdown — the caller closes the connection.  Throws
  /// ProtocolError on malformed payloads and on a DecisionRequest, which
  /// only process_decision_batch serves.
  bool dispatch_frame(const Frame& frame, ReactorConn& conn);
  /// Reactor frame handler: serves a connection's decoded frames in order.
  /// Each run of consecutive DecisionRequests (a lone one included),
  /// clamped to the write queue's headroom, goes to process_decision_batch;
  /// every other frame goes to dispatch_frame, with Report and Refresh
  /// shed past the inflight cap.  Returns the number of frames disposed
  /// of; a partial count means the connection's write queue hit its cap
  /// and the reactor must redispatch the rest after drain (those frames
  /// stay charged as inflight).
  std::size_t handle_reactor_frames(ReactorConn& conn, std::span<Frame> frames);
  /// The only code that serves DecisionRequests (§6h).  With an inflight
  /// cap, reads inflight once and answers Busy to the run's first
  /// clamp(inflight - max_inflight, 0, run) frames; the rest are decoded
  /// and answered under one policy-lock acquire (one snapshot pin), with
  /// one request_us observation for the run.  A decode error serves the
  /// cleanly decoded prefix, then rethrows the ProtocolError.
  void process_decision_batch(std::span<Frame> frames, ReactorConn& conn);
  void send_busy(ReactorConn& conn, std::uint8_t frame_type, std::int64_t inflight_now);
  /// Error reply + accounting for a protocol violation; the reactor closes
  /// the connection after flushing.  `frame_type` is 0 for a decode-time
  /// violation (oversized frame), which has no request type to echo.
  void send_protocol_error(ReactorConn& conn, std::uint8_t frame_type, const ProtocolError& e);
  /// Records an observation's idempotency key; returns false when the key
  /// is already in the dedup window (a retried Report).
  [[nodiscard]] bool note_report_seen(const Observation& obs);
  /// Runs one refresh for a Refresh request: prepare (shared lock), then
  /// commit (exclusive lock), serialized against other Refreshes.  Blocks
  /// until the refresh is committed (the RefreshAck contract).
  /// Returns false for a retried Refresh (`now` not newer than the last
  /// committed one), which is acked without rebuilding.
  bool run_refresh(TimeSec now);
  /// Ticker thread closing wall-clock time-series windows (§6g); runs only
  /// while ServerConfig::timeseries_window_ms > 0.
  void timeseries_loop();

  RoutingPolicy* policy_;
  ServerConfig config_;
  obs::Telemetry telemetry_;
  obs::Counter* tel_bytes_in_;
  obs::Counter* tel_bytes_out_;
  obs::Counter* tel_decisions_;
  obs::Counter* tel_reports_;
  obs::Counter* tel_busy_;
  obs::Counter* tel_protocol_errors_;
  obs::Counter* tel_dup_reports_;
  obs::Counter* tel_dup_refreshes_;
  /// Federation plane (§6k): liveness probes answered and gossip updates
  /// received.
  obs::Counter* tel_pings_;
  obs::Counter* tel_gossip_updates_;
  obs::LatencyHistogram* tel_request_us_;
  /// Duration the policy lock is held *exclusively* per refresh — the span
  /// during which no decision can be served.  For a policy with a split
  /// refresh this is pointer-swap scale (µs); one whose commit does the
  /// whole rebuild shows it here.
  obs::LatencyHistogram* tel_refresh_stall_us_;
  /// §6g: null unless the respective ServerConfig knob enables them, so
  /// disabled tracing/flight-recording cost one pointer test per site.
  obs::Tracer* tracer_;
  obs::FlightRecorder* flight_;

  /// Federation gossip sink (§6k); immutable after start().
  GossipHandler gossip_handler_;

  /// Reader-writer policy guard; `policy_concurrent_` (sampled once at
  /// construction) decides whether choose/observe may share it.
  std::shared_mutex policy_mutex_;
  const bool policy_concurrent_;

  TcpListener listener_;
  /// Serves listener_ between start() and stop(); owns the inflight count
  /// and the connection instruments.  Its stats stay readable after
  /// stop().
  Reactor reactor_;

  /// Report idempotency window (§6f): the ids of the most recent
  /// kReportDedupWindow distinct observations; a retried Report whose
  /// observation is still in the window is acked without a second
  /// observe().  A set for O(1) lookup, a FIFO for eviction; guarded by
  /// dedup_mutex_.
  static constexpr std::size_t kReportDedupWindow = 8192;
  std::mutex dedup_mutex_;
  std::unordered_set<std::uint64_t> dedup_set_;
  std::deque<std::uint64_t> dedup_fifo_;
  /// Serializes Refresh requests: one prepare+commit at a time.  Guards
  /// last_refresh_now_, the largest refresh timestamp committed so far.
  std::mutex refresh_mutex_;
  TimeSec last_refresh_now_ = std::numeric_limits<TimeSec>::min();

  /// Wall-clock time-series ticker (§6g); all fields guarded by
  /// timeseries_mutex_ except the thread itself.
  mutable std::mutex timeseries_mutex_;
  std::condition_variable timeseries_cv_;  ///< wakes the ticker for stop
  obs::TimeSeriesRecorder timeseries_recorder_;
  std::thread timeseries_thread_;
  bool timeseries_stop_ = false;

  std::atomic<bool> running_{false};
};

}  // namespace via
