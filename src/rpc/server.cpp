#include "rpc/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/export.h"
#include "obs/span.h"
#include "rpc/decide_scratch.h"
#include "rpc/reactor.h"
#include "rpc/uring_reactor.h"
#include "util/rng.h"

namespace via {

namespace {
/// Estimated wire size of one DecisionResponse (call_id + option +
/// replica_id + ring_epoch payload plus the frame header, rounded up).
/// Used only to clamp batch runs to a write-capped connection's headroom,
/// so an overestimate is safe.
constexpr std::size_t kDecisionResponseEstimate = 32;

/// Admin dump size cap: the client's request, clamped so the response
/// frame (string length prefix included) stays under kMaxPayload.
[[nodiscard]] std::size_t dump_cap(const DumpRequest& req) {
  constexpr std::size_t kDefault = kMaxPayload - 4096;
  return req.max_bytes == 0 ? kDefault : std::min<std::size_t>(req.max_bytes, kDefault);
}

/// Locks a shared_mutex shared or exclusive depending on the hosted
/// policy's concurrency capability, so the request switch reads the same
/// either way.
class PolicyLock {
 public:
  PolicyLock(std::shared_mutex& mutex, bool shared) : mutex_(mutex), shared_(shared) {
    if (shared_) {
      mutex_.lock_shared();
    } else {
      mutex_.lock();
    }
  }
  ~PolicyLock() {
    if (shared_) {
      mutex_.unlock_shared();
    } else {
      mutex_.unlock();
    }
  }
  PolicyLock(const PolicyLock&) = delete;
  PolicyLock& operator=(const PolicyLock&) = delete;

 private:
  std::shared_mutex& mutex_;
  const bool shared_;
};

/// The calling worker thread's decision scratch: one for the per-frame
/// path, one for batches, so trimming after a single request walks one
/// request slot rather than a batch's worth.
DecideScratch& single_scratch() {
  thread_local DecideScratch scratch;
  return scratch;
}
DecideScratch& batch_scratch() {
  thread_local DecideScratch scratch;
  return scratch;
}

/// The policy's view of a decoded request (trace fields left unset).
CallContext call_context(const DecisionRequest& req) {
  CallContext ctx;
  ctx.id = req.call_id;
  ctx.time = req.time;
  ctx.src_as = req.src_as;
  ctx.dst_as = req.dst_as;
  ctx.key_src = req.src_as;
  ctx.key_dst = req.dst_as;
  ctx.options = req.options;
  return ctx;
}

/// Counter increment for a byte count.
std::int64_t bytes(std::size_t n) { return static_cast<std::int64_t>(n); }
}  // namespace

ControllerServer::ControllerServer(RoutingPolicy& policy, std::uint16_t port, ServerConfig config)
    : policy_(&policy),
      config_(config),
      telemetry_(4096,
                 obs::TraceConfig{.sample_rate = config.trace_sample,
                                  .buffer_capacity = config.trace_buffer},
                 config.flight_capacity),
      tel_accepted_(&telemetry_.registry.counter("rpc.server.accepted_connections")),
      tel_conn_errors_(&telemetry_.registry.counter("rpc.server.connection_errors")),
      tel_bytes_in_(&telemetry_.registry.counter("rpc.server.bytes_in")),
      tel_bytes_out_(&telemetry_.registry.counter("rpc.server.bytes_out")),
      tel_decisions_(&telemetry_.registry.counter("rpc.server.decisions")),
      tel_reports_(&telemetry_.registry.counter("rpc.server.reports")),
      tel_busy_(&telemetry_.registry.counter("rpc.server.busy_rejected")),
      tel_protocol_errors_(&telemetry_.registry.counter("rpc.server.protocol_errors")),
      tel_dup_reports_(&telemetry_.registry.counter("rpc.server.duplicate_reports")),
      tel_dup_refreshes_(&telemetry_.registry.counter("rpc.server.duplicate_refreshes")),
      tel_forced_closes_(&telemetry_.registry.counter("rpc.server.drain_forced_closes")),
      tel_bp_paused_(&telemetry_.registry.gauge("rpc.server.backpressure.paused_conns")),
      tel_bp_pauses_(&telemetry_.registry.counter("rpc.server.backpressure.paused_total")),
      tel_bp_queued_(&telemetry_.registry.gauge("rpc.server.backpressure.bytes_queued")),
      tel_uring_fallbacks_(&telemetry_.registry.counter("rpc.server.uring_fallbacks")),
      tel_pings_(&telemetry_.registry.counter("rpc.server.pings")),
      tel_gossip_updates_(&telemetry_.registry.counter("rpc.server.gossip_updates")),
      tel_request_us_(
          &telemetry_.registry.histogram("rpc.server.request_us", obs::kLatencyBoundsUs)),
      tel_inflight_(&telemetry_.registry.gauge("rpc.server.inflight")),
      tel_refresh_stall_us_(
          &telemetry_.registry.histogram("rpc.server.refresh_stall_us", obs::kLatencyBoundsUs)),
      tracer_(telemetry_.tracer_if_enabled()),
      flight_(telemetry_.flight_if_enabled()),
      policy_concurrent_(policy.concurrent_safe()),
      listener_(port),
      timeseries_recorder_(&telemetry_.registry,
                           static_cast<double>(config.timeseries_window_ms) / 1000.0) {
  if (config_.reactor_threads < 1) {
    throw std::invalid_argument("ServerConfig::reactor_threads must be >= 1");
  }
  policy_->attach_telemetry(&telemetry_);
}

ControllerServer::~ControllerServer() {
  stop();
  policy_->attach_telemetry(nullptr);
}

void ControllerServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  if (config_.timeseries_window_ms > 0) {
    {
      const std::lock_guard lock(timeseries_mutex_);
      timeseries_stop_ = false;
    }
    timeseries_thread_ = std::thread([this] { timeseries_loop(); });
  }
  // Backend resolution (§6j): kUring degrades to epoll when the kernel
  // can't run it, with a counter and a flight note so the fallback is
  // observable.
  ServingBackend want = config_.backend;
  if (want == ServingBackend::kUring && !UringReactor::supported()) {
    tel_uring_fallbacks_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEventKind::Note,
                      "io_uring backend unsupported on this kernel; serving via epoll");
    }
    want = ServingBackend::kEpoll;
  }
  active_backend_ = want;
  ReactorConfig rconfig;
  rconfig.workers = config_.reactor_threads;
  rconfig.drain_timeout_ms = config_.drain_timeout_ms;
  rconfig.write_buffer_cap = config_.write_buffer_cap;
  rconfig.worker_write_cap = config_.worker_write_cap;
  ReactorHooks hooks;
  hooks.on_accept = [this] { tel_accepted_->inc(); };
  // Decoded-but-unanswered frames count as inflight (§6h): charging them
  // here, before any dispatch, is what lets the shed check see a burst
  // that arrived within a single readiness event.
  hooks.on_decoded = [this](std::size_t n) {
    const std::int64_t now =
        inflight_.fetch_add(static_cast<std::int64_t>(n)) + static_cast<std::int64_t>(n);
    tel_inflight_->set(static_cast<double>(now));
  };
  // Frames the reactor dropped without dispatching (connection closed
  // while paused) settle the same accounting.
  hooks.on_dropped = [this](std::size_t n) { note_requests_done(n); };
  hooks.on_forced_close = [this](int fd) {
    tel_forced_closes_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEventKind::DrainForcedClose,
                      "drain timeout: connection forced shut", fd);
    }
  };
  hooks.on_conn_error = [this] { tel_conn_errors_->inc(); };
  hooks.on_pause = [this](int fd, std::size_t queued) {
    tel_bp_pauses_->inc();
    tel_bp_paused_->set(static_cast<double>(reactor_->paused_connections()));
    tel_bp_queued_->set(static_cast<double>(reactor_->queued_bytes()));
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEventKind::BackpressurePause, "write queue over cap", fd,
                      static_cast<std::int64_t>(queued));
    }
  };
  hooks.on_resume = [this](int fd, std::size_t queued) {
    tel_bp_paused_->set(static_cast<double>(reactor_->paused_connections()));
    tel_bp_queued_->set(static_cast<double>(reactor_->queued_bytes()));
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEventKind::BackpressureResume, "write queue drained", fd,
                      static_cast<std::int64_t>(queued));
    }
  };
  auto on_frames = [this](ReactorConn& conn, std::span<Frame> frames) {
    return handle_reactor_frames(conn, frames);
  };
  auto on_error = [this](ReactorConn& conn, const ProtocolError& e) {
    send_protocol_error(conn, 0, e);
  };
  if (want == ServingBackend::kUring) {
    reactor_ = std::make_unique<UringReactor>(listener_, on_frames, on_error, rconfig, hooks);
  } else {
    reactor_ = std::make_unique<Reactor>(listener_, on_frames, on_error, rconfig, hooks);
  }
  reactor_->start();
}

std::size_t ControllerServer::backpressure_paused_conns() const noexcept {
  return reactor_ != nullptr ? reactor_->paused_connections() : 0;
}

std::uint64_t ControllerServer::backpressure_pauses_total() const noexcept {
  return reactor_ != nullptr ? reactor_->pauses_total() : 0;
}

std::size_t ControllerServer::backpressure_queued_bytes() const noexcept {
  return reactor_ != nullptr ? reactor_->queued_bytes() : 0;
}

std::size_t ControllerServer::peak_conn_queued_bytes() const noexcept {
  return reactor_ != nullptr ? reactor_->peak_conn_queued_bytes() : 0;
}

std::vector<std::size_t> ControllerServer::reactor_worker_connections() const {
  return reactor_ != nullptr ? reactor_->worker_connection_counts() : std::vector<std::size_t>{};
}

void ControllerServer::timeseries_loop() {
  const auto t0 = std::chrono::steady_clock::now();
  double prev_close = 0.0;
  std::unique_lock lock(timeseries_mutex_);
  while (!timeseries_stop_) {
    timeseries_cv_.wait_for(lock, std::chrono::milliseconds(config_.timeseries_window_ms),
                            [this] { return timeseries_stop_; });
    const double now_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // Close the final (partial) window on stop too, so short-lived servers
    // still leave at least one window behind.
    if (now_s > prev_close) {
      timeseries_recorder_.close_window(prev_close, now_s);
      prev_close = now_s;
    }
  }
}

obs::TimeSeries ControllerServer::timeseries() const {
  const std::lock_guard lock(timeseries_mutex_);
  return timeseries_recorder_.series();
}

void ControllerServer::stop() {
  if (!running_.exchange(false)) return;
  if (reactor_ != nullptr) reactor_->stop();
  ::shutdown(listener_.fd(), SHUT_RDWR);
  {
    const std::lock_guard lock(timeseries_mutex_);
    timeseries_stop_ = true;
  }
  timeseries_cv_.notify_all();
  if (timeseries_thread_.joinable()) timeseries_thread_.join();
}

bool ControllerServer::run_refresh(TimeSec now) {
  const std::lock_guard serial(refresh_mutex_);
  if (now <= last_refresh_now_) return false;
  // Build the next model while decisions keep flowing (shared lock)...
  {
    const std::shared_lock lock(policy_mutex_);
    policy_->prepare_refresh(now);
  }
  // ...then stall serving only for the publish.
  {
    const obs::ScopedTimer stall_timer(*tel_refresh_stall_us_);
    const std::unique_lock lock(policy_mutex_);
    policy_->commit_refresh(now);
  }
  last_refresh_now_ = now;
  return true;
}

std::size_t ControllerServer::active_handlers() const {
  return reactor_ != nullptr ? reactor_->connection_count() : 0;
}

bool ControllerServer::note_report_seen(const Observation& obs) {
  const std::uint64_t key = hash_mix(static_cast<std::uint64_t>(obs.id),
                                     static_cast<std::uint64_t>(obs.option),
                                     static_cast<std::uint64_t>(obs.time));
  const std::lock_guard lock(dedup_mutex_);
  if (!dedup_set_.insert(key).second) return false;
  dedup_fifo_.push_back(key);
  if (dedup_fifo_.size() > config_.report_dedup_window) {
    dedup_set_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  return true;
}

bool ControllerServer::dispatch_frame(const Frame& frame, ReactorConn& conn) {
  WireReader reader(frame.payload);
  // Every reply is encoded straight onto the connection's write queue.
  auto reply = [&](MsgType type, const auto&... msg) {
    tel_bytes_out_->inc(bytes(conn.send(type, msg...)));
  };
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::DecisionRequest: {
      DecideScratch& scratch = single_scratch();
      const DecideScratch::Lease lease(scratch);
      DecisionRequest& req = scratch.requests(1)[0];
      DecisionRequest::decode_into(reader, req);
      CallContext ctx = call_context(req);
      // Request tracing (§6g): adopt the client's trace id (or derive a
      // deterministic one) and parent the policy's choose sub-spans
      // under this handler's rpc.decide span.
      std::uint64_t trace_id = req.trace_id;
      if (tracer_ != nullptr && trace_id == 0) {
        trace_id = obs::derive_trace_id(static_cast<std::uint64_t>(req.call_id));
      }
      obs::ScopedSpan srv_span(tracer_, trace_id, 0, "rpc.decide");
      ctx.trace_id = trace_id;
      ctx.parent_span = srv_span.span_id();
      DecisionResponse resp;
      resp.call_id = req.call_id;
      resp.replica_id = config_.replica_id;
      resp.ring_epoch = config_.ring_epoch;
      {
        const PolicyLock lock(policy_mutex_, policy_concurrent_);
        resp.option = policy_->choose(ctx);
      }
      tel_decisions_->inc();
      reply(MsgType::DecisionResponse, resp);
      break;
    }
    case MsgType::Report: {
      const ReportMsg msg = ReportMsg::decode(reader);
      // Idempotency (§6f): a client that timed out and resent gets its
      // ack, but the observation feeds the policy only once.
      if (config_.report_dedup_window > 0 && !note_report_seen(msg.obs)) {
        tel_dup_reports_->inc();
        reply(MsgType::ReportAck);
        break;
      }
      {
        const PolicyLock lock(policy_mutex_, policy_concurrent_);
        policy_->observe(msg.obs);
      }
      tel_reports_->inc();
      reply(MsgType::ReportAck);
      break;
    }
    case MsgType::Refresh: {
      const RefreshMsg msg = RefreshMsg::decode(reader);
      // A retried Refresh (same or older timestamp) is acked without
      // rebuilding: refresh(now) is not idempotent — it advances decay
      // and re-randomizes exploration — so the dedup is what makes
      // client-side Refresh retries safe.
      if (!run_refresh(msg.now)) tel_dup_refreshes_->inc();
      reply(MsgType::RefreshAck);
      break;
    }
    case MsgType::GetStats: {
      const StatsRequest req = StatsRequest::decode(reader);
      const auto format = req.format <= static_cast<std::uint8_t>(obs::StatsFormat::Table)
                              ? static_cast<obs::StatsFormat>(req.format)
                              : obs::StatsFormat::Json;
      StatsResponse resp;
      resp.text = obs::render_stats(telemetry_.registry.snapshot(), format);
      resp.replica_id = config_.replica_id;
      reply(MsgType::GetStatsResponse, resp);
      break;
    }
    case MsgType::GetTrace: {
      const DumpRequest req = DumpRequest::decode(reader);
      StatsResponse resp;
      resp.text = obs::chrome_trace_json(telemetry_.tracer.buffer(), dump_cap(req));
      resp.replica_id = config_.replica_id;
      reply(MsgType::GetTraceResponse, resp);
      break;
    }
    case MsgType::GetFlightRecord: {
      const DumpRequest req = DumpRequest::decode(reader);
      std::ostringstream jsonl;
      telemetry_.flight.export_jsonl(jsonl);
      StatsResponse resp;
      resp.text = std::move(jsonl).str();
      const std::size_t cap = dump_cap(req);
      if (resp.text.size() > cap) {
        // Keep the newest events: cut at the first line boundary that
        // leaves the tail within the cap.
        const std::size_t cut = resp.text.find('\n', resp.text.size() - cap);
        resp.text = cut == std::string::npos ? std::string{} : resp.text.substr(cut + 1);
      }
      resp.replica_id = config_.replica_id;
      reply(MsgType::GetFlightRecordResponse, resp);
      break;
    }
    case MsgType::Ping: {
      // Liveness probe (§6k): no request payload, exempt from shedding
      // like the other control-plane frames — probes must answer exactly
      // when the data plane is overloaded or recovering.
      PongMsg pong;
      pong.replica_id = config_.replica_id;
      pong.ring_epoch = config_.ring_epoch;
      tel_pings_->inc();
      reply(MsgType::Pong, pong);
      break;
    }
    case MsgType::GossipSegments: {
      const GossipSegmentsMsg msg = GossipSegmentsMsg::decode(reader);
      GossipSegmentsAckMsg ack;
      ack.replica_id = config_.replica_id;
      ack.ring_epoch = config_.ring_epoch;
      if (gossip_handler_) {
        ack.accepted = static_cast<std::uint32_t>(gossip_handler_(msg));
      }
      tel_gossip_updates_->inc();
      reply(MsgType::GossipSegmentsAck, ack);
      break;
    }
    case MsgType::Shutdown:
      return false;
    default:
      throw ProtocolError("unexpected message type");
  }
  return true;
}

void ControllerServer::send_busy(ReactorConn& conn, std::uint8_t frame_type,
                                 std::int64_t inflight_now) {
  tel_busy_->inc();
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::Shed, "over inflight cap; request shed",
                    static_cast<std::int64_t>(frame_type), inflight_now);
  }
  tel_bytes_out_->inc(bytes(conn.send(MsgType::Busy)));
}

void ControllerServer::send_protocol_error(ReactorConn& conn, std::uint8_t frame_type,
                                           const ProtocolError& e) {
  tel_protocol_errors_->inc();
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::ProtocolError, e.what(),
                    static_cast<std::int64_t>(frame_type));
  }
  tel_bytes_out_->inc(bytes(conn.send(MsgType::Error, ErrorMsg{frame_type, e.what()})));
}

void ControllerServer::note_requests_done(std::size_t n) {
  const std::int64_t now =
      inflight_.fetch_sub(static_cast<std::int64_t>(n)) - static_cast<std::int64_t>(n);
  tel_inflight_->set(static_cast<double>(now));
}

std::size_t ControllerServer::handle_reactor_frames(ReactorConn& conn, std::span<Frame> frames) {
  // Inflight was charged when these frames were decoded (the on_decoded
  // hook).  The return value tells the reactor how many frames this call
  // disposed of; frames it kept (write-capped partial return) stay charged
  // and come back in a later call.  Every disposing exit path — including
  // exceptions and an early Shutdown close — settles the unserved
  // remainder through this guard.
  struct PendingGuard {
    ControllerServer* server;
    std::size_t remaining;
    ~PendingGuard() {
      if (remaining > 0) server->note_requests_done(remaining);
    }
  } pending{this, frames.size()};

  std::size_t i = 0;
  while (i < frames.size()) {
    // Backpressure (§6j): once this connection's write queue is at its
    // cap, stop producing replies.  The unserved tail stays with the
    // reactor (still inflight-charged) and is redispatched after the
    // queue drains under the low-water mark.
    if (conn.write_capped()) {
      pending.remaining = 0;
      return i;
    }
    // Batched decision path (§6h): a run of DecisionRequests decoded from
    // one readiness event is served under one policy-lock acquire and one
    // model-snapshot pin.  Tracing keeps the per-frame path (exact spans),
    // and so does a configured inflight cap (exact shed accounting).
    if (tracer_ == nullptr && config_.max_inflight <= 0 &&
        frames[i].type == static_cast<std::uint8_t>(MsgType::DecisionRequest)) {
      std::size_t j = i + 1;
      while (j < frames.size() &&
             frames[j].type == static_cast<std::uint8_t>(MsgType::DecisionRequest)) {
        ++j;
      }
      // A DecisionResponse frame is 29 bytes on the wire; clamping the
      // run to the queue's headroom keeps one batch from overshooting the
      // cap by more than the final response.
      const std::size_t headroom_frames =
          std::max<std::size_t>(1, conn.write_headroom() / kDecisionResponseEstimate);
      const std::size_t run = std::min(j - i, headroom_frames);
      if (run >= 2) {
        bool keep_open = true;
        try {
          process_decision_batch(frames.subspan(i, run), conn);
        } catch (const ProtocolError& e) {
          send_protocol_error(conn, static_cast<std::uint8_t>(MsgType::DecisionRequest), e);
          keep_open = false;
        }
        note_requests_done(run);
        pending.remaining -= run;
        i += run;
        if (!keep_open) {
          conn.close_after_flush();
          return frames.size();
        }
        continue;
      }
    }
    const Frame& frame = frames[i];
    tel_bytes_in_->inc(bytes(frame.payload.size() + kFrameHeaderBytes));
    bool keep_open = true;
    {
      const obs::ScopedTimer request_timer(*tel_request_us_);
      const auto msg_type = static_cast<MsgType>(frame.type);
      const bool sheddable = msg_type == MsgType::DecisionRequest ||
                             msg_type == MsgType::Report || msg_type == MsgType::Refresh;
      const std::int64_t inflight_now = inflight_.load();
      if (config_.max_inflight > 0 && sheddable && inflight_now > config_.max_inflight) {
        send_busy(conn, frame.type, inflight_now);
      } else {
        try {
          keep_open = dispatch_frame(frame, conn);
        } catch (const ProtocolError& e) {
          send_protocol_error(conn, frame.type, e);
          keep_open = false;
        }
      }
    }
    note_requests_done(1);
    pending.remaining -= 1;
    ++i;
    if (!keep_open) {
      conn.close_after_flush();
      return frames.size();
    }
  }
  return frames.size();
}

void ControllerServer::process_decision_batch(std::span<Frame> frames, ReactorConn& conn) {
  // One histogram observation for the whole run: request_us then reflects
  // per-wakeup serving cost instead of synthetic per-frame slices.
  const obs::ScopedTimer request_timer(*tel_request_us_);
  DecideScratch& scratch = batch_scratch();
  const DecideScratch::Lease lease(scratch);
  const std::span<DecisionRequest> reqs = scratch.requests(frames.size());
  std::size_t n = 0;
  std::size_t bytes_in = 0;
  std::exception_ptr decode_error;
  for (const Frame& frame : frames) {
    bytes_in += frame.payload.size() + kFrameHeaderBytes;
    try {
      WireReader reader(frame.payload);
      DecisionRequest::decode_into(reader, reqs[n]);
      ++n;
    } catch (const ProtocolError&) {
      // Serve the cleanly decoded prefix, then surface the violation so
      // the connection closes exactly as the sequential path would.
      decode_error = std::current_exception();
      break;
    }
  }
  tel_bytes_in_->inc(bytes(bytes_in));
  scratch.ctxs.resize(n);
  scratch.picks.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.ctxs[i] = call_context(reqs[i]);
  {
    const PolicyLock lock(policy_mutex_, policy_concurrent_);
    policy_->choose_batch(scratch.ctxs, scratch.picks);
  }
  tel_decisions_->inc(static_cast<std::int64_t>(n));
  DecisionResponse resp;
  resp.replica_id = config_.replica_id;
  resp.ring_epoch = config_.ring_epoch;
  std::size_t bytes_out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    resp.call_id = reqs[i].call_id;
    resp.option = scratch.picks[i];
    bytes_out += conn.send(MsgType::DecisionResponse, resp);
  }
  tel_bytes_out_->inc(bytes(bytes_out));
  if (decode_error) std::rethrow_exception(decode_error);
}

}  // namespace via
