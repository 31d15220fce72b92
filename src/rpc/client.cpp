#include "rpc/client.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/relay_option.h"
#include "obs/timer.h"
#include "util/rng.h"

namespace via {

ControllerClient::ControllerClient(std::uint16_t port, ClientConfig config)
    : ControllerClient(
          [port]() -> std::unique_ptr<TcpConnection> {
            return std::make_unique<TcpConnection>(TcpConnection::connect_local(port));
          },
          config) {}

ControllerClient::ControllerClient(ConnectionFactory factory, ClientConfig config)
    : factory_(std::move(factory)), config_(config) {
  // Legacy contract: a plain client connects in the constructor and throws
  // on failure.  A resilient config connects lazily so a dead controller
  // degrades (retry/fallback) instead of aborting construction.
  if (config_.max_retries == 0 && !config_.fallback_direct) ensure_connected();
}

void ControllerClient::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tel_bytes_in_ = nullptr;
    tel_bytes_out_ = nullptr;
    tel_errors_ = nullptr;
    tel_errors_timeout_ = nullptr;
    tel_errors_reset_ = nullptr;
    tel_errors_protocol_ = nullptr;
    tel_errors_busy_ = nullptr;
    tel_retries_ = nullptr;
    tel_reconnects_ = nullptr;
    tel_fallback_direct_ = nullptr;
    tel_request_us_ = nullptr;
    return;
  }
  tel_bytes_in_ = &registry->counter("rpc.client.bytes_in");
  tel_bytes_out_ = &registry->counter("rpc.client.bytes_out");
  tel_errors_ = &registry->counter("rpc.client.request_errors");
  tel_errors_timeout_ = &registry->counter("rpc.client.errors.timeout");
  tel_errors_reset_ = &registry->counter("rpc.client.errors.reset");
  tel_errors_protocol_ = &registry->counter("rpc.client.errors.protocol");
  tel_errors_busy_ = &registry->counter("rpc.client.errors.busy");
  tel_retries_ = &registry->counter("rpc.client.retries");
  tel_reconnects_ = &registry->counter("rpc.client.reconnects");
  tel_fallback_direct_ = &registry->counter("rpc.client.fallback_direct");
  tel_request_us_ = &registry->histogram("rpc.client.request_us", obs::kLatencyBoundsUs);
}

void ControllerClient::ensure_connected() {
  if (conn_ != nullptr && conn_->valid()) return;
  conn_ = factory_();
  conn_->set_recv_timeout_ms(config_.request_timeout_ms);
  if (ever_connected_) {
    ++reconnects_;
    if (tel_reconnects_ != nullptr) tel_reconnects_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEventKind::RpcReconnect, "reconnected to controller");
    }
  }
  ever_connected_ = true;
}

void ControllerClient::note_error(RpcErrorKind kind) {
  if (tel_errors_ != nullptr) tel_errors_->inc();
  obs::Counter* by_kind = nullptr;
  switch (kind) {
    case RpcErrorKind::Timeout:
      by_kind = tel_errors_timeout_;
      break;
    case RpcErrorKind::Reset:
      by_kind = tel_errors_reset_;
      break;
    case RpcErrorKind::Protocol:
      by_kind = tel_errors_protocol_;
      break;
    case RpcErrorKind::Busy:
      by_kind = tel_errors_busy_;
      break;
  }
  if (by_kind != nullptr) by_kind->inc();
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::RpcError, rpc_error_kind_name(kind));
  }
}

void ControllerClient::backoff_sleep(int attempt_index) {
  if (config_.backoff_base_ms <= 0) return;
  const double base = static_cast<double>(config_.backoff_base_ms) *
                      static_cast<double>(1 << std::min(attempt_index, 16));
  const double capped = std::min(base, static_cast<double>(config_.backoff_max_ms));
  // Deterministic jitter in [0.5, 1.5): decorrelates a retrying fleet
  // without giving up run-to-run reproducibility.
  const double jitter =
      0.5 + hashed_uniform(hash_mix(config_.jitter_seed, ++backoff_draws_));
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(capped * jitter));
}

Frame ControllerClient::attempt(MsgType type, const WireWriter& w, MsgType expected) {
  try {
    ensure_connected();
    if (tel_bytes_out_ != nullptr) {
      tel_bytes_out_->inc(static_cast<std::int64_t>(w.bytes().size() + kFrameHeaderBytes));
    }
    send_frame(*conn_, static_cast<std::uint8_t>(type), w.bytes());
    Frame frame;
    if (!recv_frame(*conn_, frame)) {
      throw RpcError(RpcErrorKind::Reset, "controller closed connection");
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::Busy)) {
      throw RpcError(RpcErrorKind::Busy, "server shed request under overload");
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::Error)) {
      std::string text = "server reported a protocol error";
      try {
        WireReader r(frame.payload);
        text = ErrorMsg::decode(r).text;
      } catch (const std::exception&) {
        // Even the error payload was malformed; keep the generic text.
      }
      throw RpcError(RpcErrorKind::Protocol, text);
    }
    if (frame.type != static_cast<std::uint8_t>(expected)) {
      throw RpcError(RpcErrorKind::Protocol, "unexpected response type");
    }
    if (tel_bytes_in_ != nullptr) {
      tel_bytes_in_->inc(static_cast<std::int64_t>(frame.payload.size() + kFrameHeaderBytes));
    }
    return frame;
  } catch (const RpcError&) {
    throw;
  } catch (const ProtocolError& e) {
    throw RpcError(RpcErrorKind::Protocol, e.what());
  } catch (const std::exception& e) {
    // connect/send/recv failures (system_error, mid-message EOF): the
    // connection is gone or poisoned either way.
    throw RpcError(RpcErrorKind::Reset, e.what());
  }
}

Frame ControllerClient::round_trip(MsgType type, const WireWriter& w, MsgType expected) {
  const obs::ScopedTimer timer(tel_request_us_);
  for (int attempt_index = 0;; ++attempt_index) {
    try {
      return attempt(type, w, expected);
    } catch (const RpcError& e) {
      note_error(e.kind());
      // Timeout/reset poison the stream (a late response would arrive as
      // the *next* request's reply) — drop the connection; the retry
      // reconnects.  Busy keeps the healthy connection.
      if (e.kind() != RpcErrorKind::Busy) conn_.reset();
      if (!e.retryable() || attempt_index >= config_.max_retries) throw;
      ++retries_;
      if (tel_retries_ != nullptr) tel_retries_->inc();
      if (flight_ != nullptr) {
        flight_->record(obs::FlightEventKind::RpcRetry, e.what(), attempt_index + 1);
      }
      backoff_sleep(attempt_index);
    }
  }
}

OptionId ControllerClient::request_decision(const DecisionRequest& request) {
  WireWriter w;
  request.encode(w);
  try {
    Frame frame = round_trip(MsgType::DecisionRequest, w, MsgType::DecisionResponse);
    WireReader r(frame.payload);
    const DecisionResponse resp = DecisionResponse::decode(r);
    if (resp.call_id != request.call_id) {
      throw RpcError(RpcErrorKind::Protocol, "response call-id mismatch");
    }
    if (resp.ring_epoch != 0) {
      last_replica_id_ = resp.replica_id;
      last_ring_epoch_ = resp.ring_epoch;
    }
    return resp.option;
  } catch (const RpcError& e) {
    // Fail safe (§6f): an unreachable controller must not drop the call —
    // the client takes the default Internet path on its own.  Protocol
    // errors are bugs, not outages; they still propagate.
    if (config_.fallback_direct && e.kind() != RpcErrorKind::Protocol) {
      ++fallbacks_;
      if (tel_fallback_direct_ != nullptr) tel_fallback_direct_->inc();
      if (flight_ != nullptr) {
        flight_->record(obs::FlightEventKind::RpcFallback,
                        "controller unreachable; call served direct", request.call_id);
      }
      return RelayOptionTable::direct_id();
    }
    throw;
  }
}

void ControllerClient::report(const Observation& obs) {
  WireWriter w;
  ReportMsg{obs}.encode(w);
  (void)round_trip(MsgType::Report, w, MsgType::ReportAck);
}

void ControllerClient::refresh(TimeSec now) {
  WireWriter w;
  RefreshMsg{now}.encode(w);
  (void)round_trip(MsgType::Refresh, w, MsgType::RefreshAck);
}

std::string ControllerClient::get_stats(obs::StatsFormat format) {
  WireWriter w;
  StatsRequest{static_cast<std::uint8_t>(format)}.encode(w);
  Frame frame = round_trip(MsgType::GetStats, w, MsgType::GetStatsResponse);
  WireReader r(frame.payload);
  StatsResponse resp = StatsResponse::decode(r);
  last_replica_id_ = resp.replica_id;
  return std::move(resp.text);
}

PongMsg ControllerClient::ping() {
  const WireWriter w;  // Ping has no payload
  Frame frame = round_trip(MsgType::Ping, w, MsgType::Pong);
  WireReader r(frame.payload);
  const PongMsg pong = PongMsg::decode(r);
  last_replica_id_ = pong.replica_id;
  if (pong.ring_epoch != 0) last_ring_epoch_ = pong.ring_epoch;
  return pong;
}

GossipSegmentsAckMsg ControllerClient::gossip_segments(const GossipSegmentsMsg& msg) {
  WireWriter w;
  msg.encode(w);
  Frame frame = round_trip(MsgType::GossipSegments, w, MsgType::GossipSegmentsAck);
  WireReader r(frame.payload);
  return GossipSegmentsAckMsg::decode(r);
}

std::string ControllerClient::get_trace(std::uint32_t max_bytes) {
  WireWriter w;
  DumpRequest{max_bytes}.encode(w);
  Frame frame = round_trip(MsgType::GetTrace, w, MsgType::GetTraceResponse);
  WireReader r(frame.payload);
  return StatsResponse::decode(r).text;
}

std::string ControllerClient::get_flight_record(std::uint32_t max_bytes) {
  WireWriter w;
  DumpRequest{max_bytes}.encode(w);
  Frame frame = round_trip(MsgType::GetFlightRecord, w, MsgType::GetFlightRecordResponse);
  WireReader r(frame.payload);
  return StatsResponse::decode(r).text;
}

void ControllerClient::shutdown() {
  if (conn_ != nullptr && conn_->valid()) {
    try {
      send_frame(*conn_, static_cast<std::uint8_t>(MsgType::Shutdown), {});
    } catch (const std::exception&) {
      // Best effort: the server reaps the connection either way.
    }
  }
  conn_.reset();
}

}  // namespace via
