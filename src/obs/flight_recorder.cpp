#include "obs/flight_recorder.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "obs/export.h"

namespace via::obs {

namespace {

std::int64_t wall_us_now() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               epoch)
      .count();
}

std::atomic<std::int64_t>& global_seq() {
  static std::atomic<std::int64_t> seq{0};
  return seq;
}

constexpr std::string_view kKindNames[kNumFlightEventKinds] = {
    "health_quarantine", "health_readmit", "rpc_error",          "rpc_retry",
    "rpc_reconnect",     "rpc_fallback",   "shed",               "protocol_error",
    "drain_forced_close", "refresh_prepare", "refresh_commit",   "outage_fallback",
    "note",              "backpressure_pause", "backpressure_resume",
    "replica_down",      "replica_rehomed",  "replica_recovered",  "ring_epoch_bump",
};

}  // namespace

std::string_view flight_event_kind_name(FlightEventKind k) noexcept {
  const auto i = static_cast<std::size_t>(k);
  return i < kNumFlightEventKinds ? kKindNames[i] : "?";
}

std::optional<FlightEventKind> flight_event_kind_from(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kNumFlightEventKinds; ++i) {
    if (kKindNames[i] == name) return static_cast<FlightEventKind>(i);
  }
  return std::nullopt;
}

std::string FlightEvent::to_jsonl() const {
  std::string out;
  out.reserve(128 + detail.size());
  out += "{\"seq\":";
  out += std::to_string(seq);
  out += ",\"wall_us\":";
  out += std::to_string(wall_us);
  out += ",\"time\":";
  out += std::to_string(time);
  out += ",\"kind\":\"";
  out += flight_event_kind_name(kind);
  out += "\",\"detail\":\"";
  out += json_escape(detail);
  out += "\",\"a\":";
  out += std::to_string(a);
  out += ",\"b\":";
  out += std::to_string(b);
  out += "}";
  return out;
}

std::optional<FlightEvent> FlightEvent::from_jsonl(std::string_view line) {
  const auto seq_v = json_int<std::int64_t>(line, "seq");
  const auto wall_v = json_int<std::int64_t>(line, "wall_us");
  const auto time_v = json_int<TimeSec>(line, "time");
  const auto kind_name = json_string(line, "kind");
  auto detail = json_string(line, "detail");
  const auto a_v = json_int<std::int64_t>(line, "a");
  const auto b_v = json_int<std::int64_t>(line, "b");
  if (!seq_v || !wall_v || !time_v || !kind_name || !detail || !a_v || !b_v) {
    return std::nullopt;
  }
  const auto kind_v = flight_event_kind_from(*kind_name);
  if (!kind_v) return std::nullopt;

  FlightEvent e;
  e.seq = *seq_v;
  e.wall_us = *wall_v;
  e.time = *time_v;
  e.kind = *kind_v;
  e.detail = std::move(*detail);
  e.a = *a_v;
  e.b = *b_v;
  return e;
}

void FlightRecorder::record(FlightEventKind kind, std::string_view detail, std::int64_t a,
                            std::int64_t b, TimeSec time) {
  if (!ring_.enabled()) return;
  FlightEvent event;
  event.seq = global_seq().fetch_add(1, std::memory_order_relaxed) + 1;
  event.wall_us = wall_us_now();
  event.time = time;
  event.kind = kind;
  event.detail = std::string(detail);
  event.a = a;
  event.b = b;
  ring_.add(event);
}

}  // namespace via::obs
