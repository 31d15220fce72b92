#include "obs/trace.h"

#include <array>
#include <cmath>
#include <cstdio>

#include "obs/export.h"

namespace via::obs {

std::optional<DecisionReason> decision_reason_from(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kNumDecisionReasons; ++i) {
    const auto r = static_cast<DecisionReason>(i);
    if (decision_reason_name(r) == name) return r;
  }
  return std::nullopt;
}

namespace {

void append_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
    return;
  }
  std::array<char, 32> buf{};
  const int n = std::snprintf(buf.data(), buf.size(), "%.6g", v);
  out.append(buf.data(), static_cast<std::size_t>(n));
}

}  // namespace

std::string DecisionEvent::to_jsonl() const {
  std::string out;
  out.reserve(160);
  out += "{\"call\":";
  out += std::to_string(call_id);
  out += ",\"time\":";
  out += std::to_string(time);
  out += ",\"src\":";
  out += std::to_string(src_as);
  out += ",\"dst\":";
  out += std::to_string(dst_as);
  out += ",\"option\":";
  out += std::to_string(option);
  out += ",\"reason\":\"";
  out += decision_reason_name(reason);
  out += "\",\"predicted\":";
  append_number(out, predicted);
  out += ",\"observed\":";
  append_number(out, observed);
  out += ",\"top_k\":";
  out += std::to_string(top_k_size);
  out += ",\"pulls\":";
  out += std::to_string(bandit_pulls);
  out += "}";
  return out;
}

std::optional<DecisionEvent> DecisionEvent::from_jsonl(std::string_view line) {
  const auto call_id = json_int<CallId>(line, "call");
  const auto time_v = json_int<TimeSec>(line, "time");
  const auto src_v = json_int<AsId>(line, "src");
  const auto dst_v = json_int<AsId>(line, "dst");
  const auto option_v = json_int<OptionId>(line, "option");
  const auto reason_name = json_string(line, "reason");
  const auto predicted_v = json_double(line, "predicted");
  const auto observed_v = json_double(line, "observed");
  const auto top_k_v = json_int<std::int32_t>(line, "top_k");
  const auto pulls_v = json_int<std::int64_t>(line, "pulls");
  if (!call_id || !time_v || !src_v || !dst_v || !option_v || !reason_name || !predicted_v ||
      !observed_v || !top_k_v || !pulls_v) {
    return std::nullopt;
  }
  const auto reason = decision_reason_from(*reason_name);
  if (!reason) return std::nullopt;

  DecisionEvent e;
  e.call_id = *call_id;
  e.time = *time_v;
  e.src_as = *src_v;
  e.dst_as = *dst_v;
  e.option = *option_v;
  e.reason = *reason;
  e.predicted = *predicted_v;
  e.observed = *observed_v;
  e.top_k_size = *top_k_v;
  e.bandit_pulls = *pulls_v;
  return e;
}

void DecisionTrace::record(const DecisionEvent& event) {
  const auto id = static_cast<std::uint64_t>(event.call_id);
  ring_.add(event, [&](std::size_t shard, std::size_t slot, const DecisionEvent* evicted) {
    FlatMap<std::size_t>& index = index_[shard];
    if (index.capacity() == 0) index.reserve(ring_.capacity());
    // The overwritten event's call id leaves the index unless a newer
    // event for the same id owns the entry.
    if (evicted != nullptr) {
      const auto evicted_id = static_cast<std::uint64_t>(evicted->call_id);
      if (const std::size_t* at = index.find(evicted_id); at != nullptr && *at == slot) {
        index.erase(evicted_id);
      }
    }
    index.insert(id, slot);
  });
}

void DecisionTrace::fill_observed(CallId call_id, double observed) {
  // The report usually lands on the thread that made the decision, whose
  // shard the ring visits first.
  ring_.visit_own_first([&](std::size_t shard, std::span<DecisionEvent> events) {
    const std::size_t* slot = index_[shard].find(static_cast<std::uint64_t>(call_id));
    if (slot == nullptr) return false;
    events[*slot].observed = observed;
    return true;
  });
}

}  // namespace via::obs
