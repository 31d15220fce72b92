#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "util/cacheline.h"
#include "util/flat_map.h"

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

/// Finds `"key":` in `line` and returns the raw value text after it (up to
/// the next ',' or '}'), or nullopt.
std::optional<std::string_view> raw_value(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view rest = line.substr(pos + needle.size());
  std::size_t end = 0;
  bool in_string = false;
  for (; end < rest.size(); ++end) {
    const char c = rest[end];
    if (c == '"') in_string = !in_string;
    if (!in_string && (c == ',' || c == '}')) break;
  }
  return rest.substr(0, end);
}

template <typename T>
std::optional<T> parse_int(std::string_view raw) {
  T v{};
  const auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc{} || ptr != raw.data() + raw.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view raw) {
  if (raw == "null") return std::numeric_limits<double>::quiet_NaN();
  // std::from_chars for doubles is missing on some libstdc++ versions the
  // toolchain matrix covers, so go through strtod with a bounded copy.
  std::array<char, 64> buf{};
  if (raw.size() >= buf.size()) return std::nullopt;
  raw.copy(buf.data(), raw.size());
  char* end = nullptr;
  const double v = std::strtod(buf.data(), &end);
  if (end != buf.data() + raw.size()) return std::nullopt;
  return v;
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
  DecisionEvent e;
  const auto call = raw_value(line, "call");
  const auto time_raw = raw_value(line, "time");
  const auto src = raw_value(line, "src");
  const auto dst = raw_value(line, "dst");
  const auto option_raw = raw_value(line, "option");
  const auto reason_raw = raw_value(line, "reason");
  const auto predicted_raw = raw_value(line, "predicted");
  const auto observed_raw = raw_value(line, "observed");
  const auto top_k_raw = raw_value(line, "top_k");
  const auto pulls_raw = raw_value(line, "pulls");
  if (!call || !time_raw || !src || !dst || !option_raw || !reason_raw || !predicted_raw ||
      !observed_raw || !top_k_raw || !pulls_raw) {
    return std::nullopt;
  }

  const auto call_id = parse_int<CallId>(*call);
  const auto time_v = parse_int<TimeSec>(*time_raw);
  const auto src_v = parse_int<AsId>(*src);
  const auto dst_v = parse_int<AsId>(*dst);
  const auto option_v = parse_int<OptionId>(*option_raw);
  const auto top_k_v = parse_int<std::int32_t>(*top_k_raw);
  const auto pulls_v = parse_int<std::int64_t>(*pulls_raw);
  const auto predicted_v = parse_double(*predicted_raw);
  const auto observed_v = parse_double(*observed_raw);
  if (!call_id || !time_v || !src_v || !dst_v || !option_v || !top_k_v || !pulls_v ||
      !predicted_v || !observed_v) {
    return std::nullopt;
  }

  std::string_view reason_name = *reason_raw;
  if (reason_name.size() < 2 || reason_name.front() != '"' || reason_name.back() != '"') {
    return std::nullopt;
  }
  reason_name.remove_prefix(1);
  reason_name.remove_suffix(1);
  const auto reason = decision_reason_from(reason_name);
  if (!reason) return std::nullopt;

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

struct alignas(kDestructiveInterferenceSize) DecisionTrace::Shard {
  explicit Shard(std::size_t capacity) {
    ring.reserve(capacity);
    index.reserve(capacity);
  }

  /// Resident events in this shard, oldest first.
  void append_to(std::vector<DecisionEvent>& out) const {
    const auto split = ring.begin() + static_cast<std::ptrdiff_t>(next);
    out.insert(out.end(), split, ring.end());
    out.insert(out.end(), ring.begin(), split);
  }

  /// The resident event for `call_id` (its newest), or nullptr.
  DecisionEvent* find(CallId call_id) noexcept {
    const std::size_t* slot = index.find(static_cast<std::uint64_t>(call_id));
    return slot != nullptr ? &ring[*slot] : nullptr;
  }

  mutable std::mutex mutex;
  std::vector<DecisionEvent> ring;  ///< fills to capacity, then wraps at `next`
  std::size_t next = 0;             ///< slot the next event overwrites once full
  std::int64_t recorded = 0;
  FlatMap<std::size_t> index;       ///< call id -> ring slot of its newest event
};

DecisionTrace::DecisionTrace(std::size_t capacity) : capacity_(capacity) {}

DecisionTrace::~DecisionTrace() {
  for (std::atomic<Shard*>& shard : shards_) delete shard.load(std::memory_order_relaxed);
}

DecisionTrace::Shard& DecisionTrace::own_shard() {
  std::atomic<Shard*>& cell = shards_[tls_counter_slot() & (kMaxShards - 1)];
  if (Shard* shard = cell.load(std::memory_order_acquire)) return *shard;
  const std::lock_guard lock(create_mutex_);
  Shard* shard = cell.load(std::memory_order_relaxed);
  if (shard == nullptr) {
    shard = new Shard(capacity_);
    cell.store(shard, std::memory_order_release);
  }
  return *shard;
}

void DecisionTrace::record(const DecisionEvent& event) {
  if (capacity_ == 0) return;
  Shard& shard = own_shard();
  const std::lock_guard lock(shard.mutex);
  const auto id = static_cast<std::uint64_t>(event.call_id);
  if (shard.ring.size() < capacity_) {
    shard.index.insert(id, shard.ring.size());
    shard.ring.push_back(event);
  } else {
    // Overwrite the oldest slot; its call id leaves the index unless a
    // newer event for the same id owns the entry.
    const auto evicted = static_cast<std::uint64_t>(shard.ring[shard.next].call_id);
    if (const std::size_t* slot = shard.index.find(evicted); slot && *slot == shard.next) {
      shard.index.erase(evicted);
    }
    shard.index.insert(id, shard.next);
    shard.ring[shard.next] = event;
    shard.next = (shard.next + 1) % capacity_;
  }
  ++shard.recorded;
}

void DecisionTrace::fill_observed(CallId call_id, double observed) {
  if (capacity_ == 0) return;
  // The report usually lands on the thread that made the decision; look
  // there first and only then walk the other shards.
  const std::size_t own = tls_counter_slot() & (kMaxShards - 1);
  for (std::size_t i = 0; i < kMaxShards; ++i) {
    Shard* shard = shards_[(own + i) & (kMaxShards - 1)].load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    const std::lock_guard lock(shard->mutex);
    if (DecisionEvent* event = shard->find(call_id)) {
      event->observed = observed;
      return;
    }
  }
}

template <typename Fn>
void DecisionTrace::for_each_shard(Fn&& fn) const {
  for (const std::atomic<Shard*>& cell : shards_) {
    const Shard* shard = cell.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    const std::lock_guard lock(shard->mutex);
    fn(*shard);
  }
}

std::vector<DecisionEvent> DecisionTrace::snapshot() const {
  std::vector<DecisionEvent> out;
  for_each_shard([&](const Shard& shard) { shard.append_to(out); });
  return out;
}

void DecisionTrace::export_jsonl(std::ostream& os) const {
  for (const DecisionEvent& e : snapshot()) os << e.to_jsonl() << '\n';
}

std::int64_t DecisionTrace::recorded() const {
  std::int64_t total = 0;
  for_each_shard([&](const Shard& shard) { total += shard.recorded; });
  return total;
}

std::int64_t DecisionTrace::dropped() const {
  std::int64_t total = 0;
  for_each_shard([&](const Shard& shard) {
    total += shard.recorded - static_cast<std::int64_t>(shard.ring.size());
  });
  return total;
}

}  // namespace via::obs
