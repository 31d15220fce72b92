// Snapshot exporters: render a MetricsSnapshot for humans (aligned text
// table), machines (JSON), or scrapers (Prometheus text exposition format,
// with dots in metric names mapped to underscores).
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace via::obs {

/// Wire-stable format selector (also used by the GetStats RPC).
enum class StatsFormat : std::uint8_t { Json = 0, Prometheus = 1, Table = 2 };

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters (\n, \t, ... and \u00XX for the
/// rest).  Shared by every JSON/JSONL emitter in the subsystem so no
/// exporter can produce unparseable output from a hostile metric name.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Inverse of json_escape (also accepts plain \uXXXX below 0x80).
/// Malformed escapes are passed through verbatim rather than rejected.
[[nodiscard]] std::string json_unescape(std::string_view s);

/// The one field reader for the flat single-object JSON lines this
/// repository writes (DecisionEvent, FlightEvent, SoakResult).  Finds the
/// first `"key":` in key position (strings are skipped whole, escapes
/// honored) and returns the raw value text after the colon, up to the next
/// ',' or '}' outside a string; nullopt when the key is absent.
[[nodiscard]] std::optional<std::string_view> json_field(std::string_view line,
                                                         std::string_view key);

/// Integer field: the whole raw value must be a base-10 integer in T's range.
template <typename T>
[[nodiscard]] std::optional<T> json_int(std::string_view line, std::string_view key) {
  const std::optional<std::string_view> raw = json_field(line, key);
  if (!raw) return std::nullopt;
  T v{};
  const auto [ptr, ec] = std::from_chars(raw->data(), raw->data() + raw->size(), v);
  if (ec != std::errc{} || ptr != raw->data() + raw->size()) return std::nullopt;
  return v;
}

/// Floating-point field: the whole raw value must parse as a double;
/// `null` reads as NaN (the way NaN is written).
[[nodiscard]] std::optional<double> json_double(std::string_view line, std::string_view key);

/// String field: the raw value must be one quoted string; returns it
/// json_unescape()d.
[[nodiscard]] std::optional<std::string> json_string(std::string_view line,
                                                     std::string_view key);

void render_table(const MetricsSnapshot& snap, std::ostream& os);
void render_json(const MetricsSnapshot& snap, std::ostream& os);
void render_prometheus(const MetricsSnapshot& snap, std::ostream& os);

[[nodiscard]] std::string render_stats(const MetricsSnapshot& snap, StatsFormat format);

}  // namespace via::obs
