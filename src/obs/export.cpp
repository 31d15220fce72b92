#include "obs/export.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/table.h"

namespace via::obs {

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

void json_number(std::ostream& os, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    os << "null";
  } else {
    os << v;
  }
}

/// Index one past the string that opens at text[open] (a '"'), honoring
/// backslash escapes; npos when the string never closes.
std::size_t skip_string(std::string_view text, std::size_t open) {
  for (std::size_t i = open + 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

}  // namespace

std::optional<std::string_view> json_field(std::string_view line, std::string_view key) {
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] != '"') {
      ++i;
      continue;
    }
    const std::size_t end = skip_string(line, i);
    if (end == std::string_view::npos) return std::nullopt;
    if (end < line.size() && line[end] == ':' && line.substr(i + 1, end - i - 2) == key) {
      std::size_t v = end + 1;
      while (v < line.size() && line[v] != ',' && line[v] != '}') {
        v = line[v] == '"' ? std::min(skip_string(line, v), line.size()) : v + 1;
      }
      return line.substr(end + 1, v - end - 1);
    }
    i = end;
  }
  return std::nullopt;
}

std::optional<double> json_double(std::string_view line, std::string_view key) {
  const std::optional<std::string_view> raw = json_field(line, key);
  if (!raw) return std::nullopt;
  if (*raw == "null") return std::numeric_limits<double>::quiet_NaN();
  // std::from_chars for doubles is missing on some libstdc++ versions the
  // toolchain matrix covers, so go through strtod with a bounded copy.
  std::array<char, 64> buf{};
  if (raw->empty() || raw->size() >= buf.size()) return std::nullopt;
  raw->copy(buf.data(), raw->size());
  char* end = nullptr;
  const double v = std::strtod(buf.data(), &end);
  if (end != buf.data() + raw->size()) return std::nullopt;
  return v;
}

std::optional<std::string> json_string(std::string_view line, std::string_view key) {
  const std::optional<std::string_view> raw = json_field(line, key);
  if (!raw || raw->empty() || raw->front() != '"' || skip_string(*raw, 0) != raw->size()) {
    return std::nullopt;
  }
  return json_unescape(raw->substr(1, raw->size() - 2));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '\\' || i + 1 >= s.size()) {
      out.push_back(c);
      continue;
    }
    const char e = s[++i];
    switch (e) {
      case '"':
      case '\\':
      case '/':
        out.push_back(e);
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'u': {
        if (i + 4 < s.size()) {
          unsigned v = 0;
          bool ok = true;
          for (std::size_t j = 1; j <= 4; ++j) {
            const char h = s[i + j];
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              ok = false;
              break;
            }
          }
          if (ok && v < 0x80) {
            out.push_back(static_cast<char>(v));
            i += 4;
            break;
          }
        }
        out += "\\u";  // malformed or non-ASCII: pass through verbatim
        break;
      }
      default:
        out.push_back('\\');
        out.push_back(e);
    }
  }
  return out;
}

void render_table(const MetricsSnapshot& snap, std::ostream& os) {
  if (!snap.counters.empty()) {
    TextTable t({"counter", "value"});
    for (const auto& c : snap.counters) t.row().cell(c.name).cell_int(c.value);
    t.print(os);
    os << "\n";
  }
  if (!snap.gauges.empty()) {
    TextTable t({"gauge", "value"});
    for (const auto& g : snap.gauges) t.row().cell(g.name).cell(g.value, 3);
    t.print(os);
    os << "\n";
  }
  if (!snap.histograms.empty()) {
    TextTable t({"histogram", "count", "mean", "p50", "p95", "p99"});
    for (const auto& h : snap.histograms) {
      t.row()
          .cell(h.name)
          .cell_int(h.count)
          .cell(h.mean(), 2)
          .cell(h.quantile(0.50), 1)
          .cell(h.quantile(0.95), 1)
          .cell(h.quantile(0.99), 1);
    }
    t.print(os);
  }
}

void render_json(const MetricsSnapshot& snap, std::ostream& os) {
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(snap.counters[i].name) << "\":" << snap.counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(snap.gauges[i].name) << "\":";
    json_number(os, snap.gauges[i].value);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i > 0) os << ",";
    os << "\"" << json_escape(h.name) << "\":{\"count\":" << h.count << ",\"sum\":";
    json_number(os, h.sum);
    os << ",\"bounds\":[";
    for (std::size_t j = 0; j < h.upper_bounds.size(); ++j) {
      if (j > 0) os << ",";
      json_number(os, h.upper_bounds[j]);
    }
    os << "],\"buckets\":[";
    for (std::size_t j = 0; j < h.counts.size(); ++j) {
      if (j > 0) os << ",";
      os << h.counts[j];
    }
    os << "]}";
  }
  os << "}}";
}

void render_prometheus(const MetricsSnapshot& snap, std::ostream& os) {
  // Every metric gets a HELP/TYPE pair (exposition-format grammar; the
  // source name doubles as the help text since registration carries none).
  for (const auto& c : snap.counters) {
    const std::string name = prometheus_name(c.name);
    os << "# HELP " << name << " " << c.name << "\n"
       << "# TYPE " << name << " counter\n"
       << name << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string name = prometheus_name(g.name);
    os << "# HELP " << name << " " << g.name << "\n"
       << "# TYPE " << name << " gauge\n"
       << name << " " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string name = prometheus_name(h.name);
    os << "# HELP " << name << " " << h.name << "\n"
       << "# TYPE " << name << " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t j = 0; j < h.counts.size(); ++j) {
      cumulative += h.counts[j];
      os << name << "_bucket{le=\"";
      if (j < h.upper_bounds.size()) {
        os << h.upper_bounds[j];
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << "\n";
    }
    os << name << "_sum " << h.sum << "\n" << name << "_count " << h.count << "\n";
  }
}

std::string render_stats(const MetricsSnapshot& snap, StatsFormat format) {
  std::ostringstream ss;
  switch (format) {
    case StatsFormat::Json:
      render_json(snap, ss);
      break;
    case StatsFormat::Prometheus:
      render_prometheus(snap, ss);
      break;
    case StatsFormat::Table:
      render_table(snap, ss);
      break;
  }
  return ss.str();
}

}  // namespace via::obs
