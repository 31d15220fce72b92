// §6g observability tests: request tracing (sampling, span buffer,
// StagedSpan parenting, Chrome trace export), the flight recorder
// (bounded ring, JSONL round-trip, the chaos error→retry→quarantine→
// fallback narrative), windowed time series (unit + engine + server
// ticker), the GetTrace/GetFlightRecord RPCs, and the admin HTTP plane
// (/metrics, /healthz, /varz, and the request deadline that keeps one
// stalled admin client from blocking the rest).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/via_policy.h"
#include "flight_dump.h"
#include "netsim/groundtruth.h"
#include "netsim/world.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "rpc/admin_http.h"
#include "rpc/client.h"
#include "rpc/errors.h"
#include "rpc/server.h"
#include "rpc/socket.h"
#include "sim/engine.h"
#include "trace/generator.h"

VIA_REGISTER_FLIGHT_DUMP("test_observability");

namespace via {
namespace {

// ------------------------------------------------- minimal JSON validator
//
// A tiny recursive-descent JSON reader used to *validate* exported
// documents (Chrome trace, /varz, time-series JSON) and walk their
// structure.  Not a general-purpose parser — just enough of RFC 8259 for
// schema assertions in this file.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  [[nodiscard]] std::optional<JsonValue> parse() {
    auto v = value();
    skip_ws();
    if (!v.has_value() || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null_value();
    return number();
  }

  [[nodiscard]] std::optional<JsonValue> object() {
    if (!consume('{')) return std::nullopt;
    JsonValue out;
    out.kind = JsonValue::Kind::Object;
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      auto key = string_value();
      if (!key.has_value() || !consume(':')) return std::nullopt;
      auto val = value();
      if (!val.has_value()) return std::nullopt;
      out.object.emplace_back(std::move(key->string), std::move(*val));
      if (consume(',')) continue;
      if (consume('}')) return out;
      return std::nullopt;
    }
  }

  [[nodiscard]] std::optional<JsonValue> array() {
    if (!consume('[')) return std::nullopt;
    JsonValue out;
    out.kind = JsonValue::Kind::Array;
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto val = value();
      if (!val.has_value()) return std::nullopt;
      out.array.push_back(std::move(*val));
      if (consume(',')) continue;
      if (consume(']')) return out;
      return std::nullopt;
    }
  }

  [[nodiscard]] std::optional<JsonValue> string_value() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    JsonValue out;
    out.kind = JsonValue::Kind::String;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;  // raw control char
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.string += '"'; break;
          case '\\': out.string += '\\'; break;
          case '/': out.string += '/'; break;
          case 'b': out.string += '\b'; break;
          case 'f': out.string += '\f'; break;
          case 'n': out.string += '\n'; break;
          case 'r': out.string += '\r'; break;
          case 't': out.string += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) return std::nullopt;
            }
            pos_ += 4;
            out.string += '?';  // value unimportant for schema checks
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out.string += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  [[nodiscard]] std::optional<JsonValue> boolean() {
    JsonValue out;
    out.kind = JsonValue::Kind::Bool;
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      out.boolean = true;
      return out;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return out;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<JsonValue> null_value() {
    if (text_.substr(pos_, 4) != "null") return std::nullopt;
    pos_ += 4;
    return JsonValue{};
  }

  [[nodiscard]] std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    JsonValue out;
    out.kind = JsonValue::Kind::Number;
    try {
      out.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      return std::nullopt;
    }
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonReader(text).parse();
}

// ------------------------------------------------------- tracer + sampling

TEST(Tracing, SampleRateZeroDisablesAndNullsTheTracer) {
  obs::Telemetry telemetry;  // default TraceConfig: sample_rate 0
  EXPECT_FALSE(telemetry.tracer.enabled());
  EXPECT_EQ(telemetry.tracer_if_enabled(), nullptr);

  // An inert StagedSpan records nothing and parents as 0.
  obs::StagedSpan span(nullptr, 1, 0, "noop");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.span_id(), 0u);
  EXPECT_EQ(telemetry.tracer.buffer().recorded(), 0);
}

TEST(Tracing, HeadSamplingIsDeterministicAcrossTracers) {
  obs::Tracer a(obs::TraceConfig{.sample_rate = 64});
  obs::Tracer b(obs::TraceConfig{.sample_rate = 64});
  int sampled = 0;
  for (std::uint64_t call = 0; call < 64 * 64; ++call) {
    const std::uint64_t id = obs::derive_trace_id(call);
    EXPECT_EQ(a.sampled(id), b.sampled(id));  // same verdict everywhere
    if (a.sampled(id)) ++sampled;
  }
  // Roughly 1-in-64 of 4096 ids; allow generous slack for hash variance.
  EXPECT_GT(sampled, 16);
  EXPECT_LT(sampled, 256);

  obs::Tracer all(obs::TraceConfig{.sample_rate = 1});
  EXPECT_TRUE(all.sampled(0));
  EXPECT_TRUE(all.sampled(0xdeadbeef));
}

TEST(Tracing, SpanBufferIsBoundedAndSnapshotsInStartOrder) {
  obs::SpanRing buffer(/*capacity=*/64);
  for (std::uint64_t i = 0; i < 200; ++i) {
    obs::Span s;
    s.trace_id = i;
    s.span_id = i + 1;
    s.name = "unit";
    s.start_ns = 1'000 + i;
    s.dur_ns = 5;
    buffer.add(s);
  }
  EXPECT_EQ(buffer.recorded(), 200);
  const std::vector<obs::Span> spans = buffer.snapshot();
  EXPECT_LE(spans.size(), 64u);
  EXPECT_GT(spans.size(), 0u);
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end(),
                             [](const obs::Span& x, const obs::Span& y) {
                               return x.start_ns < y.start_ns;
                             }));
  buffer.clear();
  EXPECT_TRUE(buffer.snapshot().empty());
}

TEST(Tracing, StagedSpanEmitsRootPlusOneChildPerStage) {
  obs::Tracer tracer(obs::TraceConfig{.sample_rate = 1});
  {
    obs::StagedSpan staged(&tracer, /*trace_id=*/7, /*parent_id=*/0, "policy.choose");
    ASSERT_TRUE(staged.active());
    staged.stage("candidates");
    staged.stage("bandit");
    staged.name_tail("served_ucb");
  }
  const std::vector<obs::Span> spans = tracer.buffer().snapshot();
  ASSERT_EQ(spans.size(), 4u);  // root + 2 stages + named tail

  const auto root = std::find_if(spans.begin(), spans.end(), [](const obs::Span& s) {
    return std::string_view(s.name) == "policy.choose";
  });
  ASSERT_NE(root, spans.end());
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->trace_id, 7u);

  std::vector<std::string_view> child_names;
  for (const obs::Span& s : spans) {
    if (&s == &*root) continue;
    EXPECT_EQ(s.parent_id, root->span_id);  // every stage parents under the root
    EXPECT_EQ(s.trace_id, 7u);
    EXPECT_GE(s.start_ns, root->start_ns);
    EXPECT_LE(s.start_ns + s.dur_ns, root->start_ns + root->dur_ns);
    child_names.push_back(s.name);
  }
  EXPECT_NE(std::find(child_names.begin(), child_names.end(), "candidates"), child_names.end());
  EXPECT_NE(std::find(child_names.begin(), child_names.end(), "bandit"), child_names.end());
  EXPECT_NE(std::find(child_names.begin(), child_names.end(), "served_ucb"), child_names.end());
}

TEST(Tracing, ChromeTraceExportIsSchemaValidJson) {
  obs::Tracer tracer(obs::TraceConfig{.sample_rate = 1});
  for (int i = 0; i < 10; ++i) {
    obs::StagedSpan span(&tracer, static_cast<std::uint64_t>(i + 1), 0, "rpc.decide");
    std::this_thread::yield();
  }
  const std::string doc = obs::chrome_trace_json(tracer.buffer());
  const std::optional<JsonValue> parsed = parse_json(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  ASSERT_EQ(parsed->kind, JsonValue::Kind::Object);
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::Array);
  ASSERT_EQ(events->array.size(), 10u);
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::Object);
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string, "X");  // complete events only
    const JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string, "rpc.decide");
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const JsonValue* v = e.find(field);
      ASSERT_NE(v, nullptr) << field;
      EXPECT_EQ(v->kind, JsonValue::Kind::Number) << field;
    }
  }

  // Byte-capped export stays valid JSON and keeps the newest spans.
  const std::string capped = obs::chrome_trace_json(tracer.buffer(), doc.size() / 2);
  ASSERT_LE(capped.size(), doc.size());
  const std::optional<JsonValue> capped_parsed = parse_json(capped);
  ASSERT_TRUE(capped_parsed.has_value()) << capped;
  const JsonValue* capped_events = capped_parsed->find("traceEvents");
  ASSERT_NE(capped_events, nullptr);
  EXPECT_LT(capped_events->array.size(), events->array.size());
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorder, EveryKindRoundTripsJsonl) {
  for (std::size_t k = 0; k < obs::kNumFlightEventKinds; ++k) {
    obs::FlightEvent e;
    e.seq = static_cast<std::int64_t>(k) + 100;
    e.wall_us = 123'456;
    e.time = 86'400;
    e.kind = static_cast<obs::FlightEventKind>(k);
    e.detail = "detail with \"quotes\" and\nnewlines\\";
    e.a = 42;
    e.b = -1;
    const std::string line = e.to_jsonl();
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;  // one event per line
    const std::optional<obs::FlightEvent> back = obs::FlightEvent::from_jsonl(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->seq, e.seq);
    EXPECT_EQ(back->wall_us, e.wall_us);
    EXPECT_EQ(back->time, e.time);
    EXPECT_EQ(back->kind, e.kind);
    EXPECT_EQ(back->detail, e.detail);
    EXPECT_EQ(back->a, e.a);
    EXPECT_EQ(back->b, e.b);
  }
  EXPECT_FALSE(obs::FlightEvent::from_jsonl("").has_value());
  EXPECT_FALSE(obs::FlightEvent::from_jsonl("not json").has_value());
}

TEST(FlightRecorder, RingIsBoundedAndSeqOrdered) {
  obs::FlightRecorder rec(/*capacity=*/4);
  ASSERT_TRUE(rec.enabled());
  for (int i = 0; i < 10; ++i) {
    rec.record(obs::FlightEventKind::Note, "note", i);
  }
  EXPECT_EQ(rec.recorded(), 10);
  const std::vector<obs::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);  // only the newest survive
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_EQ(events.back().a, 9);  // newest kept

  obs::FlightRecorder disabled(0);
  EXPECT_FALSE(disabled.enabled());
  disabled.record(obs::FlightEventKind::Note, "dropped");
  EXPECT_TRUE(disabled.snapshot().empty());
}

TEST(FlightRecorder, MirrorsIntoTheProcessRecorder) {
  const std::int64_t before = obs::FlightRing::process().recorded();
  obs::FlightRecorder rec(16);
  rec.record(obs::FlightEventKind::Note, "mirror-check", 7);
  EXPECT_GT(obs::FlightRing::process().recorded(), before);
  const auto proc = obs::FlightRing::process().snapshot();
  EXPECT_TRUE(std::any_of(proc.begin(), proc.end(), [](const obs::FlightEvent& e) {
    return e.detail == "mirror-check" && e.a == 7;
  }));
}

/// The §6g acceptance narrative: a flight-recorder dump alone must explain
/// an incident end to end — RPC error, retry, relay quarantine, fallback
/// to direct — in one totally ordered, JSONL-parseable story.
TEST(FlightRecorder, ChaosStoryReadsErrorRetryQuarantineFallback) {
  obs::FlightRecorder client_rec(256);

  // A port that refuses connections: bind, then drop the listener.
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }

  // Act 1: a client without fallback fails and retries.
  {
    ClientConfig config;
    config.request_timeout_ms = 50;
    config.max_retries = 2;
    config.backoff_base_ms = 1;
    ControllerClient client(dead_port, config);
    client.attach_flight(&client_rec);
    DecisionRequest req;
    req.call_id = 1;
    req.options = {0, 1};
    EXPECT_THROW((void)client.request_decision(req), RpcError);
  }

  // Act 2: catastrophic observations quarantine a relay inside the policy.
  obs::Telemetry policy_telemetry;
  RelayOptionTable options;
  const OptionId bounce = options.intern_bounce(0);
  ViaConfig via;
  via.health.enabled = true;
  via.health.degrade_after = 1;
  via.health.quarantine_after = 2;
  via.health.quarantine_period = 1'000'000;
  ViaPolicy policy(
      options, [](RelayId, RelayId) { return PathPerformance{10.0, 0.1, 1.0}; }, via);
  policy.attach_telemetry(&policy_telemetry);
  for (int i = 0; i < 2; ++i) {
    Observation o;
    o.id = 100 + i;
    o.time = 1'000 + i;
    o.src_as = 1;
    o.dst_as = 2;
    o.option = bounce;
    o.perf = {2500.0, 100.0, 120.0};
    policy.observe(o);
  }
  ASSERT_EQ(policy.relay_health().state_of(0), RelayHealthTracker::State::Quarantined);

  // Act 3: a fallback-enabled client gives up and serves direct.
  {
    ClientConfig config;
    config.request_timeout_ms = 50;
    config.max_retries = 1;
    config.backoff_base_ms = 1;
    config.fallback_direct = true;
    ControllerClient client(dead_port, config);
    client.attach_flight(&client_rec);
    DecisionRequest req;
    req.call_id = 2;
    req.options = {0, 1};
    EXPECT_EQ(client.request_decision(req), RelayOptionTable::direct_id());
  }

  // Merge both recorders; the process-global seq gives one total order.
  std::vector<obs::FlightEvent> events = client_rec.snapshot();
  const std::vector<obs::FlightEvent> policy_events = policy_telemetry.flight.snapshot();
  events.insert(events.end(), policy_events.begin(), policy_events.end());
  std::sort(events.begin(), events.end(),
            [](const obs::FlightEvent& x, const obs::FlightEvent& y) { return x.seq < y.seq; });

  // The JSONL dump round-trips line by line.
  std::ostringstream dump;
  for (const obs::FlightEvent& e : events) dump << e.to_jsonl() << "\n";
  std::istringstream in(dump.str());
  std::string line;
  std::vector<obs::FlightEvent> parsed;
  while (std::getline(in, line)) {
    const std::optional<obs::FlightEvent> e = obs::FlightEvent::from_jsonl(line);
    ASSERT_TRUE(e.has_value()) << line;
    parsed.push_back(*e);
  }
  ASSERT_EQ(parsed.size(), events.size());

  // The parsed story contains error -> retry -> quarantine -> fallback, in
  // that seq order.
  const auto first_of = [&parsed](obs::FlightEventKind kind,
                                  std::size_t from) -> std::optional<std::size_t> {
    for (std::size_t i = from; i < parsed.size(); ++i) {
      if (parsed[i].kind == kind) return i;
    }
    return std::nullopt;
  };
  const auto error_at = first_of(obs::FlightEventKind::RpcError, 0);
  ASSERT_TRUE(error_at.has_value());
  const auto retry_at = first_of(obs::FlightEventKind::RpcRetry, *error_at);
  ASSERT_TRUE(retry_at.has_value());
  const auto quarantine_at = first_of(obs::FlightEventKind::HealthQuarantine, *retry_at);
  ASSERT_TRUE(quarantine_at.has_value());
  const auto fallback_at = first_of(obs::FlightEventKind::RpcFallback, *quarantine_at);
  ASSERT_TRUE(fallback_at.has_value());
  policy.attach_telemetry(nullptr);
}

// -------------------------------------------------------------- time series

TEST(TimeSeries, WindowsCarryDeltasAndAnnotations) {
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder recorder(&registry, /*window=*/10.0);

  registry.counter("engine.calls").inc(3);
  registry.histogram("engine.choose_ns", obs::kLatencyBoundsNs).observe(100.0);
  recorder.annotate("pnr_any", 0.25);
  recorder.close_window(0.0, 10.0);

  registry.counter("engine.calls").inc(2);
  recorder.close_window(10.0, 20.0);

  const obs::TimeSeries& series = recorder.series();
  ASSERT_EQ(series.windows.size(), 2u);
  EXPECT_DOUBLE_EQ(series.window, 10.0);

  const obs::TimeSeriesWindow& w0 = series.windows[0];
  EXPECT_DOUBLE_EQ(w0.start, 0.0);
  EXPECT_DOUBLE_EQ(w0.end, 10.0);
  EXPECT_EQ(w0.counter_delta("engine.calls"), 3);
  EXPECT_DOUBLE_EQ(w0.value("pnr_any"), 0.25);
  ASSERT_EQ(w0.histogram_deltas.size(), 1u);
  EXPECT_EQ(w0.histogram_deltas[0].second.first, 1);           // delta count
  EXPECT_DOUBLE_EQ(w0.histogram_deltas[0].second.second, 100.0);  // window mean

  const obs::TimeSeriesWindow& w1 = series.windows[1];
  EXPECT_EQ(w1.counter_delta("engine.calls"), 2);
  // Untouched instruments are omitted: windows are sparse.
  EXPECT_TRUE(w1.histogram_deltas.empty());
  EXPECT_DOUBLE_EQ(w1.value("pnr_any", -1.0), -1.0);

  // The JSON rendering is a valid document with the expected shape.
  const std::optional<JsonValue> parsed = parse_json(series.to_json());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* windows = parsed->find("windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_EQ(windows->array.size(), 2u);
}

// ------------------------------------------------------- engine integration

class ObservabilityEngineTest : public ::testing::Test {
 protected:
  ObservabilityEngineTest() : world_({.num_ases = 30, .num_relays = 6, .seed = 51}), gt_(world_) {
    TraceConfig config;
    config.days = 3;
    config.total_calls = 3'000;
    config.active_pairs = 40;
    config.seed = 9;
    TraceGenerator gen(gt_, config);
    arrivals_ = gen.generate_arrivals();
  }

  [[nodiscard]] RunResult run_via(const RunConfig& run) {
    ViaConfig via;
    via.seed = 42;
    ViaPolicy policy(
        gt_.option_table(),
        [this](RelayId a, RelayId b) { return gt_.backbone(a, b); }, via);
    SimulationEngine engine(gt_, arrivals_, run);
    return engine.run(policy);
  }

  World world_;
  GroundTruth gt_;
  std::vector<CallArrival> arrivals_;
};

TEST_F(ObservabilityEngineTest, TracingOffByDefaultAndBitIdenticalWhenOn) {
  RunConfig off;
  off.background_relay_fraction = 0.0;
  RunConfig on = off;
  on.trace.sample_rate = 8;

  const RunResult base = run_via(off);
  const RunResult traced = run_via(on);

  EXPECT_TRUE(base.spans.empty());
  EXPECT_GT(traced.spans.size(), 0u);

  // Tracing must not perturb the replay: the exact per-call metric stream
  // matches an untraced run (same seeds, same decisions).
  EXPECT_EQ(base.calls, traced.calls);
  EXPECT_EQ(base.used_direct, traced.used_direct);
  EXPECT_EQ(base.used_bounce, traced.used_bounce);
  EXPECT_EQ(base.used_transit, traced.used_transit);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    EXPECT_EQ(base.values[m], traced.values[m]);
  }

  // Sampled spans belong to policy.choose and parent correctly.
  std::map<std::uint64_t, int> roots_per_trace;
  for (const obs::Span& s : traced.spans) {
    if (s.parent_id == 0) {
      EXPECT_EQ(std::string_view(s.name), "policy.choose");
      ++roots_per_trace[s.trace_id];
    }
  }
  ASSERT_GT(roots_per_trace.size(), 0u);
  for (const auto& [trace_id, roots] : roots_per_trace) {
    EXPECT_EQ(roots, 1) << "trace " << trace_id;
  }
}

TEST_F(ObservabilityEngineTest, TimeseriesWindowsTileTheRunAndReconcile) {
  RunConfig run;
  run.background_relay_fraction = 0.0;
  run.timeseries_window = 12 * 3600;  // half a sim day

  const RunResult result = run_via(run);
  ASSERT_FALSE(result.timeseries.empty());
  ASSERT_GE(result.timeseries.windows.size(), 4u);

  std::int64_t calls_delta_sum = 0;
  double evaluated_sum = 0.0;
  double prev_end = 0.0;
  for (const obs::TimeSeriesWindow& w : result.timeseries.windows) {
    EXPECT_LT(w.start, w.end);
    EXPECT_GE(w.start, prev_end);  // windows never overlap
    prev_end = w.end;
    calls_delta_sum += w.counter_delta("engine.calls");
    evaluated_sum += w.value("evaluated_calls");
  }
  // Per-window deltas reconcile with end-of-run totals.
  EXPECT_EQ(calls_delta_sum, result.calls);
  EXPECT_DOUBLE_EQ(evaluated_sum, static_cast<double>(result.evaluated_calls));
}

TEST_F(ObservabilityEngineTest, FlightRecorderCapturesRefreshCadence) {
  RunConfig run;
  run.background_relay_fraction = 0.0;
  const RunResult result = run_via(run);

  int prepares = 0;
  int commits = 0;
  std::int64_t last_seq = -1;
  for (const obs::FlightEvent& e : result.flight) {
    EXPECT_GT(e.seq, last_seq);  // snapshot comes back in seq order
    last_seq = e.seq;
    if (e.kind == obs::FlightEventKind::RefreshPrepare) ++prepares;
    if (e.kind == obs::FlightEventKind::RefreshCommit) ++commits;
  }
  EXPECT_GT(prepares, 0);
  EXPECT_EQ(prepares, commits);  // every prepare published a model

  // Disabling the ring removes the capture entirely.
  RunConfig disabled = run;
  disabled.flight_capacity = 0;
  EXPECT_TRUE(run_via(disabled).flight.empty());
}

// ------------------------------------------------------- RPC + admin plane

class CountingPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] OptionId choose(const CallContext& call) override {
    last_trace_id = call.trace_id;
    last_parent_span = call.parent_span;
    return 1;
  }
  void observe(const Observation&) override {}
  void refresh(TimeSec) override {}
  [[nodiscard]] std::string_view name() const override { return "counting"; }

  std::uint64_t last_trace_id = 0;
  std::uint64_t last_parent_span = 0;
};

TEST(RpcObservability, GetTraceReturnsSchemaValidChromeJson) {
  CountingPolicy policy;
  ControllerServer server(policy, 0, {.trace_sample = 1});
  server.start();

  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 77;
  req.options = {0, 1};
  EXPECT_EQ(client.request_decision(req), 1);
  // The server derived a deterministic trace id and parented the policy
  // under its rpc.decide span.
  EXPECT_EQ(policy.last_trace_id, obs::derive_trace_id(77));
  EXPECT_NE(policy.last_parent_span, 0u);

  const std::string doc = client.get_trace();
  const std::optional<JsonValue> parsed = parse_json(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->array.size(), 0u);
  EXPECT_TRUE(std::any_of(events->array.begin(), events->array.end(), [](const JsonValue& e) {
    const JsonValue* name = e.find("name");
    return name != nullptr && name->string == "rpc.decide";
  }));

  client.shutdown();
  server.stop();
}

TEST(RpcObservability, GetFlightRecordReturnsParseableCappedJsonl) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  // Provoke a structural event: a malformed frame is a ProtocolError.
  {
    TcpConnection conn = TcpConnection::connect_local(server.port());
    const std::array<std::byte, 2> junk{std::byte{0x01}, std::byte{0x02}};
    send_frame(conn, static_cast<std::uint8_t>(MsgType::Report), junk);
    Frame frame;
    ASSERT_TRUE(recv_frame(conn, frame));
  }

  ControllerClient client(server.port());
  const std::string jsonl = client.get_flight_record();
  ASSERT_FALSE(jsonl.empty());
  std::istringstream in(jsonl);
  std::string line;
  bool saw_protocol_error = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::optional<obs::FlightEvent> e = obs::FlightEvent::from_jsonl(line);
    ASSERT_TRUE(e.has_value()) << line;
    if (e->kind == obs::FlightEventKind::ProtocolError) saw_protocol_error = true;
  }
  EXPECT_TRUE(saw_protocol_error);

  // A byte cap trims whole lines from the front (newest events kept).
  const std::string capped = client.get_flight_record(/*max_bytes=*/64);
  EXPECT_LE(capped.size(), 64u);
  std::istringstream capped_in(capped);
  while (std::getline(capped_in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(obs::FlightEvent::from_jsonl(line).has_value()) << line;
  }

  client.shutdown();
  server.stop();
}

/// Minimal HTTP GET against the admin sidecar: sends the request, reads to
/// EOF, splits status line / headers / body.  A positive `timeout_ms`
/// bounds each read (RpcError on expiry).
struct HttpResponse {
  std::string status_line;
  std::string headers;
  std::string body;
};

HttpResponse http_get(std::uint16_t port, const std::string& path, int timeout_ms = 0) {
  TcpConnection conn = TcpConnection::connect_local(port);
  conn.set_recv_timeout_ms(timeout_ms);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  conn.send_all(std::as_bytes(std::span(request.data(), request.size())));
  std::string raw;
  std::byte byte;
  while (conn.recv_all(std::span(&byte, 1))) {
    raw += static_cast<char>(byte);
  }
  HttpResponse resp;
  const std::size_t line_end = raw.find("\r\n");
  resp.status_line = line_end == std::string::npos ? raw : raw.substr(0, line_end);
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    resp.headers = raw.substr(0, header_end);
    resp.body = raw.substr(header_end + 4);
  }
  return resp;
}

TEST(AdminHttp, ServesMetricsHealthzVarzAndTrace) {
  obs::Telemetry telemetry(4096, obs::TraceConfig{.sample_rate = 1});
  telemetry.registry.counter("rpc.server.decisions").inc(5);
  telemetry.registry.histogram("rpc.server.request_us", obs::kLatencyBoundsUs).observe(12.0);
  telemetry.flight.record(obs::FlightEventKind::Note, "admin-test");
  {
    obs::StagedSpan span(&telemetry.tracer, 1, 0, "rpc.decide");
  }

  AdminHttpServer http(telemetry, 0);
  http.set_varz([] { return std::string("\"decisions_served\":5"); });
  http.start();
  ASSERT_NE(http.port(), 0);

  const HttpResponse metrics = http_get(http.port(), "/metrics");
  EXPECT_NE(metrics.status_line.find("200"), std::string::npos);
  EXPECT_NE(metrics.headers.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("rpc_server_decisions 5"), std::string::npos);
  EXPECT_NE(metrics.body.find("rpc_server_request_us_bucket"), std::string::npos);

  const HttpResponse healthz = http_get(http.port(), "/healthz");
  EXPECT_NE(healthz.status_line.find("200"), std::string::npos);
  EXPECT_EQ(healthz.body, "ok\n");

  const HttpResponse varz = http_get(http.port(), "/varz");
  EXPECT_NE(varz.status_line.find("200"), std::string::npos);
  const std::optional<JsonValue> varz_json = parse_json(varz.body);
  ASSERT_TRUE(varz_json.has_value()) << varz.body;
  const JsonValue* tracing = varz_json->find("tracing_enabled");
  ASSERT_NE(tracing, nullptr);
  EXPECT_TRUE(tracing->boolean);
  const JsonValue* extra = varz_json->find("decisions_served");
  ASSERT_NE(extra, nullptr);
  EXPECT_DOUBLE_EQ(extra->number, 5.0);
  const JsonValue* counters = varz_json->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("rpc.server.decisions"), nullptr);

  const HttpResponse trace = http_get(http.port(), "/trace");
  EXPECT_NE(trace.status_line.find("200"), std::string::npos);
  EXPECT_TRUE(parse_json(trace.body).has_value()) << trace.body;

  const HttpResponse flight = http_get(http.port(), "/flightrecord");
  EXPECT_NE(flight.status_line.find("200"), std::string::npos);
  EXPECT_NE(flight.body.find("admin-test"), std::string::npos);

  const HttpResponse missing = http_get(http.port(), "/nope");
  EXPECT_NE(missing.status_line.find("404"), std::string::npos);

  http.stop();
}

/// Opens an admin connection that sends half a request line and then
/// holds the socket open without finishing it.
TcpConnection stalled_admin_client(std::uint16_t port) {
  TcpConnection conn = TcpConnection::connect_local(port);
  const std::string partial = "GET /heal";
  conn.send_all(std::as_bytes(std::span(partial.data(), partial.size())));
  return conn;
}

TEST(AdminHttp, StalledClientDoesNotBlockOtherRequests) {
  obs::Telemetry telemetry;
  AdminHttpServer http(telemetry, 0);
  http.start();
  TcpConnection staller = stalled_admin_client(http.port());

  // The sidecar serves one connection at a time, so /healthz is answered
  // only once the staller is dropped at the request deadline.
  constexpr int kBoundMs = AdminHttpServer::kRequestDeadlineMs + 1000;
  const auto t0 = std::chrono::steady_clock::now();
  HttpResponse healthz;
  try {
    healthz = http_get(http.port(), "/healthz", kBoundMs);
  } catch (const RpcError& e) {
    ADD_FAILURE() << "GET /healthz behind a stalled client: " << e.what();
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(healthz.status_line.find("200"), std::string::npos);
  EXPECT_EQ(healthz.body, "ok\n");
  EXPECT_LE(waited, std::chrono::milliseconds(kBoundMs));

  staller.close();
  http.stop();
}

TEST(AdminHttp, TricklingClientIsClosedAtTheDeadline) {
  obs::Telemetry telemetry;
  AdminHttpServer http(telemetry, 0);
  http.start();

  // One byte every 500 ms of a request line that never ends: each byte
  // arrives well within any per-read timeout, so only a whole-request
  // deadline can cut it off.
  TcpConnection trickler = TcpConnection::connect_local(http.port());
  const auto t0 = std::chrono::steady_clock::now();
  const std::string line = "GET /healthz HTTP/1.0 ";
  bool closed = false;
  for (std::size_t i = 0; i < 12 && !closed; ++i) {
    const char c = line[i % line.size()];
    if (::send(trickler.fd(), &c, 1, MSG_NOSIGNAL) != 1) {
      closed = true;
      break;
    }
    pollfd pfd{};
    pfd.fd = trickler.fd();
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 500) > 0) {
      char sink = 0;
      closed = ::recv(trickler.fd(), &sink, 1, MSG_DONTWAIT) <= 0;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(closed) << "the sidecar kept reading a trickled request for 6 s";
  if (closed) {
    EXPECT_GE(elapsed, std::chrono::milliseconds(AdminHttpServer::kRequestDeadlineMs / 2));
    EXPECT_LE(elapsed, std::chrono::milliseconds(AdminHttpServer::kRequestDeadlineMs + 1000));
  }
  trickler.close();
  http.stop();
}

TEST(AdminHttp, StopReturnsWhileAClientStalls) {
  obs::Telemetry telemetry;
  AdminHttpServer http(telemetry, 0);
  http.start();
  TcpConnection staller = stalled_admin_client(http.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // accepted, mid-read

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    http.stop();
    stopped.store(true);
  });
  const auto bound = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(AdminHttpServer::kRequestDeadlineMs + 1000);
  while (!stopped.load() && std::chrono::steady_clock::now() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(stopped.load()) << "stop() still waiting on a stalled admin client";
  staller.close();  // lets a stop() that did wait return, so the join cannot hang
  stopper.join();
}

TEST(AdminHttp, ControllerTimeseriesTickerClosesWallClockWindows) {
  CountingPolicy policy;
  ControllerServer server(policy, 0, {.timeseries_window_ms = 20});
  server.start();

  ControllerClient client(server.port());
  for (int i = 0; i < 5; ++i) {
    DecisionRequest req;
    req.call_id = i;
    req.options = {0, 1};
    (void)client.request_decision(req);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  client.shutdown();
  server.stop();

  const obs::TimeSeries series = server.timeseries();
  ASSERT_FALSE(series.empty());
  std::int64_t decisions = 0;
  for (const obs::TimeSeriesWindow& w : series.windows) {
    decisions += w.counter_delta("rpc.server.decisions");
  }
  EXPECT_EQ(decisions, 5);
}

}  // namespace
}  // namespace via
