#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

// Counts the calling thread's heap allocations while enabled, so a test
// can assert that a hot path allocates nothing.
namespace {
thread_local bool g_count_allocations = false;
thread_local long g_allocations = 0;
}  // namespace

// GCC pairs the inlined free() below with the caller's `new` expression
// and flags a mismatch; both ends are these replacements, so it is not one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace via {
namespace {

using obs::DecisionEvent;
using obs::DecisionReason;

TEST(ObsCounter, ConcurrentIncrementsExact) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.snapshot().counter_value("test.hits"),
            static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(ObsGauge, LastWriteWinsAndRoundTripsDoubles) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("test.level");
  g.set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);
  g.set(-1e300);
  EXPECT_DOUBLE_EQ(g.value(), -1e300);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge_value("test.level"), -1e300);
}

TEST(ObsHistogram, BucketBoundariesUseLeSemantics) {
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  obs::LatencyHistogram h{std::span<const double>(bounds)};
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 finite + overflow
  h.observe(0.5);   // <= 1       -> bucket 0
  h.observe(1.0);   // == bound   -> bucket 0 (le semantics)
  h.observe(1.001); // > 1, <= 2  -> bucket 1
  h.observe(4.0);   // == last    -> bucket 2
  h.observe(100.0); // beyond     -> overflow
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 4.0 + 100.0);
}

TEST(ObsHistogram, ConcurrentObservesExactTotals) {
  obs::MetricsRegistry registry;
  obs::LatencyHistogram& h = registry.histogram("test.lat", obs::kLatencyBoundsUs);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(static_cast<double>(t + 1));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(kThreads) * kPerThread);
  // Sum of t+1 for t in [0,8) is 36, times kPerThread observations each.
  EXPECT_DOUBLE_EQ(h.sum(), 36.0 * kPerThread);
  std::int64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsHistogram, QuantileAndMeanFromSnapshot) {
  const std::vector<double> bounds{10.0, 20.0, 40.0};
  obs::LatencyHistogram h{std::span<const double>(bounds)};
  for (int i = 0; i < 90; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(30.0);
  obs::HistogramSample s;
  s.upper_bounds = bounds;
  s.counts = {h.bucket(0), h.bucket(1), h.bucket(2), h.bucket(3)};
  s.count = h.count();
  s.sum = h.sum();
  EXPECT_DOUBLE_EQ(s.mean(), (90 * 5.0 + 10 * 30.0) / 100.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 10.0);   // p50 in first bucket
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 40.0);  // p99 in the 30ms bucket
}

TEST(ObsRegistry, MergeIntoAddsCountersAndBuckets) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x").inc(3);
  b.counter("x").inc(4);
  b.counter("only_b").inc(1);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  const std::vector<double> bounds{1.0, 2.0};
  a.histogram("h", bounds).observe(0.5);
  b.histogram("h", bounds).observe(1.5);
  b.merge_into(a);
  const obs::MetricsSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.counter_value("x"), 7);
  EXPECT_EQ(snap.counter_value("only_b"), 1);
  EXPECT_DOUBLE_EQ(snap.gauge_value("g"), 2.0);  // gauges overwrite
  const obs::HistogramSample* h = snap.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_DOUBLE_EQ(h->sum, 2.0);
  EXPECT_EQ(h->counts[0], 1);
  EXPECT_EQ(h->counts[1], 1);
}

TEST(ObsTimer, ObservesElapsedOnDestruction) {
  const std::vector<double> bounds{1e9};  // everything lands in bucket 0
  obs::LatencyHistogram h{std::span<const double>(bounds)};
  { const obs::ScopedTimer t(h); }
  { const obs::ScopedTimer t(&h); }
  { const obs::ScopedTimer t(static_cast<obs::LatencyHistogram*>(nullptr)); }
  EXPECT_EQ(h.count(), 2);
  EXPECT_GE(h.sum(), 0.0);
}

DecisionEvent make_event(CallId id) {
  DecisionEvent e;
  e.call_id = id;
  e.time = 1000 + id;
  e.src_as = 3;
  e.dst_as = 9;
  e.option = static_cast<OptionId>(id % 5);
  e.reason = static_cast<DecisionReason>(id % obs::kNumDecisionReasons);
  e.predicted = 120.5 + static_cast<double>(id);
  e.top_k_size = 4;
  e.bandit_pulls = 10 * id;
  return e;
}

TEST(ObsTrace, RingWraparoundKeepsNewestOldestFirst) {
  obs::DecisionTrace trace(4);
  for (CallId id = 0; id < 10; ++id) trace.record(make_event(id));
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.recorded(), 10);
  EXPECT_EQ(trace.dropped(), 6);
  const std::vector<DecisionEvent> events = trace.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].call_id, static_cast<CallId>(6 + i));
  }
}

TEST(ObsTrace, FillObservedBackfillsResidentEventOnly) {
  obs::DecisionTrace trace(2);
  trace.record(make_event(1));
  trace.record(make_event(2));
  trace.record(make_event(3));     // evicts call 1
  trace.fill_observed(1, 55.0);    // no-op: evicted
  trace.fill_observed(3, 77.0);
  const std::vector<DecisionEvent> events = trace.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(std::isnan(events[0].observed));
  EXPECT_EQ(events[1].call_id, 3);
  EXPECT_DOUBLE_EQ(events[1].observed, 77.0);
}

TEST(ObsTrace, JsonlRoundTrip) {
  DecisionEvent e = make_event(42);
  e.observed = 98.75;
  const std::string line = e.to_jsonl();
  const std::optional<DecisionEvent> back = DecisionEvent::from_jsonl(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->call_id, e.call_id);
  EXPECT_EQ(back->time, e.time);
  EXPECT_EQ(back->src_as, e.src_as);
  EXPECT_EQ(back->dst_as, e.dst_as);
  EXPECT_EQ(back->option, e.option);
  EXPECT_EQ(back->reason, e.reason);
  EXPECT_DOUBLE_EQ(back->predicted, e.predicted);
  EXPECT_DOUBLE_EQ(back->observed, e.observed);
  EXPECT_EQ(back->top_k_size, e.top_k_size);
  EXPECT_EQ(back->bandit_pulls, e.bandit_pulls);
}

TEST(ObsTrace, JsonlNanSerializesAsNullAndParsesBack) {
  DecisionEvent e = make_event(7);  // observed defaults to NaN
  const std::string line = e.to_jsonl();
  EXPECT_NE(line.find("\"observed\":null"), std::string::npos);
  const std::optional<DecisionEvent> back = DecisionEvent::from_jsonl(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::isnan(back->observed));
}

TEST(ObsTrace, FromJsonlRejectsMalformed) {
  EXPECT_FALSE(DecisionEvent::from_jsonl("").has_value());
  EXPECT_FALSE(DecisionEvent::from_jsonl("{\"call\":1}").has_value());
  EXPECT_FALSE(DecisionEvent::from_jsonl("not json at all").has_value());
}

TEST(ObsTrace, ExportJsonlRoundTripsEveryLine) {
  obs::DecisionTrace trace(8);
  for (CallId id = 0; id < 6; ++id) trace.record(make_event(id));
  trace.fill_observed(4, 33.25);
  std::ostringstream os;
  trace.export_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<DecisionEvent> parsed;
  while (std::getline(is, line)) {
    const std::optional<DecisionEvent> e = DecisionEvent::from_jsonl(line);
    ASSERT_TRUE(e.has_value()) << line;
    parsed.push_back(*e);
  }
  ASSERT_EQ(parsed.size(), 6u);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].call_id, static_cast<CallId>(i));
  }
  EXPECT_DOUBLE_EQ(parsed[4].observed, 33.25);
}

TEST(ObsTrace, ReasonNamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kNumDecisionReasons; ++i) {
    const auto r = static_cast<DecisionReason>(i);
    const std::optional<DecisionReason> back =
        obs::decision_reason_from(obs::decision_reason_name(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
  }
  EXPECT_FALSE(obs::decision_reason_from("nonsense").has_value());
}

/// The decision ring as a naive deque: push at the back, drop the front
/// past capacity, fill the newest resident event with a matching call id.
class ReferenceTrace {
 public:
  explicit ReferenceTrace(std::size_t capacity) : capacity_(capacity) {}

  void record(const DecisionEvent& e) {
    if (capacity_ == 0) return;
    events_.push_back(e);
    if (events_.size() > capacity_) events_.pop_front();
    ++recorded_;
  }
  void fill_observed(CallId id, double observed) {
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
      if (it->call_id == id) {
        it->observed = observed;
        return;
      }
    }
  }
  [[nodiscard]] std::vector<DecisionEvent> snapshot() const {
    return {events_.begin(), events_.end()};
  }
  [[nodiscard]] std::int64_t recorded() const { return recorded_; }
  [[nodiscard]] std::int64_t dropped() const {
    return recorded_ - static_cast<std::int64_t>(events_.size());
  }

 private:
  std::size_t capacity_;
  std::deque<DecisionEvent> events_;
  std::int64_t recorded_ = 0;
};

bool same_event(const DecisionEvent& a, const DecisionEvent& b) {
  const auto same_double = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  return a.call_id == b.call_id && a.time == b.time && a.src_as == b.src_as &&
         a.dst_as == b.dst_as && a.option == b.option && a.reason == b.reason &&
         same_double(a.predicted, b.predicted) && same_double(a.observed, b.observed) &&
         a.top_k_size == b.top_k_size && a.bandit_pulls == b.bandit_pulls;
}

void expect_same_trace(const obs::DecisionTrace& trace, const ReferenceTrace& ref) {
  ASSERT_EQ(trace.recorded(), ref.recorded());
  ASSERT_EQ(trace.dropped(), ref.dropped());
  const std::vector<DecisionEvent> got = trace.snapshot();
  const std::vector<DecisionEvent> want = ref.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_event(got[i], want[i]))
        << "slot " << i << ": " << got[i].to_jsonl() << " vs " << want[i].to_jsonl();
  }
}

TEST(ObsTrace, SingleThreadMatchesNaiveReference) {
  // Seeded record/fill_observed sequences over a small id space, so ids
  // repeat while resident and get filled after eviction.
  for (const std::size_t capacity : {0u, 1u, 2u, 7u, 4096u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " + std::to_string(seed));
      std::mt19937_64 rng(seed * 7919 + capacity);
      obs::DecisionTrace trace(capacity);
      ReferenceTrace ref(capacity);
      const std::size_t ops = 3 * capacity + 300;
      const auto id_space = static_cast<CallId>(2 * capacity + 5);
      CallId fresh = 1'000'000;
      for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t roll = rng() % 10;
        if (roll < 6) {
          // Mostly reused ids; sometimes one never seen before.
          const CallId id = rng() % 4 == 0 ? fresh++ : static_cast<CallId>(rng() % id_space);
          DecisionEvent e = make_event(id);
          e.time = static_cast<TimeSec>(op);
          trace.record(e);
          ref.record(e);
        } else {
          const CallId id = roll == 9 ? fresh + 17 : static_cast<CallId>(rng() % id_space);
          const double observed = static_cast<double>(op) + 0.25;
          trace.fill_observed(id, observed);
          ref.fill_observed(id, observed);
        }
        if (op % 97 == 0) expect_same_trace(trace, ref);
      }
      expect_same_trace(trace, ref);
    }
  }
}

TEST(ObsTrace, ConcurrentRecordAndCrossThreadFillKeepEveryEvent) {
  // Each thread records its own call ids and fills the ids of the next
  // thread once that thread has published them, so every id gets exactly
  // one fill, from another shard, racing the owner's records.
  constexpr int kThreads = 4;
  constexpr CallId kPerThread = 6000;
  constexpr std::size_t kCapacity = 512;
  obs::DecisionTrace trace(kCapacity);
  std::array<std::atomic<CallId>, kThreads> published{};
  const auto observed_of = [](CallId id) { return static_cast<double>(id) + 0.5; };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int peer = (t + 1) % kThreads;
      CallId filled = 0;
      const auto fill_published = [&] {
        const CallId upto = published[peer].load(std::memory_order_acquire);
        for (; filled < upto; ++filled) {
          const CallId id = peer * kPerThread + filled;
          trace.fill_observed(id, observed_of(id));
        }
      };
      for (CallId i = 0; i < kPerThread; ++i) {
        trace.record(make_event(t * kPerThread + i));
        published[t].store(i + 1, std::memory_order_release);
        if (i % 16 == 0) fill_published();
      }
      while (filled < kPerThread) fill_published();
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(trace.recorded(), kThreads * kPerThread);
  const std::vector<DecisionEvent> events = trace.snapshot();
  EXPECT_EQ(static_cast<std::int64_t>(events.size()) + trace.dropped(), trace.recorded());
  EXPECT_GE(events.size(), kCapacity);
  EXPECT_LE(events.size(), kThreads * kCapacity);
  std::vector<CallId> ids;
  for (const DecisionEvent& e : events) {
    ids.push_back(e.call_id);
    EXPECT_EQ(e.observed, observed_of(e.call_id)) << "call " << e.call_id << " unfilled";
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << "event held twice";
}

TEST(ObsTrace, RecordAndFillAllocateNothingOnceTheShardExists) {
  obs::DecisionTrace trace(64);
  trace.record(make_event(0));  // creates this thread's shard
  g_allocations = 0;
  g_count_allocations = true;
  for (CallId id = 1; id < 1000; ++id) {
    trace.record(make_event(id % 100));
    trace.fill_observed(id / 2, 1.0);
  }
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0);
  EXPECT_EQ(trace.recorded(), 1000);
}

TEST(ObsExport, RenderersIncludeEveryInstrument) {
  obs::Telemetry telemetry;
  telemetry.registry.counter("policy.decision.ucb").inc(5);
  telemetry.registry.gauge("policy.refresh.tomography_segments").set(12.0);
  telemetry.registry.histogram("rpc.server.request_us", obs::kLatencyBoundsUs).observe(3.0);
  const obs::MetricsSnapshot snap = telemetry.registry.snapshot();

  const std::string table = obs::render_stats(snap, obs::StatsFormat::Table);
  EXPECT_NE(table.find("policy.decision.ucb"), std::string::npos);
  EXPECT_NE(table.find("rpc.server.request_us"), std::string::npos);

  const std::string json = obs::render_stats(snap, obs::StatsFormat::Json);
  EXPECT_NE(json.find("\"policy.decision.ucb\":5"), std::string::npos);
  EXPECT_NE(json.find("\"rpc.server.request_us\""), std::string::npos);

  const std::string prom = obs::render_stats(snap, obs::StatsFormat::Prometheus);
  EXPECT_NE(prom.find("policy_decision_ucb 5"), std::string::npos);
  EXPECT_NE(prom.find("rpc_server_request_us_bucket{le=\"1\"}"), std::string::npos);
  EXPECT_NE(prom.find("rpc_server_request_us_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(prom.find("rpc_server_request_us_count 1"), std::string::npos);
}

// ------------------------------------------------------------ JSON escaping

TEST(ObsExport, JsonEscapeRoundTripsHostileStrings) {
  const std::string hostile =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x07 nul-adjacent\x01 end";
  const std::string escaped = obs::json_escape(hostile);
  // The escaped form must be free of raw control characters and raw quotes.
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(obs::json_unescape(escaped), hostile);
  // Idempotent on plain text.
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_unescape("plain"), "plain");
}

TEST(ObsExport, RenderJsonEscapesHostileMetricNames) {
  obs::MetricsRegistry registry;
  registry.counter("bad\"name\nwith\\controls").inc(3);
  const std::string json = obs::render_stats(registry.snapshot(), obs::StatsFormat::Json);
  // The document must not contain a raw newline inside the name, and the
  // escaped name must parse back to the original.
  EXPECT_NE(json.find("bad\\\"name\\nwith\\\\controls"), std::string::npos);
  EXPECT_EQ(json.find("bad\"name"), std::string::npos);
}

TEST(ObsTrace, HealthReasonsRoundTripJsonl) {
  // The two health-path reasons ride JSONL dumps byte-exactly (§6f).
  for (const DecisionReason reason :
       {DecisionReason::QuarantinedRelay, DecisionReason::FallbackDirectOutage}) {
    DecisionEvent e;
    e.call_id = 4242;
    e.time = 86'400;
    e.src_as = 7;
    e.dst_as = 11;
    e.option = 3;
    e.reason = reason;
    e.predicted = 123.5;
    e.observed = 150.25;
    e.top_k_size = 5;
    e.bandit_pulls = 99;
    const std::string line = e.to_jsonl();
    EXPECT_NE(line.find(obs::decision_reason_name(reason)), std::string::npos);
    const std::optional<DecisionEvent> back = DecisionEvent::from_jsonl(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->call_id, e.call_id);
    EXPECT_EQ(back->reason, e.reason);
    EXPECT_EQ(back->option, e.option);
    EXPECT_DOUBLE_EQ(back->predicted, e.predicted);
    EXPECT_DOUBLE_EQ(back->observed, e.observed);
    EXPECT_EQ(back->top_k_size, e.top_k_size);
    EXPECT_EQ(back->bandit_pulls, e.bandit_pulls);
    // Round-trip is a fixed point: re-serializing parses identically.
    EXPECT_EQ(back->to_jsonl(), line);
  }
}

// -------------------------------------------- Prometheus exposition grammar

namespace prom_grammar {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

std::string_view line_metric_name(std::string_view line) {
  const std::size_t brace = line.find('{');
  const std::size_t space = line.find(' ');
  return line.substr(0, std::min(brace, space));
}

}  // namespace prom_grammar

TEST(ObsExport, PrometheusExpositionFollowsLineGrammar) {
  obs::MetricsRegistry registry;
  registry.counter("policy.decision.ucb").inc(5);
  registry.counter("rpc.client.errors.timeout").inc(2);
  registry.gauge("policy.health.quarantined").set(1.0);
  auto& h = registry.histogram("rpc.server.request_us", obs::kLatencyBoundsUs);
  h.observe(3.0);
  h.observe(700.0);
  const std::string prom = obs::render_stats(registry.snapshot(), obs::StatsFormat::Prometheus);

  std::istringstream in(prom);
  std::string line;
  std::string last_help_type_name;  // name announced by the preceding # HELP/# TYPE
  std::map<std::string, double> bucket_last;  // histogram name -> last le cumulative
  std::map<std::string, double> bucket_inf;   // histogram name -> +Inf cumulative
  std::map<std::string, double> histogram_count;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::istringstream meta(line.substr(7));
      std::string name;
      meta >> name;
      EXPECT_TRUE(prom_grammar::valid_metric_name(name)) << line;
      last_help_type_name = name;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    // Sample line: name[{labels}] value
    const std::string_view name = prom_grammar::line_metric_name(line);
    EXPECT_TRUE(prom_grammar::valid_metric_name(name)) << line;
    // Dots from internal names must have been mapped away.
    EXPECT_EQ(name.find('.'), std::string_view::npos) << line;
    // Every sample belongs to the family announced by the last HELP/TYPE.
    EXPECT_EQ(std::string(name).rfind(last_help_type_name, 0), 0u)
        << line << " vs " << last_help_type_name;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    double value = 0.0;
    ASSERT_NO_THROW(value = std::stod(line.substr(space + 1))) << line;
    // le buckets must be cumulative (monotone nondecreasing), ending at +Inf.
    const std::string n(name);
    if (n.size() > 7 && n.rfind("_bucket") == n.size() - 7) {
      const std::string family = n.substr(0, n.size() - 7);
      const std::size_t le = line.find("le=\"");
      ASSERT_NE(le, std::string::npos) << line;
      const std::string le_val = line.substr(le + 4, line.find('"', le + 4) - le - 4);
      if (le_val == "+Inf") {
        bucket_inf[family] = value;
      } else {
        EXPECT_GE(value, bucket_last[family]) << line;
        bucket_last[family] = value;
      }
    } else if (n.size() > 6 && n.rfind("_count") == n.size() - 6) {
      histogram_count[n.substr(0, n.size() - 6)] = value;
    }
  }
  // The histogram rendered, its +Inf bucket equals its count, and the
  // cumulative buckets never exceeded it.
  ASSERT_TRUE(bucket_inf.count("rpc_server_request_us"));
  EXPECT_DOUBLE_EQ(bucket_inf["rpc_server_request_us"], 2.0);
  EXPECT_DOUBLE_EQ(histogram_count["rpc_server_request_us"], 2.0);
  EXPECT_LE(bucket_last["rpc_server_request_us"], bucket_inf["rpc_server_request_us"]);
}

}  // namespace
}  // namespace via
