// Request tracing: spans, the bounded span ring (an EventRing, bounded per
// recording thread), and a Tracer with deterministic head-based sampling.
//
// A trace is identified by a 64-bit trace id that rides the RPC frames
// from the client through the controller into ViaPolicy::choose, so the
// sub-stages of one slow decision line up under one root span.  Sampling
// is head-based and deterministic: whether a trace is recorded is a pure
// function of its id, so every component along the path reaches the same
// verdict without coordination.  Sample rate 0 disables tracing entirely —
// call sites carry a null Tracer* and the hot path pays a single branch.
//
// Spans export as Chrome trace-event JSON ("X" complete events), loadable
// in Perfetto / chrome://tracing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "obs/event_ring.h"
#include "util/rng.h"

namespace via::obs {

/// One timed operation inside a trace.  `name` must point at a string
/// literal (every call site does); spans are plain data otherwise.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< steady-clock ns since process start
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< hashed thread id (Chrome trace lane)
};

struct TraceConfig {
  /// Head sampling: record 1 in N traces (deterministic on trace id).
  /// 0 disables tracing; 1 records everything.
  std::uint32_t sample_rate = 0;
};

/// Span snapshot order: by start time, ties by span id.
struct SpanStartOrder {
  [[nodiscard]] bool operator()(const Span& a, const Span& b) const noexcept {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.span_id < b.span_id;
  }
};

/// Bounded span sink: each recording thread keeps its newest
/// kEventRingCapacity spans; snapshots come back in start order.
using SpanRing = EventRing<Span, SpanStartOrder>;

/// Deterministic trace id for a call whose caller did not supply one
/// (CallContext::trace_id == 0).  Both the RPC server and a standalone
/// ViaPolicy derive ids through this, so a replayed call id lands in the
/// same sampling bucket everywhere.
[[nodiscard]] inline std::uint64_t derive_trace_id(std::uint64_t call_id) noexcept {
  return hash_mix(0x7aceULL, call_id);
}

/// Span factory + sampling verdict + sink, owned by a Telemetry instance.
class Tracer {
 public:
  explicit Tracer(TraceConfig config = {}) : config_(config) {}

  /// False when constructed with sample_rate 0; callers keep a null
  /// Tracer* in that case so disabled tracing costs one pointer test.
  [[nodiscard]] bool enabled() const noexcept { return config_.sample_rate > 0; }

  /// Deterministic head-sampling verdict for a trace id.
  [[nodiscard]] bool sampled(std::uint64_t trace_id) const noexcept {
    const std::uint32_t rate = config_.sample_rate;
    return rate == 1 || (rate > 1 && hash_mix(trace_id, kSampleSalt) % rate == 0);
  }

  [[nodiscard]] std::uint64_t next_span_id() noexcept {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Monotonic ns since process start (one epoch for every tracer, so
  /// spans from different components line up on one timeline).
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Records `span` here and in SpanRing::process(), so one dump (e.g.
  /// the CI failure artifact) sees every tracer in the process.
  void emit(const Span& span) { buffer_.add(span); }

  [[nodiscard]] const SpanRing& buffer() const noexcept { return buffer_; }
  [[nodiscard]] SpanRing& buffer() noexcept { return buffer_; }
  [[nodiscard]] const TraceConfig& config() const noexcept { return config_; }

  /// Hashed id of the calling thread, for the Chrome trace `tid` lane.
  [[nodiscard]] static std::uint32_t current_tid() noexcept;

 private:
  static constexpr std::uint64_t kSampleSalt = 0x5a7ace;

  TraceConfig config_;
  SpanRing buffer_{kEventRingCapacity, &SpanRing::process()};
  std::atomic<std::uint64_t> next_span_id_{0};
};

/// RAII span scope, e.g. the server's rpc.decide or ViaPolicy::choose:
/// records up to kMaxStages sequential stage boundaries (none is fine)
/// with one clock read each and emits a root span plus one child span per
/// stage on destruction.  The root's span id is allocated up front, so
/// callees can parent under it.  All bookkeeping lives on the stack;
/// nothing is published until the scope ends, so the traced function's
/// own work is undisturbed.  Inert (single branch per call) when `tracer`
/// is null or the trace is not sampled.
class StagedSpan {
 public:
  static constexpr std::size_t kMaxStages = 8;

  StagedSpan(Tracer* tracer, std::uint64_t trace_id, std::uint64_t parent_id,
             const char* name) noexcept
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    if (!tracer_->sampled(trace_id)) {
      tracer_ = nullptr;
      return;
    }
    trace_id_ = trace_id;
    span_id_ = tracer_->next_span_id();
    parent_id_ = parent_id;
    name_ = name;
    start_ns_ = last_ns_ = Tracer::now_ns();
  }

  StagedSpan(const StagedSpan&) = delete;
  StagedSpan& operator=(const StagedSpan&) = delete;

  /// Closes the current stage: everything since the previous boundary (or
  /// the scope start) becomes one child span named `name`.
  void stage(const char* name) noexcept {
    if (tracer_ == nullptr || stage_count_ >= kMaxStages) return;
    const std::uint64_t now = Tracer::now_ns();
    stages_[stage_count_++] = Mark{name, last_ns_, now};
    last_ns_ = now;
  }

  /// Names the remainder (last boundary to scope end); by default the tail
  /// is folded into the root span unnamed.  The latest call wins, so each
  /// exit path of the traced function can label how it finished.
  void name_tail(const char* name) noexcept {
    if (tracer_ != nullptr) tail_name_ = name;
  }

  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }
  /// The root span's id; 0 when inert, so it can be passed straight
  /// through as a parent id.
  [[nodiscard]] std::uint64_t span_id() const noexcept { return span_id_; }

  ~StagedSpan();

 private:
  struct Mark {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
  };

  Tracer* tracer_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  const char* name_ = "";
  const char* tail_name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  std::size_t stage_count_ = 0;
  std::array<Mark, kMaxStages> stages_{};
};

// ------------------------------------------------------------ export

/// Writes spans as a Chrome trace-event JSON document ("X" complete
/// events, timestamps in microseconds), loadable in Perfetto.  At most
/// `max_events` spans are written (newest kept) so callers can bound the
/// document size.
void export_chrome_trace(std::span<const Span> spans, std::ostream& os,
                         std::size_t max_events = static_cast<std::size_t>(-1));

/// export_chrome_trace into a string, trimmed (newest spans kept) until it
/// fits `max_bytes` (0 = unbounded).
[[nodiscard]] std::string chrome_trace_json(const SpanRing& ring, std::size_t max_bytes = 0);

}  // namespace via::obs
