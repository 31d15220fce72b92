#include "obs/span.h"

#include <chrono>
#include <ostream>
#include <sstream>
#include <thread>

namespace via::obs {

std::uint64_t Tracer::now_ns() noexcept {
  // One steady epoch per process, captured on first use, so spans emitted
  // by different Telemetry instances share a timeline.
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

std::uint32_t Tracer::current_tid() noexcept {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

StagedSpan::~StagedSpan() {
  if (tracer_ == nullptr) return;
  const std::uint64_t end_ns = Tracer::now_ns();
  const std::uint32_t tid = Tracer::current_tid();
  Span root;
  root.trace_id = trace_id_;
  root.span_id = span_id_;
  root.parent_id = parent_id_;
  root.name = name_;
  root.start_ns = start_ns_;
  root.dur_ns = end_ns - start_ns_;
  root.tid = tid;
  for (std::size_t i = 0; i < stage_count_; ++i) {
    const Mark& m = stages_[i];
    Span child;
    child.trace_id = trace_id_;
    child.span_id = tracer_->next_span_id();
    child.parent_id = root.span_id;
    child.name = m.name;
    child.start_ns = m.begin_ns;
    child.dur_ns = m.end_ns - m.begin_ns;
    child.tid = tid;
    tracer_->emit(child);
  }
  if (tail_name_ != nullptr && end_ns > last_ns_) {
    Span tail;
    tail.trace_id = trace_id_;
    tail.span_id = tracer_->next_span_id();
    tail.parent_id = root.span_id;
    tail.name = tail_name_;
    tail.start_ns = last_ns_;
    tail.dur_ns = end_ns - last_ns_;
    tail.tid = tid;
    tracer_->emit(tail);
  }
  tracer_->emit(root);
}

namespace {

void hex_u64(std::ostream& os, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  int i = 16;
  do {
    buf[--i] = kDigits[v & 0xF];
    v >>= 4;
  } while (v != 0);
  os.write(&buf[i], 16 - i);
}

}  // namespace

void export_chrome_trace(std::span<const Span> spans, std::ostream& os,
                         std::size_t max_events) {
  if (spans.size() > max_events) {
    spans = spans.subspan(spans.size() - max_events);  // keep the newest
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) os << ",";
    first = false;
    // Complete ("X") events; Chrome wants microsecond timestamps.  Span
    // names are compile-time literals (see Span::name), safe to emit raw.
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"via\",\"ph\":\"X\",\"ts\":"
       << static_cast<double>(s.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1000.0
       << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"trace\":\"";
    hex_u64(os, s.trace_id);
    os << "\",\"span\":\"";
    hex_u64(os, s.span_id);
    os << "\",\"parent\":\"";
    hex_u64(os, s.parent_id);
    os << "\"}}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}";
}

std::string chrome_trace_json(const SpanRing& ring, std::size_t max_bytes) {
  const std::vector<Span> spans = ring.snapshot();
  std::size_t max_events = spans.size();
  for (;;) {
    std::ostringstream ss;
    export_chrome_trace(spans, ss, max_events);
    std::string out = ss.str();
    if (max_bytes == 0 || out.size() <= max_bytes || max_events == 0) return out;
    max_events /= 2;  // trim oldest half and retry until it fits
  }
}

}  // namespace via::obs
