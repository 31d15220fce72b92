// The unit of telemetry ownership: one registry + one decision trace +
// one flight recorder + one tracer.
//
// A Telemetry instance is owned by whoever hosts a policy (the simulation
// engine per run, the RPC server for its lifetime, an embedding app) and
// attached to the policy via RoutingPolicy::attach_telemetry().  Attaching
// is optional and detachable; policies must run identically, minus the
// bookkeeping, when none is attached.
//
// The tracer defaults to disabled (TraceConfig::sample_rate == 0):
// components cache a null Tracer* in that case, so request tracing costs
// one pointer test until a host opts in.  The flight recorder defaults to
// a resident ring — its producers are rare, structural events
// (quarantines, RPC errors, refresh ticks), never per-call work.
//
// All three event streams (decisions, spans, flight events) live in the
// one EventRing (obs/event_ring.h), so each of their bounds is per
// recording thread: kEventRingCapacity events per thread by default.
#pragma once

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace via::obs {

struct Telemetry {
  MetricsRegistry registry;
  DecisionTrace decisions;
  FlightRecorder flight;
  Tracer tracer;

  explicit Telemetry(std::size_t trace_capacity = kEventRingCapacity,
                     TraceConfig trace_config = {},
                     std::size_t flight_capacity = kEventRingCapacity)
      : decisions(trace_capacity), flight(flight_capacity), tracer(trace_config) {}

  /// The tracer to hand to hot paths: null unless tracing is enabled, so
  /// disabled tracing compiles down to a single branch at each call site.
  [[nodiscard]] Tracer* tracer_if_enabled() noexcept {
    return tracer.enabled() ? &tracer : nullptr;
  }
  /// Same contract for the flight recorder (capacity 0 disables it).
  [[nodiscard]] FlightRecorder* flight_if_enabled() noexcept {
    return flight.enabled() ? &flight : nullptr;
  }
};

}  // namespace via::obs
