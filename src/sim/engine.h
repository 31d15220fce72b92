// Chronological trace-replay engine (the paper's Section 5.1 methodology).
//
// Calls are replayed in trace order.  For each call the engine asks the
// policy for a relaying option, samples the resulting performance from
// ground truth (a draw from the same (AS pair, option, 24h window)
// distribution, as in the paper), feeds the measurement back to the
// policy, and accumulates evaluation statistics.  Policies are refreshed
// at fixed period boundaries (stages 2-3 cadence, default 24 h).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"

#include "common/relay_option.h"
#include "core/policy.h"
#include "netsim/groundtruth.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "quality/pnr.h"
#include "sim/faults.h"
#include "trace/arrival.h"
#include "trace/stream.h"

namespace via {

/// Spatial granularity of policy decision state (Figure 17a).
enum class Granularity : std::uint8_t { Country, AsPair, Prefix };

struct RunConfig {
  TimeSec refresh_period = 24 * 3600;  ///< T: controller refresh cadence
  Granularity granularity = Granularity::AsPair;
  bool exclude_transit = false;  ///< restrict candidates to direct+bounce (§5.2)
  /// Fraction of calls relayed for *connectivity* (NAT/firewall traversal),
  /// independent of the policy — the Skype dataset contains such calls and
  /// they are what seeds every strategy's history with relayed-path
  /// samples.  These calls bypass the policy's choice (it still observes
  /// them) and are excluded from evaluation.
  double background_relay_fraction = 0.05;
  /// Active measurements (§7): after each refresh, execute up to this many
  /// of the policy's requested probe calls (0 disables).
  int probes_per_refresh = 0;
  /// Hybrid racing (§7): let the policy race several options per call and
  /// keep the best on `race_metric`; every raced option produces a
  /// measurement the policy observes.
  bool enable_racing = false;
  Metric race_metric = Metric::Rtt;
  /// Evaluate only calls whose AS pair has at least this many calls in the
  /// whole trace (the paper's data-density eligibility filter).
  std::int64_t min_pair_calls_for_eval = 0;
  bool collect_values = true;       ///< keep per-call metric values (percentiles)
  bool collect_by_country = false;  ///< per-country PNR (Figure 14)
  PoorThresholds thresholds;
  /// Telemetry (src/obs/): the engine owns an obs::Telemetry per run,
  /// attaches it to the policy, tags every replayed call (policy-routed
  /// calls are traced by the policy; connectivity-relayed background calls
  /// are tagged by the engine), and snapshots the registry + decision
  /// trace into RunResult.  The per-run registry is also folded into
  /// obs::MetricsRegistry::process() so bench binaries can report a
  /// session-wide summary.
  bool enable_telemetry = true;
  /// Decision-event ring (obs::DecisionTrace) capacity; 0 (the default)
  /// keeps no events, so RunResult::decisions stays empty.  The reason and
  /// choice counters, engine.choose_ns and the flight recorder do not
  /// depend on it.  Set it when the caller reads the events.
  std::size_t decision_trace_capacity = 0;
  /// Request tracing (§6g): sample_rate 0 (the default) disables it and
  /// the replay is bit-identical to an untraced run; nonzero records 1 in
  /// N decision traces into RunResult::spans.
  obs::TraceConfig trace;
  /// Flight-recorder ring capacity for the run (0 disables; §6g).  A
  /// replay records refresh and fault events only (a Medium replay 58, the
  /// fault tests at most 144), so 1024 keeps every one; the reservation
  /// stays under glibc's 128 KiB mmap threshold, which a larger per-run
  /// ring raises for the rest of the process.
  std::size_t flight_capacity = 1024;
  /// Windowed time series (§6g): close a telemetry window every this many
  /// sim seconds into RunResult::timeseries, each annotated with the
  /// window's evaluated-call count, mean PNR, and mean RTT.  0 disables.
  TimeSec timeseries_window = 0;
  /// Fault injection (§6f): every ground-truth sample the engine draws —
  /// policy-routed, background, probe, and raced alike — passes through
  /// the plan, which impairs options riding a faulted relay.  Null or
  /// empty leaves every sample untouched (golden-replay invariant).  The
  /// plan must outlive the run.
  const FaultPlan* faults = nullptr;
};

struct RunResult {
  std::string policy_name;
  std::int64_t calls = 0;
  std::int64_t evaluated_calls = 0;
  PnrAccumulator pnr;
  PnrAccumulator pnr_international;
  PnrAccumulator pnr_domestic;
  std::unordered_map<CountryId, PnrAccumulator> by_country;  ///< international calls
  /// Per-call metric values of evaluated calls (for percentile analysis).
  std::array<std::vector<double>, kNumMetrics> values;
  /// Option-kind mix of the policy's decisions.
  std::int64_t used_direct = 0;
  std::int64_t used_bounce = 0;
  std::int64_t used_transit = 0;
  /// Extension accounting.
  std::int64_t probes_executed = 0;
  std::int64_t raced_extra_samples = 0;  ///< raced options beyond the one kept
  /// Fault accounting (§6f): samples the plan altered (0 without a plan).
  std::int64_t fault_impaired_samples = 0;
  /// Telemetry captured at the end of the run (empty when disabled):
  /// registry snapshot plus the resident tail of the decision trace.
  obs::MetricsSnapshot telemetry;
  /// Resident decision events; empty unless decision_trace_capacity > 0.
  std::vector<obs::DecisionEvent> decisions;
  /// §6g observability captures (each empty unless its RunConfig knob
  /// enabled it): windowed counter/histogram deltas, sampled spans, and
  /// the flight recorder's structural events.
  obs::TimeSeries timeseries;
  std::vector<obs::Span> spans;
  std::vector<obs::FlightEvent> flight;

  [[nodiscard]] double relayed_fraction() const noexcept {
    const auto total = used_direct + used_bounce + used_transit;
    return total > 0 ? static_cast<double>(used_bounce + used_transit) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

class SimulationEngine {
 public:
  /// `arrivals` must be sorted by time (TraceGenerator guarantees this).
  /// Wraps the span in a SpanStream — the materialized and streaming
  /// constructors replay identically.
  SimulationEngine(GroundTruth& ground_truth, std::span<const CallArrival> arrivals,
                   RunConfig config = {});

  /// Streaming replay (§6i): pulls arrivals from `stream` one at a time —
  /// nothing materializes the trace, so memory stays flat regardless of
  /// call count.  The stream must yield arrivals sorted by time and must
  /// outlive the engine.  With min_pair_calls_for_eval > 0 the constructor
  /// makes one extra counting pass over the stream (then reset()s it).
  SimulationEngine(GroundTruth& ground_truth, ArrivalStream& stream, RunConfig config = {});

  /// Replays the whole trace through one policy.  reset()s the stream
  /// first, so successive runs (one per policy) see the same trace.
  [[nodiscard]] RunResult run(RoutingPolicy& policy);

  [[nodiscard]] const RunConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::span<const OptionId> options_for(AsId src, AsId dst);
  void map_keys(const CallArrival& a, AsId& key_src, AsId& key_dst) const;
  void count_pair_calls();

  GroundTruth* gt_;
  std::unique_ptr<ArrivalStream> owned_stream_;  ///< span ctor's SpanStream
  ArrivalStream* stream_;
  RunConfig config_;
  FlatMap<std::int64_t> pair_call_counts_;
  /// Transit-free candidate cache (when exclude_transit is set).  An empty
  /// cached vector means "nothing was filtered — serve the ground-truth
  /// span as-is" (a genuinely filtered set always keeps the direct option,
  /// so it can never be empty).
  FlatMap<std::vector<OptionId>> filtered_options_;
};

}  // namespace via
