// The three phases every benchmark run drives, each against the run's one
// Experiment.  A phase takes an optional Ledger: null runs
// it untraced (end-to-end numbers), non-null wraps the policy in a
// TracedPolicy and records client spans (per-layer numbers).
//
// Each phase runs in slices (replay passes, serving segments) that add to
// one result, so a run can interleave the phases: every phase then samples
// the whole run's stretch of host conditions, not one few-second stretch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/via_policy.h"
#include "ledger.h"
#include "sim/experiment.h"
#include "stats.h"

namespace ctlbench {

/// Trace days the serving policies learn from before they serve.
inline constexpr int kWarmDays = 7;
/// call_cycle's offered load: calls per second (two frames each).  While a
/// refresh prepares, its solve threads take every core for a few
/// milliseconds; at 50k calls/s the calls delayed by that are about 1% of
/// all calls, so p99 flips between two modes from run to run.  At 20k they
/// are about 0.5%.
inline constexpr double kOfferedRate = 20'000.0;
/// Width of the windows the throughput and latency metrics take their
/// quantiles over: short enough that the host's slow spells, which come and
/// go within seconds on a shared machine, spoil only some windows of a run.
inline constexpr std::int64_t kWindowNs = 100'000'000;
/// A run drives its phases in this many interleaved rounds; in each,
/// decide_hot and call_cycle run one segment with a fresh server and fresh
/// client threads.  Which vCPUs a segment's threads land on moves its
/// throughput and tails by a third on a shared host; over several segments
/// the windows sample several placements, not one draw.
inline constexpr int kRounds = 6;
/// The replay's progress is sampled every this many nanoseconds ...
inline constexpr std::int64_t kProgressTickNs = 1'000'000;
/// ... and a pass is split into stretches of this many policy calls.
inline constexpr std::int64_t kStretchCalls = 10'000;
/// A reply later than this counts as failed, as Busy and Error replies do.
inline constexpr std::int64_t kFailAfterNs = 100'000'000;

/// Default ViaPolicy settings (one serving stripe, as the golden replays
/// use), with `seed` seeding its exploration streams.
[[nodiscard]] via::ViaConfig policy_config(std::uint64_t seed);
/// The controller daemon's policy settings (apps/via_controller.cpp):
/// 16 serving stripes, prewarm on, one solve thread per core; `seed` seeds
/// the policy's exploration streams.
[[nodiscard]] via::ViaConfig serving_config(std::uint64_t seed);
/// The daemon's reactor worker count: clamp(cores / 2, 2, 8).
[[nodiscard]] int reactor_workers();

/// A serving ViaPolicy warmed on the first kWarmDays of the trace (a serial
/// replay through it), followed by one refresh at the end of those days.
[[nodiscard]] std::unique_ptr<via::ViaPolicy> warm_serving_policy(via::Experiment& exp,
                                                                std::uint64_t seed);

struct ReplayResult {
  std::vector<double> calls_per_s;  ///< one per pass
  /// Per pass, the time each kStretchCalls-call stretch of it took (the
  /// last stretch holds the remainder).
  std::vector<std::vector<double>> stretch_ns;
  std::vector<std::uint64_t> fingerprints;
  std::int64_t calls = 0;           ///< policy-routed calls, all passes
  double pnr_pct = 0.0;             ///< Via's at-least-one-bad PNR, first pass
  double cold_start_direct_frac = 0.0;
  std::int64_t predict_considered = 0;
  double tomography_sweeps = 0.0;
  std::size_t model_bytes = 0;
  std::vector<double> sim_self_ns_per_call;  ///< traced passes only
};
/// Replays the whole trace serially through SimulationEngine, a fresh
/// 1-stripe ViaPolicy(Rtt) per pass, until `seconds` have passed (at least
/// one pass), adding the passes to `out`.  `seed` seeds the policy's
/// exploration.
void run_replay(via::Experiment& exp, double seconds, std::uint64_t seed, Ledger* ledger,
                ReplayResult& out);
/// Calls per second of a pass that took, over each stretch of the trace,
/// the least time any pass took over it: the pass as the program runs it
/// with the host calm, which a shared host rarely grants a whole pass.
[[nodiscard]] double fastest_stretches_rate(const ReplayResult& r);
/// Fingerprint of a replay's per-call outcomes; equal for bit-identical runs.
[[nodiscard]] std::uint64_t fingerprint(const via::RunResult& r);

struct RpcTally {
  std::int64_t sent = 0;
  std::int64_t failed = 0;      ///< Busy, Error, late past kFailAfterNs, or missing
  std::int64_t mismatched = 0;  ///< wrong reply type, call id or option
};

struct DecideResult {
  RpcTally tally;
  int segments = 0;
  std::int64_t windows = 0;                 ///< whole windows timed, all segments
  WindowedHistogram latency_ns{kWindowNs};  ///< send -> reply, by reply time, timed window only
  std::int64_t replies = 0;
  std::int64_t process_cpu_ns = 0;  ///< whole process, over the segments
  std::int64_t client_cpu_ns = 0;   ///< the client threads
  std::int64_t busy_replies = 0;
  std::int64_t protocol_errors = 0;
  std::int64_t backpressure_pauses = 0;
  std::string backend;
};
/// One closed-loop segment of about `seconds`, added to `out`: 4 loopback
/// connections from 2 client threads, 16 DecisionRequests outstanding on
/// each, against `policy` behind a fresh epoll ControllerServer.  No
/// reports, no refreshes.
void run_decide(via::Experiment& exp, via::ViaPolicy& policy, double seconds, std::uint64_t seed,
                Ledger* ledger, DecideResult& out);
/// Request and response encode plus decode, in ns per request, timed on
/// decide_hot's own request frames.
[[nodiscard]] double decide_codec_ns(via::Experiment& exp, std::uint64_t seed);

struct CycleResult {
  RpcTally decisions;
  RpcTally reports;
  RpcTally refreshes;
  WindowedHistogram call_ns{kWindowNs};    ///< decision reply, from the call's due time
  WindowedHistogram report_ns{kWindowNs};  ///< report ack, from the report's due time
  LogHistogram late_ns;    ///< send time minus due time, every frame
  LogHistogram refresh_call_ns;  ///< decision reply of calls sent while a Refresh was in flight
  std::vector<double> refresh_ms;
  std::int64_t decisions_served = 0;
  std::int64_t reports_received = 0;
  std::int64_t busy_replies = 0;
  std::int64_t backpressure_pauses = 0;
  std::vector<double> refresh_stall_us_p99;  ///< per segment that saw a refresh
  std::int64_t windows = 0;    ///< windows walked so far, all segments
  std::int64_t next_call = 0;  ///< where the walk carries on
};
/// call_cycle's open loop, segment by segment against one serving policy
/// (warmed at construction, `seed` seeding it and picking where in the
/// trace the walk starts).  The loop walks the trace after the warm-up days
/// at kOfferedRate, in order and repeated with shifted times: each call is
/// a DecisionRequest at its due time and a Report a fixed lag later on one
/// connection, and a Refresh RPC fires at every sim-day boundary on a
/// second one.
class CyclePhase {
 public:
  CyclePhase(via::Experiment& exp, std::uint64_t seed);
  /// One segment of about `seconds` against a fresh epoll ControllerServer,
  /// carrying on the walk; added to result().
  void run(double seconds, Ledger* ledger);
  [[nodiscard]] const CycleResult& result() const noexcept { return out_; }

 private:
  via::Experiment* exp_;
  std::uint64_t seed_;
  std::unique_ptr<via::ViaPolicy> policy_;
  CycleResult out_;
};

}  // namespace ctlbench
