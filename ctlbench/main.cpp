// ctl_bench: the Via controller benchmark (README.md in this directory).
//
//   ctl_bench --workload decide_hot|call_cycle|replay --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//   ctl_bench --self-test
//
// Every run builds the Medium Experiment and drives all
// three phases — replay, decide_hot, call_cycle — interleaved in rounds, so
// every metric is measured in every run; the workload names the phase that
// gets the measured seconds, the other two get 0.4 of them.  Output is one
// fact per line (`env`, `check`, `count`, `info`, `metric NAME VALUE
// UNIT`); run.py turns those into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "phases.h"

#ifndef CTLBENCH_BUILD_TYPE
#define CTLBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ctlbench;

constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

class Out {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    std::ostringstream os;
    os << std::setprecision(17) << value;
    std::cout << "metric " << name << ' ' << os.str() << ' ' << unit << '\n';
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    std::cout << "check " << name << ' ' << (ok ? "ok" : "FAIL") << ' ' << detail << '\n';
    all_ok_ = all_ok_ && ok;
  }
  template <typename T>
  void env(const std::string& key, const T& value) {
    std::cout << "env " << key << ' ' << value << '\n';
  }
  void info(const std::string& text) { std::cout << "info " << text << '\n'; }
  [[nodiscard]] bool all_ok() const noexcept { return all_ok_; }

 private:
  bool all_ok_ = true;
};

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Cumulative (steal, total) CPU ticks from /proc/stat.  Steal is time the
/// hypervisor ran something else while this guest's CPUs were runnable.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  stat >> cpu;
  for (int field = 0; field < 8 && (stat >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Reports the tail the sample count supports under the ten-beyond rule.
void report_tail(Out& out, const std::string& what, const LogHistogram& h, double scale) {
  const std::optional<double> p = tail_percentile(h.count());
  if (!p) {
    out.info("tail " + what + " none n=" + std::to_string(h.count()));
    return;
  }
  out.info("tail " + what + " p" + num(*p) + "=" + num(h.quantile(*p / 100.0) / scale) +
           " n=" + std::to_string(h.count()));
}

struct Setup {
  std::unique_ptr<via::Experiment> exp;
  std::unique_ptr<via::ViaPolicy> decide_policy;
  std::vector<double> experiment_s, warm_caches_s, policy_warmup_s, total_s;
};

/// Builds the world, trace, ground-truth caches and a warmed serving
/// policy kSetupReps times (each from scratch), keeping the last.  The
/// Medium world and trace are fixed: the seed varies what runs over them
/// (policy exploration streams, decide_hot's request stream, where
/// call_cycle starts its walk), not the network and its traffic, whose pair
/// mix alone moves Via's PNR by over 10% from one trace to another.
Setup run_setup(std::uint64_t seed) {
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.decide_policy.reset();
    s.exp.reset();
    const std::int64_t t0 = mono_ns();
    s.exp = std::make_unique<via::Experiment>(
        via::Experiment::default_setup(via::Experiment::Scale::Medium));
    const std::int64_t t1 = mono_ns();
    s.exp->warm_caches();
    const std::int64_t t2 = mono_ns();
    s.decide_policy = warm_serving_policy(*s.exp, seed);
    const std::int64_t t3 = mono_ns();
    s.experiment_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    s.warm_caches_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    s.policy_warmup_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    s.total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  }
  return s;
}

/// Where the serving figures sit among a run's 100 ms windows: the level
/// three quarters of the windows reach, i.e. the upper quartile of window
/// latencies and the lower quartile of window throughputs.  Where a
/// segment's fresh threads land sets its speed: on the test VM about one
/// segment in three served ~110k decisions per window and the rest ~80k.
/// A quantile between those two modes (the median, or the better quartile)
/// follows how many fast segments a run happened to draw, and spread by up
/// to a third over ten runs; the worse quartile stays inside the common
/// mode and spread under a tenth.
constexpr double kServingQuantile = 0.75;

double call_p50_ns(const CycleResult& cr) {
  return cr.call_ns.quantile_over_windows(0.50, kServingQuantile);
}

/// The lower quartile of the Refresh round trips (11 to 28 of them in a
/// run); of the three quartiles it spread least from run to run.
double refresh_ms(const CycleResult& cr) {
  std::vector<double> sorted = cr.refresh_ms;
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, 0.25);
}

/// Replies per second in the lower-quartile one of the timed window's whole
/// 100 ms windows.
double decide_rps(const DecideResult& d) {
  return d.latency_ns.quantile_count(static_cast<std::size_t>(d.windows), 1.0 - kServingQuantile) *
         1e9 / static_cast<double>(kWindowNs);
}

/// The output checks every run makes.
void check_outputs(Out& out, const ReplayResult& rr, double default_pnr, const DecideResult& dr,
                   const CycleResult& cr) {
  const bool identical = std::all_of(rr.fingerprints.begin(), rr.fingerprints.end(),
                                     [&](std::uint64_t f) { return f == rr.fingerprints[0]; });
  out.check("replay.bit_identical", identical,
            std::to_string(rr.fingerprints.size()) + "_passes");
  out.check("replay.via_beats_default", rr.pnr_pct < default_pnr,
            "via=" + num(rr.pnr_pct) + "%_default=" + num(default_pnr) + "%");
  out.check("decide_hot.replies_match", dr.tally.mismatched == 0,
            std::to_string(dr.tally.mismatched) + "_mismatched_of_" + std::to_string(dr.tally.sent));
  out.check("decide_hot.p99_samples", dr.latency_ns.windows_supporting(0.99) > 0,
            std::to_string(dr.latency_ns.windows_supporting(0.99)) + "_windows");
  out.check("call_cycle.decisions_served", cr.decisions_served == cr.decisions.sent,
            std::to_string(cr.decisions_served) + "_of_" + std::to_string(cr.decisions.sent));
  out.check("call_cycle.reports_received", cr.reports_received == cr.reports.sent,
            std::to_string(cr.reports_received) + "_of_" + std::to_string(cr.reports.sent));
  out.check("call_cycle.replies_match",
            cr.decisions.mismatched + cr.reports.mismatched == 0,
            std::to_string(cr.decisions.mismatched + cr.reports.mismatched) + "_mismatched");
  out.check("call_cycle.p99_samples",
            cr.call_ns.windows_supporting(0.99) > 0 && cr.report_ns.windows_supporting(0.99) > 0,
            std::to_string(cr.call_ns.windows_supporting(0.99)) + "_windows");
  out.check("call_cycle.refreshed", !cr.refresh_ms.empty() && cr.refreshes.failed == 0,
            std::to_string(cr.refresh_ms.size()) + "_refreshes");
}

/// Every RPC the run sent, and how many failed.
RpcTally rpc_total(const DecideResult& dr, const CycleResult& cr) {
  RpcTally total;
  for (const RpcTally* t : {&dr.tally, &cr.decisions, &cr.reports, &cr.refreshes}) {
    total.sent += t->sent;
    total.failed += t->failed;
  }
  return total;
}

void report_counts(const ReplayResult& rr, const DecideResult& dr, const CycleResult& cr) {
  const RpcTally rpc = rpc_total(dr, cr);
  std::cout << "count attempted " << rr.calls + rpc.sent << "\ncount failed " << rpc.failed
            << '\n';
}

double rpc_ok_frac(const DecideResult& dr, const CycleResult& cr) {
  const RpcTally rpc = rpc_total(dr, cr);
  return 1.0 - static_cast<double>(rpc.failed) /
                   static_cast<double>(std::max<std::int64_t>(rpc.sent, 1));
}

void report_end_to_end(Out& out, const Setup& setup, const ReplayResult& rr,
                       const DecideResult& dr, const CycleResult& cr) {
  out.metric("setup_s", median(setup.total_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("decide_rps", decide_rps(dr), "1/s");
  out.metric("decide_p50_us", dr.latency_ns.quantile_over_windows(0.50, kServingQuantile) / 1e3,
             "us");
  // A window's p99 jumps when the hypervisor preempts a vCPU in it, so the
  // worse quartile of windows follows how much steal a run met; the median
  // window spread about half as much over sets of ten runs.
  out.metric("decide_p99_us", dr.latency_ns.quantile_over_windows(0.99, 0.5) / 1e3, "us");
  out.metric("call_p50_us", call_p50_ns(cr) / 1e3, "us");
  out.metric("refresh_ms", refresh_ms(cr), "ms");
  out.metric("ok_frac", rpc_ok_frac(dr, cr), "frac");
  out.metric("replay_calls_per_s", fastest_stretches_rate(rr), "1/s");
  out.metric("replay_pnr_pct", rr.pnr_pct, "pct");
  // The samples behind each figure, for judging run-to-run spread.
  const auto samples = [&out](const std::string& what, const std::vector<double>& values,
                              double scale) {
    std::string line = "samples " + what;
    for (const double v : values) line += " " + num(v / scale);
    out.info(line);
  };
  samples("window_p50_decide_us", dr.latency_ns.window_quantiles(0.50), 1e3);
  samples("window_p50_call_us", cr.call_ns.window_quantiles(0.50), 1e3);
  samples("window_p99_decide_us", dr.latency_ns.window_quantiles(0.99), 1e3);
  std::vector<double> counts;
  for (const std::int64_t n : dr.latency_ns.window_counts()) counts.push_back(static_cast<double>(n));
  samples("window_replies_decide", counts, 1.0);
  samples("window_p99_call_us", cr.call_ns.window_quantiles(0.99), 1e3);
  samples("window_p99_report_us", cr.report_ns.window_quantiles(0.99), 1e3);
  samples("refresh_ms", cr.refresh_ms, 1.0);
  samples("replay_calls_per_s", rr.calls_per_s, 1.0);
  samples("setup_s", setup.total_s, 1.0);
  report_tail(out, "decide_us", dr.latency_ns.total(), 1e3);
  report_tail(out, "call_us", cr.call_ns.total(), 1e3);
  report_tail(out, "report_us", cr.report_ns.total(), 1e3);
  report_tail(out, "call_during_refresh_us", cr.refresh_call_ns, 1e3);
}

/// GroundTruth::sample_call re-timed on the observation stream the traced
/// replay drew, in ns per sample.
double time_sample_call(via::Experiment& exp, const std::vector<SampleKey>& samples) {
  if (samples.empty()) return 0.0;
  double checksum = 0.0;
  std::vector<double> per;
  for (int round = 0; round < 3; ++round) {
    const std::int64_t t0 = mono_ns();
    for (const SampleKey& s : samples) {
      checksum += exp.ground_truth().sample_call(s.id, s.src, s.dst, s.option, s.time).rtt_ms;
    }
    per.push_back(static_cast<double>(mono_ns() - t0) / static_cast<double>(samples.size()));
  }
  return checksum < 0.0 ? 0.0 : median(per);
}

/// What the engine's and policy's instruments cost per call: replay passes
/// with RunConfig::enable_telemetry off and on (the default), in three
/// pairs whose order alternates so host drift cancels; the median of the
/// paired differences.
double telemetry_ns_per_call(Out& out, via::Experiment& exp, std::uint64_t seed,
                             std::uint64_t expect) {
  constexpr int kPairs = 3;
  std::vector<double> diffs;
  bool identical = true;
  for (int pair = 0; pair < kPairs; ++pair) {
    double ns_on = 0.0;
    double ns_off = 0.0;
    for (const bool on : {pair % 2 == 1, pair % 2 == 0}) {
      via::RunConfig config;
      config.enable_telemetry = on;
      auto policy = exp.make_via(via::Metric::Rtt, policy_config(seed));
      const std::int64_t t0 = mono_ns();
      const via::RunResult r = exp.run(*policy, config);
      const double ns = static_cast<double>(mono_ns() - t0) / static_cast<double>(r.calls);
      (on ? ns_on : ns_off) = ns;
      identical = identical && fingerprint(r) == expect;
    }
    diffs.push_back(ns_on - ns_off);
  }
  out.check("replay.telemetry_invariant", identical, "off_and_on_match");
  return median(diffs);
}

/// The number trace_overhead_pct compares for each workload.
double headline(const std::string& workload, const ReplayResult& rr, const DecideResult& dr,
                const CycleResult& cr) {
  if (workload == "decide_hot") return decide_rps(dr);
  if (workload == "call_cycle") return call_p50_ns(cr);
  return fastest_stretches_rate(rr);
}

/// Seconds each phase gets in one drive; 0 leaves a phase out.
struct Seconds {
  double replay = 0.0;
  double decide = 0.0;
  double cycle = 0.0;
};

/// Drives the phases in kRounds interleaved rounds (replay, decide_hot,
/// call_cycle, replay, ...), each round giving every phase its share of
/// `s`, so each phase samples the host across the whole drive.
void drive(via::Experiment& exp, via::ViaPolicy& decide_policy, const Seconds& s,
           std::uint64_t seed, Ledger* ledger, ReplayResult& rr, DecideResult& dr,
           CyclePhase& cycle) {
  for (int round = 0; round < kRounds; ++round) {
    if (s.replay > 0.0) run_replay(exp, s.replay / kRounds, seed, ledger, rr);
    if (s.decide > 0.0) run_decide(exp, decide_policy, s.decide / kRounds, seed, ledger, dr);
    if (s.cycle > 0.0) cycle.run(s.cycle / kRounds, ledger);
  }
}

int run(const Args& args) {
  Out out;
  out.env("workload", args.workload);
  out.env("seed", args.seed);
  out.env("seconds", args.seconds);
  out.env("trace", args.trace ? 1 : 0);
  out.env("nproc", std::thread::hardware_concurrency());
  out.env("build_type", CTLBENCH_BUILD_TYPE);
  out.env("reactor_workers", reactor_workers());
  out.env("offered_rate_per_s", kOfferedRate);

  const auto [steal0, total0] = cpu_ticks();
  const auto report_steal = [&] {
    const auto [steal1, total1] = cpu_ticks();
    out.env("host_steal_pct", total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0) : 0.0);
  };
  Setup setup = run_setup(args.seed);
  via::Experiment& exp = *setup.exp;
  out.env("trace_calls", exp.arrivals().size());
  const via::RunResult def = exp.run(*exp.make_default());  // the replay check's baseline
  const double default_pnr = 100.0 * def.pnr.pnr_any();

  const double minor = std::max(1.0, 0.4 * args.seconds);
  const Seconds all{args.workload == "replay" ? args.seconds : minor,
                    args.workload == "decide_hot" ? args.seconds : minor,
                    args.workload == "call_cycle" ? args.seconds : minor};

  if (!args.trace) {
    ReplayResult rr;
    DecideResult dr;
    CyclePhase cycle(exp, args.seed);
    drive(exp, *setup.decide_policy, all, args.seed, nullptr, rr, dr, cycle);
    const CycleResult& cr = cycle.result();
    out.env("serving_backend", dr.backend);
    report_steal();
    check_outputs(out, rr, default_pnr, dr, cr);
    report_end_to_end(out, setup, rr, dr, cr);
    report_counts(rr, dr, cr);
    return out.all_ok() ? 0 : 1;
  }

  // Untraced run of the workload's own phase alone: the base of
  // trace_overhead_pct.
  double untraced = 0.0;
  {
    ReplayResult rr;
    DecideResult dr;
    CyclePhase cycle(exp, args.seed);
    const Seconds own{args.workload == "replay" ? args.seconds : 0.0,
                      args.workload == "decide_hot" ? args.seconds : 0.0,
                      args.workload == "call_cycle" ? args.seconds : 0.0};
    drive(exp, *setup.decide_policy, own, args.seed, nullptr, rr, dr, cycle);
    untraced = headline(args.workload, rr, dr, cycle.result());
  }

  Ledger ledger;
  ReplayResult rr;
  DecideResult dr;
  CyclePhase cycle(exp, args.seed);
  drive(exp, *setup.decide_policy, all, args.seed, &ledger, rr, dr, cycle);
  const CycleResult& cr = cycle.result();
  out.env("serving_backend", dr.backend);
  report_steal();
  check_outputs(out, rr, default_pnr, dr, cr);

  const double traced = headline(args.workload, rr, dr, cr);
  // Positive = tracing made the headline worse (throughput down or latency up).
  const double overhead_pct = args.workload == "call_cycle"
                                  ? 100.0 * (traced - untraced) / untraced
                                  : 100.0 * (untraced - traced) / untraced;

  std::vector<double> self_ns = ledger.rpc_self_ns();
  std::sort(self_ns.begin(), self_ns.end());
  const ThreadLog totals = ledger.totals();
  const LogHistogram& choose = totals.choose_ns;
  const LogHistogram& observe = totals.observe_ns;

  const double replies = static_cast<double>(std::max<std::int64_t>(dr.replies, 1));
  out.metric("rpc.server_cpu_ns_per_req",
             static_cast<double>(dr.process_cpu_ns - dr.client_cpu_ns) / replies, "ns");
  out.metric("rpc.self_us.p50", quantile_sorted(self_ns, 0.50) / 1e3, "us");
  out.metric("rpc.self_us.p99", quantile_sorted(self_ns, 0.99) / 1e3, "us");
  out.metric("rpc.codec_ns_per_req", decide_codec_ns(exp, args.seed), "ns");
  out.metric("rpc.batch_calls_mean",
             static_cast<double>(totals.batch_calls) /
                 static_cast<double>(std::max<std::int64_t>(totals.batches, 1)),
             "calls");
  out.metric("rpc.refresh_stall_us.p99", median(cr.refresh_stall_us_p99), "us");
  out.metric("rpc.call_during_refresh_us.p90", cr.refresh_call_ns.quantile(0.90) / 1e3, "us");
  // The whole run's tails: every refresh and host stall counts.
  out.metric("call_p99_us", cr.call_ns.total().quantile(0.99) / 1e3, "us");
  out.metric("report_p99_us", cr.report_ns.total().quantile(0.99) / 1e3, "us");
  out.metric("rpc.busy_replies", static_cast<double>(dr.busy_replies + cr.busy_replies), "count");
  out.metric("rpc.lost_reports", static_cast<double>(cr.reports.sent - cr.reports_received),
             "count");
  out.metric("rpc.backpressure_pauses",
             static_cast<double>(dr.backpressure_pauses + cr.backpressure_pauses), "count");
  out.metric("core.choose_ns.p50", choose.quantile(0.50), "ns");
  out.metric("core.choose_ns.p99", choose.quantile(0.99), "ns");
  out.metric("core.observe_ns.p50", observe.quantile(0.50), "ns");
  out.metric("core.observe_ns.p99", observe.quantile(0.99), "ns");
  out.metric("core.prepare_refresh_ms", median(totals.prepare_ns) / 1e6, "ms");
  out.metric("core.commit_refresh_us", median(totals.commit_ns) / 1e3, "us");
  out.metric("core.cold_pair_builds", static_cast<double>(rr.predict_considered), "count");
  out.metric("core.tomography_sweeps", rr.tomography_sweeps, "count");
  out.metric("core.model_bytes", static_cast<double>(rr.model_bytes), "bytes");
  out.metric("core.cold_start_direct_frac", rr.cold_start_direct_frac, "frac");
  out.metric("sim.self_ns_per_call", median(rr.sim_self_ns_per_call), "ns");
  out.metric("netsim.sample_ns", time_sample_call(exp, totals.samples), "ns");
  out.metric("obs.telemetry_ns_per_call", telemetry_ns_per_call(out, exp, args.seed, rr.fingerprints[0]),
             "ns");
  out.metric("setup.experiment_s", median(setup.experiment_s), "s");
  out.metric("setup.warm_caches_s", median(setup.warm_caches_s), "s");
  out.metric("setup.policy_warmup_s", median(setup.policy_warmup_s), "s");
  out.metric("loadgen.late_p99_us", cr.late_ns.quantile(0.99) / 1e3, "us");
  out.metric("loadgen.cpu_ns_per_req", static_cast<double>(dr.client_cpu_ns) / replies, "ns");
  out.metric("trace_overhead_pct", overhead_pct, "pct");
  out.info("rpc_self_samples " + std::to_string(self_ns.size()));
  report_tail(out, "core_choose_ns", choose, 1.0);
  report_tail(out, "core_observe_ns", observe, 1.0);

  if (!args.spans.empty()) {
    std::ofstream file(args.spans);
    const std::size_t n = ledger.write_tsv(file);
    out.check("trace.spans_written", static_cast<bool>(file), std::to_string(n) + "_spans");
  }
  report_counts(rr, dr, cr);
  return out.all_ok() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: ctl_bench --workload decide_hot|call_cycle|replay --seed N --seconds S\n"
               "                 --trace 0|1 [--spans FILE]\n"
               "       ctl_bench --self-test\n";
  return 2;
}

}  // namespace

int self_test();

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") return self_test();
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
      } else if (arg == "--trace") {
        args.trace = value == "1";
      } else if (arg == "--spans") {
        args.spans = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if ((args.workload != "decide_hot" && args.workload != "call_cycle" &&
       args.workload != "replay") ||
      !(args.seconds > 0.0)) {
    return usage();
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "ctl_bench: " << e.what() << '\n';
    return 1;
  }
}
