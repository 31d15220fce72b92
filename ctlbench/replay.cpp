#include <algorithm>
#include <bit>
#include <thread>

#include "phases.h"
#include "util/rng.h"

namespace ctlbench {

using via::Experiment;
using via::kSecondsPerDay;

via::ViaConfig policy_config(std::uint64_t seed) {
  via::ViaConfig config;
  config.seed = via::hash_mix(seed, 0x9011c7);
  return config;
}

via::ViaConfig serving_config(std::uint64_t seed) {
  via::ViaConfig config = policy_config(seed);
  config.serving_stripes = 16;
  config.prewarm_pairs = true;
  config.predictor.tomography.solve_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  return config;
}

int reactor_workers() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()) / 2, 2, 8);
}

std::unique_ptr<via::ViaPolicy> warm_serving_policy(Experiment& exp, std::uint64_t seed) {
  auto policy = exp.make_via(via::Metric::Rtt, serving_config(seed));
  const auto arrivals = exp.arrivals();
  const auto warm_end = std::partition_point(
      arrivals.begin(), arrivals.end(),
      [](const via::CallArrival& a) { return a.time < kWarmDays * kSecondsPerDay; });
  via::SimulationEngine engine(exp.ground_truth(),
                               arrivals.first(static_cast<std::size_t>(warm_end - arrivals.begin())));
  (void)engine.run(*policy);
  policy->refresh(kWarmDays * kSecondsPerDay);
  return policy;
}

std::uint64_t fingerprint(const via::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(r.calls));
  mix(static_cast<std::uint64_t>(r.used_direct));
  mix(static_cast<std::uint64_t>(r.used_bounce));
  mix(static_cast<std::uint64_t>(r.used_transit));
  for (const auto& values : r.values) {
    for (const double v : values) mix(std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

namespace {

/// Samples (time, policy calls so far) of a running pass every
/// kProgressTickNs from a thread of its own; the pass's thread is not
/// touched.  The policy's call counter is a set of relaxed atomics, so
/// reading it beside the pass is safe.
class ProgressSampler {
 public:
  explicit ProgressSampler(const via::ViaPolicy& policy)
      : thread_([this, &policy](std::stop_token stop) {
          while (!stop.stop_requested()) {
            samples_.emplace_back(mono_ns(), policy.stats().calls);
            std::this_thread::sleep_for(std::chrono::nanoseconds(kProgressTickNs));
          }
        }) {}
  ProgressSampler(const ProgressSampler&) = delete;
  ProgressSampler& operator=(const ProgressSampler&) = delete;

  /// Stops sampling; the samples, with the pass's end (t1, calls) last.
  std::vector<std::pair<std::int64_t, std::int64_t>> finish(std::int64_t t1, std::int64_t calls) {
    thread_.request_stop();
    thread_.join();
    samples_.emplace_back(t1, calls);
    return std::move(samples_);
  }

 private:
  std::vector<std::pair<std::int64_t, std::int64_t>> samples_;
  std::jthread thread_;  // last: starts after samples_ exists
};

}  // namespace

double fastest_stretches_rate(const ReplayResult& r) {
  const double calls_per_pass =
      static_cast<double>(r.calls) / static_cast<double>(r.stretch_ns.size());
  return calls_per_pass / (fastest_stretches_ns(r.stretch_ns) / 1e9);
}

void run_replay(Experiment& exp, double seconds, std::uint64_t seed, Ledger* ledger,
                ReplayResult& out) {
  const std::int64_t deadline = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (bool first = true; first || mono_ns() < deadline; first = false) {
    const std::size_t pass = out.calls_per_s.size();
    auto policy = exp.make_via(via::Metric::Rtt, policy_config(seed));
    std::unique_ptr<TracedPolicy> traced;
    if (ledger != nullptr) {
      traced = std::make_unique<TracedPolicy>(*policy, *ledger);
      // The first traced pass keeps its observation stream for re-timing
      // GroundTruth::sample_call.
      ledger->set_sample_cap(pass == 0 ? 200'000 : 0);
    }
    via::RoutingPolicy& target = traced ? static_cast<via::RoutingPolicy&>(*traced) : *policy;

    const std::int64_t core_before = ledger != nullptr ? ledger->core_ns() : 0;
    if (ledger != nullptr) (void)ledger->begin_root();
    ProgressSampler progress(*policy);
    const std::int64_t t0 = mono_ns();
    const via::RunResult r = exp.run(target);
    const std::int64_t t1 = mono_ns();
    out.stretch_ns.push_back(
        stretch_times(t0, progress.finish(t1, policy->stats().calls), kStretchCalls));
    if (ledger != nullptr) {
      ledger->end_root(SpanName::kSimPass, t0, t1);
      const std::int64_t core = ledger->core_ns() - core_before;
      out.sim_self_ns_per_call.push_back(static_cast<double>(t1 - t0 - core) /
                                         static_cast<double>(r.calls));
      ledger->set_sample_cap(0);
    }

    out.calls += r.calls;
    out.calls_per_s.push_back(static_cast<double>(r.calls) / (static_cast<double>(t1 - t0) / 1e9));
    out.fingerprints.push_back(fingerprint(r));
    if (pass == 0) {
      out.pnr_pct = 100.0 * r.pnr.pnr_any();
      const via::ViaPolicy::Stats stats = policy->stats();
      out.cold_start_direct_frac =
          static_cast<double>(stats.cold_start_direct) / static_cast<double>(stats.calls);
      out.predict_considered = r.telemetry.counter_value("policy.predict.considered");
      out.tomography_sweeps = r.telemetry.gauge_value("policy.refresh.tomography_sweeps");
      out.model_bytes = policy->memory_stats().total_bytes();
    }
  }
}

}  // namespace ctlbench
