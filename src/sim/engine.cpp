#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

#include "obs/telemetry.h"
#include "obs/timer.h"
#include "util/rng.h"

namespace via {

SimulationEngine::SimulationEngine(GroundTruth& ground_truth,
                                   std::span<const CallArrival> arrivals, RunConfig config)
    : gt_(&ground_truth),
      owned_stream_(std::make_unique<SpanStream>(arrivals)),
      stream_(owned_stream_.get()),
      config_(config) {
  assert(std::is_sorted(arrivals.begin(), arrivals.end(),
                        [](const CallArrival& a, const CallArrival& b) {
                          return a.time < b.time;
                        }));
  count_pair_calls();
}

SimulationEngine::SimulationEngine(GroundTruth& ground_truth, ArrivalStream& stream,
                                   RunConfig config)
    : gt_(&ground_truth), stream_(&stream), config_(config) {
  count_pair_calls();
}

void SimulationEngine::count_pair_calls() {
  if (config_.min_pair_calls_for_eval <= 0) return;
  stream_->reset();
  CallArrival a;
  while (stream_->next(a)) ++pair_call_counts_[a.pair_key()];
  stream_->reset();
}

std::span<const OptionId> SimulationEngine::options_for(AsId src, AsId dst) {
  const auto full = gt_->candidate_options(src, dst);
  if (!config_.exclude_transit) return full;

  const std::uint64_t key = as_pair_key(src, dst);
  if (const std::vector<OptionId>* kept = filtered_options_.find(key); kept != nullptr) {
    return kept->empty() ? full : std::span<const OptionId>(*kept);
  }
  std::vector<OptionId> kept;
  kept.reserve(full.size());
  for (const OptionId opt : full) {
    if (gt_->option_table().get(opt).kind != RelayKind::Transit) kept.push_back(opt);
  }
  if (kept.size() == full.size()) {
    // No transit option to exclude: remember that with an empty sentinel
    // and serve the ground-truth span directly instead of a copy.
    filtered_options_.insert(key, {});
    return full;
  }
  return filtered_options_.insert(key, std::move(kept));
}

void SimulationEngine::map_keys(const CallArrival& a, AsId& key_src, AsId& key_dst) const {
  switch (config_.granularity) {
    case Granularity::Country:
      key_src = static_cast<AsId>(a.src_country);
      key_dst = static_cast<AsId>(a.dst_country);
      break;
    case Granularity::AsPair:
      key_src = a.src_as;
      key_dst = a.dst_as;
      break;
    case Granularity::Prefix:
      key_src = static_cast<AsId>(a.src_prefix);
      key_dst = static_cast<AsId>(a.dst_prefix);
      break;
  }
}

RunResult SimulationEngine::run(RoutingPolicy& policy) {
  RunResult result;
  result.policy_name = std::string(policy.name());
  result.pnr = PnrAccumulator(config_.thresholds);
  result.pnr_international = PnrAccumulator(config_.thresholds);
  result.pnr_domestic = PnrAccumulator(config_.thresholds);

  // Per-run telemetry: owned here, attached to the policy for the run.
  std::unique_ptr<obs::Telemetry> telemetry;
  obs::Counter* tel_calls = nullptr;
  obs::Counter* tel_background = nullptr;
  obs::LatencyHistogram* tel_choose_ns = nullptr;
  if (config_.enable_telemetry) {
    telemetry = std::make_unique<obs::Telemetry>(config_.decision_trace_capacity, config_.trace,
                                                 config_.flight_capacity);
    policy.attach_telemetry(telemetry.get());
    tel_calls = &telemetry->registry.counter("engine.calls");
    tel_background = &telemetry->registry.counter("engine.decision.background_relay");
    tel_choose_ns = &telemetry->registry.histogram("engine.choose_ns", obs::kLatencyBoundsNs);
  }
  const auto run_start = std::chrono::steady_clock::now();

  // Windowed time series (§6g): closed on sim-second boundaries, each
  // window annotated with what the registry alone can't say — evaluated
  // calls, mean PNR, and mean RTT over just that window.
  std::unique_ptr<obs::TimeSeriesRecorder> timeseries;
  TimeSec next_window = 0;
  PnrAccumulator window_pnr(config_.thresholds);
  double window_rtt_sum = 0.0;
  std::int64_t window_rtt_count = 0;
  if (telemetry != nullptr && config_.timeseries_window > 0) {
    timeseries = std::make_unique<obs::TimeSeriesRecorder>(
        &telemetry->registry, static_cast<double>(config_.timeseries_window));
    next_window = config_.timeseries_window;
  }
  const auto close_window = [&](TimeSec start, TimeSec end) {
    timeseries->annotate("evaluated_calls", static_cast<double>(window_pnr.total()));
    timeseries->annotate("pnr_any", window_pnr.pnr_any());
    timeseries->annotate("mean_rtt_ms",
                         window_rtt_count > 0
                             ? window_rtt_sum / static_cast<double>(window_rtt_count)
                             : 0.0);
    timeseries->close_window(static_cast<double>(start), static_cast<double>(end));
    window_pnr = PnrAccumulator(config_.thresholds);
    window_rtt_sum = 0.0;
    window_rtt_count = 0;
  };

  // Fault injection (§6f): every ground-truth draw routes through this
  // lambda.  A null or empty plan reduces to one pointer test, so the
  // unfaulted replay stays bit-identical to the plain sample path.
  const FaultPlan* faults =
      (config_.faults != nullptr && !config_.faults->empty()) ? config_.faults : nullptr;
  const auto sample = [&](CallId id, AsId src, AsId dst, OptionId opt, TimeSec t) {
    PathPerformance perf = gt_->sample_call(id, src, dst, opt, t);
    if (faults != nullptr && faults->apply(gt_->option_table().get(opt), t, perf)) {
      ++result.fault_impaired_samples;
    }
    return perf;
  };

  TimeSec next_refresh = config_.refresh_period;

  CallId probe_id = 1'000'000'000'000LL;  // distinct id space for mock calls

  // The engine drives the policy strictly serially (one call at a time, in
  // arrival order) even though ViaPolicy itself is concurrent-safe: with
  // the default single serving stripe this replay path is bit-identical to
  // the pre-split controller (DESIGN.md §6d), which is what makes figure
  // runs and A/B comparisons reproducible.  Refreshes use the monolithic
  // refresh() rather than the §6e prepare/commit split — with no serving
  // traffic in between the two are operation-identical, and the engine has
  // no concurrency to hide the prepare behind.
  stream_->reset();
  TimeSec last_time = 0;
  bool any_arrival = false;
  CallArrival arrival;
  while (stream_->next(arrival)) {
    last_time = arrival.time;
    any_arrival = true;
    // Close time-series windows this call has crossed.
    while (timeseries != nullptr && arrival.time >= next_window) {
      close_window(next_window - config_.timeseries_window, next_window);
      next_window += config_.timeseries_window;
    }

    // Fire refresh boundaries that this call has crossed.
    while (arrival.time >= next_refresh) {
      policy.refresh(next_refresh);

      // Active measurements: execute the controller's requested probes as
      // mock calls right after the refresh (§7).
      if (config_.probes_per_refresh > 0) {
        for (const ProbeRequest& probe :
             policy.plan_probes(static_cast<std::size_t>(config_.probes_per_refresh))) {
          if (probe.src_as == kInvalidAs || probe.option == kInvalidOption) continue;
          Observation obs;
          obs.id = ++probe_id;
          obs.time = next_refresh;
          obs.src_as = probe.src_as;
          obs.dst_as = probe.dst_as;
          obs.option = probe.option;
          obs.ingress = gt_->transit_ingress(probe.src_as, probe.option);
          obs.perf = sample(obs.id, probe.src_as, probe.dst_as, probe.option, next_refresh);
          policy.observe(obs);
          ++result.probes_executed;
        }
      }

      next_refresh += config_.refresh_period;
    }

    CallContext ctx;
    ctx.id = arrival.id;
    ctx.time = arrival.time;
    ctx.src_as = arrival.src_as;
    ctx.dst_as = arrival.dst_as;
    map_keys(arrival, ctx.key_src, ctx.key_dst);
    ctx.src_country = arrival.src_country;
    ctx.dst_country = arrival.dst_country;
    ctx.src_prefix = arrival.src_prefix;
    ctx.dst_prefix = arrival.dst_prefix;
    ctx.options = options_for(arrival.src_as, arrival.dst_as);

    // Connectivity-relayed background traffic: forced onto a (hashed-
    // deterministic) relay option, observed by the policy, not evaluated.
    if (config_.background_relay_fraction > 0.0 && !ctx.options.empty() &&
        hashed_uniform(hash_mix(0xB6, static_cast<std::uint64_t>(arrival.id))) <
            config_.background_relay_fraction) {
      const auto pick_index = static_cast<std::size_t>(
          hashed_uniform(hash_mix(0xB7, static_cast<std::uint64_t>(arrival.id))) *
          static_cast<double>(ctx.options.size()));
      const OptionId forced = ctx.options[std::min(pick_index, ctx.options.size() - 1)];
      if (telemetry != nullptr) {
        tel_background->inc();
        if (telemetry->decisions.enabled()) {
          obs::DecisionEvent event;
          event.call_id = arrival.id;
          event.time = arrival.time;
          event.src_as = ctx.key_src;
          event.dst_as = ctx.key_dst;
          event.option = forced;
          event.reason = obs::DecisionReason::BackgroundRelay;
          telemetry->decisions.record(event);
        }
      }
      Observation obs;
      obs.id = arrival.id;
      obs.time = arrival.time;
      obs.src_as = ctx.key_src;
      obs.dst_as = ctx.key_dst;
      obs.option = forced;
      obs.ingress = gt_->transit_ingress(arrival.src_as, forced);
      obs.perf = sample(arrival.id, arrival.src_as, arrival.dst_as, forced, arrival.time);
      policy.observe(obs);
      continue;
    }

    OptionId option;
    PathPerformance perf;
    if (config_.enable_racing) {
      // Hybrid racing: sample every raced option, keep the best, and feed
      // all measurements back (racing is free information, paid in setup
      // traffic).
      const auto raced = [&] {
        const obs::ScopedTimer<std::nano> timer(tel_choose_ns);
        return policy.choose_candidates(ctx);
      }();
      option = raced.front();
      perf = sample(arrival.id, arrival.src_as, arrival.dst_as, option, arrival.time);
      for (const OptionId candidate : raced) {
        const PathPerformance candidate_perf =
            sample(arrival.id, arrival.src_as, arrival.dst_as, candidate, arrival.time);
        Observation obs;
        obs.id = arrival.id;
        obs.time = arrival.time;
        obs.src_as = ctx.key_src;
        obs.dst_as = ctx.key_dst;
        obs.option = candidate;
        obs.ingress = gt_->transit_ingress(arrival.src_as, candidate);
        obs.perf = candidate_perf;
        policy.observe(obs);
        if (candidate != option &&
            candidate_perf.get(config_.race_metric) < perf.get(config_.race_metric)) {
          option = candidate;
          perf = candidate_perf;
        }
      }
      result.raced_extra_samples += static_cast<std::int64_t>(raced.size()) - 1;
    } else {
      {
        const obs::ScopedTimer<std::nano> timer(tel_choose_ns);
        option = policy.choose(ctx);
      }
      perf = sample(arrival.id, arrival.src_as, arrival.dst_as, option, arrival.time);
      Observation obs;
      obs.id = arrival.id;
      obs.time = arrival.time;
      obs.src_as = ctx.key_src;
      obs.dst_as = ctx.key_dst;
      obs.option = option;
      obs.ingress = gt_->transit_ingress(arrival.src_as, option);
      obs.perf = perf;
      policy.observe(obs);
    }

    ++result.calls;
    if (tel_calls != nullptr) tel_calls->inc();
    switch (gt_->option_table().get(option).kind) {
      case RelayKind::Direct:
        ++result.used_direct;
        break;
      case RelayKind::Bounce:
        ++result.used_bounce;
        break;
      case RelayKind::Transit:
        ++result.used_transit;
        break;
    }

    if (config_.min_pair_calls_for_eval > 0 &&
        pair_call_counts_[arrival.pair_key()] < config_.min_pair_calls_for_eval) {
      continue;
    }

    ++result.evaluated_calls;
    result.pnr.add(perf);
    if (timeseries != nullptr) {
      window_pnr.add(perf);
      window_rtt_sum += perf.rtt_ms;
      ++window_rtt_count;
    }
    (arrival.international() ? result.pnr_international : result.pnr_domestic).add(perf);
    if (config_.collect_by_country && arrival.international()) {
      result.by_country.try_emplace(arrival.src_country, config_.thresholds)
          .first->second.add(perf);
      result.by_country.try_emplace(arrival.dst_country, config_.thresholds)
          .first->second.add(perf);
    }
    if (config_.collect_values) {
      for (const Metric m : kAllMetrics) {
        result.values[metric_index(m)].push_back(perf.get(m));
      }
    }
  }

  if (telemetry != nullptr) {
    obs::MetricsRegistry& r = telemetry->registry;
    r.counter("engine.evaluated_calls").inc(result.evaluated_calls);
    r.counter("engine.probes_executed").inc(result.probes_executed);
    r.counter("engine.raced_extra_samples").inc(result.raced_extra_samples);
    r.counter("engine.fault.impaired_samples").inc(result.fault_impaired_samples);
    r.gauge("engine.run_seconds")
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
                 .count());
    // Final (partial) window, so short traces still produce a series.
    if (timeseries != nullptr) {
      const TimeSec end = any_arrival ? last_time + 1 : next_window;
      close_window(next_window - config_.timeseries_window, end);
      result.timeseries = timeseries->take();
    }
    result.telemetry = r.snapshot();
    result.decisions = telemetry->decisions.snapshot();
    result.spans = telemetry->tracer.buffer().snapshot();
    result.flight = telemetry->flight.snapshot();
    // Session-wide aggregate: how the bench binaries report telemetry.
    r.merge_into(obs::MetricsRegistry::process());
    policy.attach_telemetry(nullptr);
  }
  return result;
}

}  // namespace via
