// Scale bench (DESIGN.md §6i): the 100M-call / 1M-AS-pair streaming run.
//
// Unlike the figure benches, nothing here materializes the trace or a
// ground-truth model: arrivals are pulled one at a time from a
// SyntheticArrivalStream, per-call performance is a pure hash of
// (pair, option, day, call), and the policy runs with every §6i memory
// bound engaged (window path cap, snapshot memo budget, resident-pair cap
// + TTL).  The bench demonstrates — and BENCH_scale.json records — that
// throughput and peak RSS stay flat as call count grows without bound.
//
//   bench_scale [--calls N] [--pairs N] [--days N] [--seed S]
//               [--rss-cap-mb M] [--json PATH]
//
// Exits nonzero when peak RSS (VmHWM) breaches --rss-cap-mb, so CI can
// gate on "the scale run fits".  Defaults reproduce the checked-in
// 100M-call / 1M-pair run under a 4 GiB cap; CI runs a 1M/100k smoke.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "common/relay_option.h"
#include "core/via_policy.h"
#include "trace/stream.h"
#include "util/rng.h"

using namespace via;

namespace {

struct ScaleArgs {
  std::int64_t calls = 100'000'000;
  std::int64_t pairs = 1'000'000;
  int days = 30;
  std::uint64_t seed = 7;
  std::int64_t rss_cap_mb = 4096;
  std::string json_path = "BENCH_scale.json";
};

ScaleArgs parse_args(int argc, char** argv) {
  ScaleArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_scale: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--calls") {
      args.calls = std::atoll(next());
    } else if (arg == "--pairs") {
      args.pairs = std::atoll(next());
    } else if (arg == "--days") {
      args.days = std::atoi(next());
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--rss-cap-mb") {
      args.rss_cap_mb = std::atoll(next());
    } else if (arg == "--json") {
      args.json_path = next();
    } else {
      std::cerr << "bench_scale: unknown argument " << arg << "\n"
                << "usage: bench_scale [--calls N] [--pairs N] [--days N] [--seed S]\n"
                << "                   [--rss-cap-mb M] [--json PATH]\n";
      std::exit(2);
    }
  }
  return args;
}

/// A /proc/self/status row in kB (VmHWM = peak RSS, VmRSS = current), or -1.
std::int64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::atoll(line.c_str() + std::strlen(key) + 1);
  }
  return -1;
}

// The synthetic "network": a modest relay fleet whose options are interned
// once up front; every pair's candidate set is a stable hash of its pair
// key into that table, so candidate memory is O(options), not O(pairs).
constexpr int kRelays = 24;
constexpr std::size_t kCandidatesPerPair = 6;

/// Fills `out` with the pair's candidate set: direct first, then
/// kCandidatesPerPair-1 distinct non-direct options on a hashed stride.
void candidates_for(std::uint64_t pair_key, std::uint32_t non_direct,
                    std::array<OptionId, kCandidatesPerPair>& out) {
  out[0] = RelayOptionTable::direct_id();
  const auto start =
      static_cast<std::uint32_t>(hash_mix(pair_key, 0xca9d) % non_direct);
  for (std::size_t i = 1; i < kCandidatesPerPair; ++i) {
    // Stride 37 is coprime with the 300 non-direct options, so the picks
    // stay distinct.
    out[i] = static_cast<OptionId>(1 + (start + (i - 1) * 37) % non_direct);
  }
}

/// Deterministic per-call performance: a stable (pair, option) quality
/// level, a day-scale drift, and per-call noise — all pure hashes, so the
/// run is reproducible and nothing is memoized anywhere.
PathPerformance sample_perf(std::uint64_t seed, std::uint64_t pair_key, OptionId option,
                            TimeSec t, CallId id) {
  const std::uint64_t path =
      hash_mix(seed, hash_mix(pair_key, 0x9e00 + static_cast<std::uint64_t>(option)));
  const double base = hashed_uniform(path);
  const double daily =
      hashed_uniform(hash_mix(path, static_cast<std::uint64_t>(day_of(t))));
  const double noise = hashed_uniform(
      hash_mix(0xca11, static_cast<std::uint64_t>(id) ^ static_cast<std::uint64_t>(option)));
  PathPerformance p;
  p.rtt_ms = 40.0 + 260.0 * base + 60.0 * daily + 40.0 * noise;
  p.loss_pct = 2.5 * base * daily + 0.5 * noise;
  p.jitter_ms = 3.0 + 12.0 * base + 5.0 * noise;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const ScaleArgs args = parse_args(argc, argv);

  StreamTraceConfig trace;
  trace.total_calls = args.calls;
  trace.days = args.days;
  trace.active_pairs = args.pairs;
  trace.seed = args.seed;
  SyntheticArrivalStream stream(trace);

  std::cout << "=====================================================================\n"
            << "bench_scale: streaming replay at fixed RSS (DESIGN.md §6i)\n"
            << "workload: " << args.calls << " calls, " << args.pairs << " active pairs, "
            << args.days << " days, seed " << args.seed << "\n"
            << "rss cap: " << args.rss_cap_mb << " MB (VmHWM)\n"
            << "=====================================================================\n";

  // Phase 1: generator-only pass — how fast the stream itself produces
  // arrivals (the figure benches' trace-materialization cost, amortized).
  std::int64_t generated = 0;
  const double gen_rps = via::bench::stream_arrivals_per_sec(stream, &generated);
  std::cout << "generator: " << generated << " arrivals ("
            << format_double(gen_rps / 1e6, 2) << "M arrivals/s)\n";

  // The relay fleet: all bounce and transit combinations of kRelays sites.
  RelayOptionTable options;
  for (RelayId r = 0; r < kRelays; ++r) options.intern_bounce(r);
  for (RelayId a = 0; a < kRelays; ++a) {
    for (RelayId b = static_cast<RelayId>(a + 1); b < kRelays; ++b) {
      options.intern_transit(a, b);
    }
  }
  const auto non_direct = static_cast<std::uint32_t>(options.size() - 1);

  const std::uint64_t seed = args.seed;
  BackboneFn backbone = [seed](RelayId a, RelayId b) {
    const std::uint64_t h = hash_mix(
        seed, hash_mix(0xbb, (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a)) << 16) |
                                 static_cast<std::uint16_t>(b)));
    PathPerformance p;
    p.rtt_ms = 5.0 + 20.0 * hashed_uniform(h);
    p.loss_pct = 0.05;
    p.jitter_ms = 1.0 + 2.0 * hashed_uniform(hash_mix(h, 1));
    return p;
  };

  // Every §6i bound engaged, scaled to the workload so both smoke (1M/100k)
  // and full (100M/1M) runs actually evict.
  ViaConfig config;
  config.seed = args.seed;
  config.mem.max_window_paths =
      std::max<std::size_t>(4096, static_cast<std::size_t>(args.pairs) * 2);
  config.mem.snapshot_memo_budget =
      std::max<std::size_t>(2048, static_cast<std::size_t>(args.pairs) / 2);
  config.mem.max_resident_pairs =
      std::max<std::size_t>(2048, static_cast<std::size_t>(args.pairs) / 2);
  config.mem.pair_ttl_periods = 2;
  ViaPolicy policy(options, backbone, config);

  // Phase 2: the streaming policy replay.  One arrival at a time — the
  // only per-call allocations are inside the policy's bounded state.
  stream.reset();
  std::int64_t replayed = 0;
  double policy_seconds = 0.0;
  {
    const via::bench::Stopwatch sw;
    TimeSec next_refresh = config.refresh_period;
    std::array<OptionId, kCandidatesPerPair> cand{};
    CallArrival a;
    while (stream.next(a)) {
      while (a.time >= next_refresh) {
        policy.refresh(next_refresh);
        next_refresh += config.refresh_period;
      }
      CallContext ctx;
      ctx.id = a.id;
      ctx.time = a.time;
      ctx.src_as = a.src_as;
      ctx.dst_as = a.dst_as;
      ctx.key_src = a.src_as;
      ctx.key_dst = a.dst_as;
      ctx.src_country = a.src_country;
      ctx.dst_country = a.dst_country;
      const std::uint64_t pair_key = ctx.pair_key();
      candidates_for(pair_key, non_direct, cand);
      ctx.options = cand;

      const OptionId choice = policy.choose(ctx);

      Observation obs;
      obs.id = a.id;
      obs.time = a.time;
      obs.src_as = a.src_as;
      obs.dst_as = a.dst_as;
      obs.option = choice;
      obs.perf = sample_perf(args.seed, pair_key, choice, a.time, a.id);
      policy.observe(obs);

      if ((++replayed % 10'000'000) == 0) {
        std::cout << "  " << replayed << " calls, VmRSS " << status_kb("VmRSS:") / 1024
                  << " MB, " << format_double(sw.seconds(), 0) << "s\n";
      }
    }
    policy_seconds = sw.seconds();
  }
  const double policy_rps =
      policy_seconds > 0.0 ? static_cast<double>(replayed) / policy_seconds : 0.0;

  const ViaPolicy::Stats stats = policy.stats();
  const ViaPolicy::MemoryStats mem = policy.memory_stats();
  const std::int64_t peak_rss_kb = status_kb("VmHWM:");
  const double peak_rss_mb = static_cast<double>(peak_rss_kb) / 1024.0;
  const double model_bytes_per_pair =
      mem.resident_pairs > 0
          ? static_cast<double>(mem.total_bytes()) / static_cast<double>(mem.resident_pairs)
          : 0.0;
  const double rss_bytes_per_pair =
      args.pairs > 0 ? static_cast<double>(peak_rss_kb) * 1024.0 /
                           static_cast<double>(args.pairs)
                     : 0.0;

  std::cout << "\npolicy: " << replayed << " calls in " << format_double(policy_seconds, 1)
            << "s (" << format_double(policy_rps / 1e3, 1) << "k calls/s)\n"
            << "decisions: " << stats.bandit_served << " bandit, " << stats.epsilon_explored
            << " explored, " << stats.cold_start_direct << " cold-start direct\n"
            << "memory: window " << mem.window_bytes / (1 << 20) << " MB (" << mem.window_paths
            << " paths, " << mem.window_evictions << " evictions), snapshot "
            << mem.snapshot_bytes / (1 << 20) << " MB (" << mem.memo_overflow_builds
            << " overflow builds), store " << mem.store_bytes / (1 << 20) << " MB ("
            << mem.resident_pairs << " pairs, " << mem.store_evictions << " evictions)\n"
            << "peak RSS: " << format_double(peak_rss_mb, 0) << " MB ("
            << format_double(rss_bytes_per_pair, 0) << " B/pair at " << args.pairs
            << " pairs)\n";

  via::bench::BenchJson json;
  json.set_int("cores", static_cast<long long>(std::thread::hardware_concurrency()));
  json.set_int("scale_calls", replayed);
  json.set_int("scale_pairs", args.pairs);
  json.set_int("scale_days", args.days);
  json.set("scale_gen_rps", gen_rps);
  json.set("scale_policy_rps", policy_rps);
  json.set("scale_peak_rss_mb", peak_rss_mb);
  json.set("scale_rss_bytes_per_pair", rss_bytes_per_pair);
  json.set("scale_model_bytes_per_pair", model_bytes_per_pair);
  json.set_int("scale_window_bytes", static_cast<long long>(mem.window_bytes));
  json.set_int("scale_snapshot_bytes", static_cast<long long>(mem.snapshot_bytes));
  json.set_int("scale_store_bytes", static_cast<long long>(mem.store_bytes));
  json.set_int("scale_window_evictions", mem.window_evictions);
  json.set_int("scale_store_evictions", mem.store_evictions);
  json.set_int("scale_memo_overflow_builds", mem.memo_overflow_builds);
  // Share of decisions served warm from the pair stripe (no snapshot
  // lookup); the rest armed a pair or were over the memo budget.
  json.set("scale_warm_frac",
           stats.calls > 0 ? 1.0 - static_cast<double>(stats.snapshot_lookups) /
                                     static_cast<double>(stats.calls)
                           : 0.0);
  json.set_int("scale_rss_cap_mb", args.rss_cap_mb);
  const bool within_cap = peak_rss_kb >= 0 && peak_rss_mb <= static_cast<double>(args.rss_cap_mb);
  json.set_bool("scale_within_rss_cap", within_cap);
  json.write(args.json_path);
  std::cout << "\nwrote " << args.json_path << "\n";

  if (!within_cap) {
    std::cerr << "bench_scale: FAIL: peak RSS " << format_double(peak_rss_mb, 0)
              << " MB exceeds cap " << args.rss_cap_mb << " MB\n";
    return 1;
  }
  std::cout << "peak RSS within " << args.rss_cap_mb << " MB cap\n";
  return 0;
}
