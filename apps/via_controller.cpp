// via_controller — standalone Via controller daemon.
//
// Serves the prediction-guided-exploration relay selector over the TCP
// protocol in src/rpc/.  Clients request per-call decisions, push
// measurements, and drive refresh with the Refresh message, once per
// --refresh-hours period of *reported call time* (the controller runs on
// the clocks in the requests, so replayed traces work too).  The daemon
// runs no refresh timer of its own.
//
//   via_controller [--port N] [--metric rtt|loss|jitter] [--epsilon E]
//                  [--budget B] [--refresh-hours T] [--backbone FILE]
//                  [--stripes N] [--solve-threads N] [--no-prewarm]
//                  [--max-resident-pairs N] [--pair-ttl PERIODS]
//                  [--max-inflight N]
//                  [--write-buffer-cap BYTES] [--reactor-threads N]
//                  [--replica-id N] [--peers P1,P2,...] [--ring-seed S]
//                  [--ring-epoch E] [--gossip-period MS]
//                  [--http-port N] [--trace-sample N]
//                  [--flight-recorder FILE] [--timeseries-window MS]
//                  [--metrics-dump] [--metrics-format table|json|prom]
//
// Federation (DESIGN.md §6k): --replica-id stamps this controller's
// identity into every reply (and /varz) so multi-replica fleets are
// attributable; --peers names the sibling replicas' loopback ports, and a
// gossip thread pushes this replica's tomography segment estimates to each
// peer every --gossip-period ms (default 1000), folding whatever the peers
// sent back into the next refresh.  --ring-seed / --ring-epoch must match
// across the fleet (clients detect a stale epoch from the reply stamp).
// Without --peers the controller runs standalone, bit-identical to the
// pre-federation daemon.
//
// --write-buffer-cap BYTES: per-connection reply-queue cap (default 4 MiB).
// A connection whose unsent replies reach the cap stops being *read* until
// its queue drains under half the cap, so one slow consumer cannot balloon
// server memory (rpc.server.backpressure.* counts pauses).
//
// --reactor-threads N: epoll event-loop workers (DESIGN.md §6h), N >= 1.
// The daemon defaults to half the hardware threads, clamped to [2, 8].
//
// Observability plane (DESIGN.md §6g):
//
// --http-port N: start the admin HTTP sidecar on 127.0.0.1:N serving
// /metrics (Prometheus), /healthz, /varz, /trace (Chrome trace JSON), and
// /flightrecord (JSONL).  Omitted = no HTTP listener.
//
// --trace-sample N: record 1 in N decision traces (rpc.decide plus the
// policy's choose sub-stages) into a bounded span buffer, dumpable via
// GetTrace / the /trace endpoint.  0 (default) disables tracing entirely.
//
// --flight-recorder FILE: on shutdown, dump the flight recorder (health
// transitions, shed requests, protocol errors, refresh ticks) as JSONL to
// FILE ("-" = stdout).  The ring records regardless; this flag only adds
// the exit dump.
//
// --timeseries-window MS: close a windowed counter/histogram delta
// snapshot every MS milliseconds (queryable while running via /varz
// consumers; dumped as JSON on shutdown with --metrics-dump).
//
// --max-inflight N: overload shedding — when more than N requests are
// decoded but not yet answered, new DecisionRequest/Report/Refresh frames
// get an explicit Busy reply instead of queueing (clients retry with
// backoff).  0 (the default) disables shedding.
//
// --stripes N: serving-state lock stripes (power of two, max 64).  The
// daemon defaults to 16 so concurrent clients' decisions for unrelated AS
// pairs proceed in parallel; 1 reproduces single-stream replay behavior
// bit for bit.
//
// --solve-threads N: worker threads for the per-refresh tomography solve
// (default 0 = one per hardware thread).  Any value produces bit-identical
// estimates (DESIGN.md §6e); this only buys refresh wall time.
//
// --no-prewarm: disable eager per-pair memo pre-warming during refresh
// preparation.  The daemon pre-warms by default so the first post-refresh
// call per active pair hits the warm lookup path instead of the cold
// predict/top-k build; decisions are identical either way.
//
// --max-resident-pairs N: cap the per-pair serving states kept resident
// (DESIGN.md §6i).  Enforced at each refresh commit, oldest-armed pairs
// evicted first; an evicted pair that calls again is re-armed from the
// published snapshot.  0 (default) = unbounded.
//
// --pair-ttl PERIODS: drop serving state for pairs that have not called
// in this many refresh periods (checked at each commit).  0 (default)
// disables the TTL.  Resident memory is visible live as the policy.mem.*
// gauges on /metrics and in /varz.
//
// --metrics-dump: print the telemetry registry (decision counters, RPC
// latency histograms, bytes in/out) on shutdown; the same snapshot is
// queryable live over the GetStats RPC (`via_call_client stats`).
//
// --backbone FILE: CSV "relay_a,relay_b,rtt_ms,loss_pct,jitter_ms" giving
// the managed backbone matrix (the operator knows this).  Without it the
// backbone is assumed free, which disables transit-path stitching but
// keeps everything else working.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include <vector>

#include "core/via_policy.h"
#include "fed/federation.h"
#include "fed/segment_exchange.h"
#include "obs/export.h"
#include "rpc/admin_http.h"
#include "rpc/fed_fleet.h"
#include "rpc/server.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

via::Metric parse_metric(const std::string& s) {
  if (s == "loss") return via::Metric::Loss;
  if (s == "jitter") return via::Metric::Jitter;
  return via::Metric::Rtt;
}

via::obs::StatsFormat parse_stats_format(const std::string& s) {
  if (s == "json") return via::obs::StatsFormat::Json;
  if (s == "prom" || s == "prometheus") return via::obs::StatsFormat::Prometheus;
  return via::obs::StatsFormat::Table;
}

/// Backbone matrix loaded from CSV; symmetric, zero if absent.
class BackboneTable {
 public:
  void load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open backbone file: " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ss(line);
      std::string cell;
      via::PathPerformance perf;
      int a = 0, b = 0;
      if (!std::getline(ss, cell, ',')) continue;
      a = std::stoi(cell);
      if (!std::getline(ss, cell, ',')) continue;
      b = std::stoi(cell);
      if (std::getline(ss, cell, ',')) perf.rtt_ms = std::stod(cell);
      if (std::getline(ss, cell, ',')) perf.loss_pct = std::stod(cell);
      if (std::getline(ss, cell, ',')) perf.jitter_ms = std::stod(cell);
      table_[key(static_cast<via::RelayId>(a), static_cast<via::RelayId>(b))] = perf;
      ++entries_;
    }
  }

  [[nodiscard]] via::PathPerformance get(via::RelayId a, via::RelayId b) const {
    const auto it = table_.find(key(a, b));
    return it != table_.end() ? it->second : via::PathPerformance{};
  }

  [[nodiscard]] int entries() const noexcept { return entries_; }

 private:
  static std::uint64_t key(via::RelayId a, via::RelayId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a)) << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint16_t>(b));
  }
  std::unordered_map<std::uint64_t, via::PathPerformance> table_;
  int entries_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace via;

  std::uint16_t port = 7401;
  ViaConfig config;
  // Daemon default: serve concurrent clients off 16 lock stripes (replays
  // and tests that need bit-identical single-stream behavior pass 1), a
  // hardware-wide tomography solve, and eager pair-memo pre-warming —
  // none of which change any decision, only serving latency.
  config.serving_stripes = 16;
  config.prewarm_pairs = true;
  config.predictor.tomography.solve_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  BackboneTable backbone;
  ServerConfig server_config;
  // Daemon default: half the hardware threads as reactor workers (§6h),
  // clamped to [2, 8].
  server_config.reactor_threads =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()) / 2, 2, 8);
  bool metrics_dump = false;
  obs::StatsFormat metrics_format = obs::StatsFormat::Table;
  bool http_enabled = false;
  std::uint16_t http_port = 0;
  std::string flight_recorder_file;
  // Federation (§6k): peer replica ports + gossip cadence.
  fed::FederationConfig fed_config;
  fed_config.ring_epoch = 0;  // 0 = unfederated unless --replica-id/--peers given
  std::vector<std::uint16_t> peer_ports;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--port") {
        port = static_cast<std::uint16_t>(std::stoi(next()));
      } else if (arg == "--metric") {
        config.target = parse_metric(next());
      } else if (arg == "--epsilon") {
        config.epsilon = std::stod(next());
      } else if (arg == "--budget") {
        config.budget.fraction = std::stod(next());
      } else if (arg == "--refresh-hours") {
        config.refresh_period = static_cast<TimeSec>(std::stod(next()) * 3600.0);
      } else if (arg == "--backbone") {
        backbone.load(next());
      } else if (arg == "--stripes") {
        config.serving_stripes = static_cast<std::size_t>(std::stoul(next()));
      } else if (arg == "--solve-threads") {
        const int n = std::stoi(next());
        config.predictor.tomography.solve_threads =
            n > 0 ? n : static_cast<int>(std::thread::hardware_concurrency());
      } else if (arg == "--no-prewarm") {
        config.prewarm_pairs = false;
      } else if (arg == "--max-resident-pairs") {
        config.mem.max_resident_pairs = static_cast<std::size_t>(std::stoul(next()));
      } else if (arg == "--pair-ttl") {
        config.mem.pair_ttl_periods = std::stoull(next());
      } else if (arg == "--max-inflight") {
        server_config.max_inflight = std::stoll(next());
      } else if (arg == "--reactor-threads") {
        server_config.reactor_threads = std::stoi(next());
        if (server_config.reactor_threads < 1) {
          throw std::invalid_argument("--reactor-threads must be >= 1");
        }
      } else if (arg == "--write-buffer-cap") {
        server_config.write_buffer_cap = std::stoull(next());
      } else if (arg == "--replica-id") {
        server_config.replica_id = static_cast<std::uint32_t>(std::stoul(next()));
        if (fed_config.ring_epoch == 0) fed_config.ring_epoch = 1;
      } else if (arg == "--peers") {
        std::istringstream ss(next());
        std::string cell;
        while (std::getline(ss, cell, ',')) {
          if (!cell.empty()) peer_ports.push_back(static_cast<std::uint16_t>(std::stoi(cell)));
        }
        if (fed_config.ring_epoch == 0) fed_config.ring_epoch = 1;
      } else if (arg == "--ring-seed") {
        fed_config.ring_seed = std::stoull(next());
      } else if (arg == "--ring-epoch") {
        fed_config.ring_epoch = std::stoull(next());
      } else if (arg == "--gossip-period") {
        fed_config.exchange_period_ms = std::stoi(next());
      } else if (arg == "--http-port") {
        http_enabled = true;
        http_port = static_cast<std::uint16_t>(std::stoi(next()));
      } else if (arg == "--trace-sample") {
        server_config.trace_sample = static_cast<std::uint32_t>(std::stoul(next()));
      } else if (arg == "--flight-recorder") {
        flight_recorder_file = next();
      } else if (arg == "--timeseries-window") {
        server_config.timeseries_window_ms = std::stoi(next());
      } else if (arg == "--metrics-dump") {
        metrics_dump = true;
      } else if (arg == "--metrics-format") {
        metrics_format = parse_stats_format(next());
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: via_controller [--port N] [--metric rtt|loss|jitter]\n"
                     "                      [--epsilon E] [--budget B]\n"
                     "                      [--refresh-hours T] [--backbone FILE]\n"
                     "                      [--stripes N] [--solve-threads N] [--no-prewarm]\n"
                     "                      [--max-resident-pairs N] [--pair-ttl PERIODS]\n"
                     "                      [--max-inflight N]\n"
                     "                      [--write-buffer-cap BYTES] [--reactor-threads N]\n"
                     "                      [--replica-id N] [--peers P1,P2,...]\n"
                     "                      [--ring-seed S] [--ring-epoch E]\n"
                     "                      [--gossip-period MS]\n"
                     "                      [--http-port N] [--trace-sample N]\n"
                     "                      [--flight-recorder FILE] [--timeseries-window MS]\n"
                     "                      [--metrics-dump] [--metrics-format table|json|prom]\n";
        return 0;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  // The option table is populated on demand from client requests: clients
  // name options by id, so intern a generous bounce/transit space lazily.
  // For the daemon we pre-intern bounces for relays 0..255 and let transit
  // ids arrive via requests' option lists (already interned by peers that
  // share the same enumeration convention).
  RelayOptionTable options;
  for (RelayId r = 0; r < 256; ++r) (void)options.intern_bounce(r);
  for (RelayId a = 0; a < 64; ++a) {
    for (RelayId b = static_cast<RelayId>(a + 1); b < 64; ++b) {
      (void)options.intern_transit(a, b);
    }
  }

  ViaPolicy policy(
      options, [&backbone](RelayId a, RelayId b) { return backbone.get(a, b); }, config);

  // Federation wiring (§6k): stamp replies with this replica's identity,
  // park peer gossip in an exchange the next refresh folds, and push our
  // own segments to the peers on the gossip cadence.
  server_config.ring_epoch = fed_config.ring_epoch;
  fed::SegmentExchange exchange;
  if (!peer_ports.empty()) {
    policy.set_peer_segment_source([&exchange] { return exchange.collect(); });
  }

  try {
    ControllerServer server(policy, port, server_config);
    server.set_gossip_handler([&exchange](const GossipSegmentsMsg& msg) {
      return exchange.accept(fed::SegmentUpdate{msg.replica_id, msg.ring_epoch, msg.segments});
    });
    server.start();

    std::atomic<bool> gossip_stop{false};
    std::thread gossip_thread;
    if (!peer_ports.empty() && fed_config.exchange_period_ms > 0) {
      gossip_thread = std::thread([&] {
        while (!gossip_stop.load()) {
          for (int slept = 0; slept < fed_config.exchange_period_ms && !gossip_stop.load();
               slept += 50) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          if (gossip_stop.load()) break;
          (void)push_segments(policy, server_config.replica_id, fed_config, peer_ports);
        }
      });
    }
    std::unique_ptr<AdminHttpServer> http;
    if (http_enabled) {
      http = std::make_unique<AdminHttpServer>(server.telemetry(), http_port);
      http->set_varz([&server, &policy, &server_config, &fed_config, &exchange, &peer_ports] {
        // memory_stats() walks the store under its stripe locks — cheap at
        // /varz scrape cadence, and safe concurrently with serving.
        ViaPolicy::MemoryStats mem = policy.memory_stats();
        std::ostringstream os;
        os << "\"decisions_served\":" << server.decisions_served()
           << ",\"reports_received\":" << server.reports_received()
           << ",\"active_handlers\":" << server.active_handlers()
           << ",\"mem_total_bytes\":" << mem.total_bytes()
           << ",\"mem_window_bytes\":" << mem.window_bytes
           << ",\"mem_snapshot_bytes\":" << mem.snapshot_bytes
           << ",\"mem_store_bytes\":" << mem.store_bytes
           << ",\"resident_pairs\":" << mem.resident_pairs
           << ",\"store_evictions\":" << mem.store_evictions
           << ",\"backpressure_paused_conns\":" << server.backpressure_paused_conns()
           << ",\"backpressure_pauses_total\":" << server.backpressure_pauses_total()
           << ",\"backpressure_queued_bytes\":" << server.backpressure_queued_bytes()
           << ",\"peak_conn_queued_bytes\":" << server.peak_conn_queued_bytes()
           << ",\"replica_id\":" << server_config.replica_id
           << ",\"ring_epoch\":" << fed_config.ring_epoch
           << ",\"fed_peers\":" << peer_ports.size()
           << ",\"gossip_updates_received\":" << exchange.updates_accepted()
           << ",\"peer_segments_held\":" << exchange.segments_held()
           << ",\"peer_segments_folded\":" << policy.peer_segments_folded();
        return std::move(os).str();
      });
      http->start();
    }
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (http != nullptr) {
      std::cout << "admin http on 127.0.0.1:" << http->port()
                << " (/metrics /healthz /varz /trace /flightrecord)\n";
    }
    std::cout << "via_controller listening on 127.0.0.1:" << server.port() << " (epoll reactor x"
              << server_config.reactor_threads << ", metric "
              << metric_name(config.target) << ", epsilon " << config.epsilon << ", budget "
              << config.budget.fraction << ", refresh "
              << config.refresh_period / 3600 << "h, stripes "
              << config.serving_stripes << ", solve threads "
              << config.predictor.tomography.solve_threads << ", prewarm "
              << (config.prewarm_pairs ? "on" : "off") << ", backbone entries "
              << backbone.entries() << ")\n";
    if (!peer_ports.empty() || fed_config.ring_epoch != 0) {
      std::cout << "federation: replica " << server_config.replica_id << ", ring epoch "
                << fed_config.ring_epoch << ", " << peer_ports.size()
                << " peer(s), gossip every " << fed_config.exchange_period_ms << "ms\n";
    }
    std::cout << "clients drive refresh via the Refresh message; Ctrl-C stops.\n";
    while (!g_stop.load()) {
      // The server runs its own threads; the main thread just waits.
      ::pause();
    }
    std::cout << "\nshutting down: " << server.decisions_served() << " decisions, "
              << server.reports_received() << " reports served.\n";
    if (metrics_dump) {
      std::cout << "\n== telemetry ==\n"
                << obs::render_stats(server.telemetry().registry.snapshot(), metrics_format);
      const obs::TimeSeries series = server.timeseries();
      if (!series.empty()) std::cout << "\n== timeseries ==\n" << series.to_json() << "\n";
    }
    if (!flight_recorder_file.empty()) {
      if (flight_recorder_file == "-") {
        std::cout << "\n== flight record ==\n";
        server.telemetry().flight.export_jsonl(std::cout);
      } else {
        std::ofstream out(flight_recorder_file);
        if (out) {
          server.telemetry().flight.export_jsonl(out);
          std::cout << "flight record written to " << flight_recorder_file << "\n";
        } else {
          std::cerr << "cannot write flight record to " << flight_recorder_file << "\n";
        }
      }
    }
    gossip_stop.store(true);
    if (gossip_thread.joinable()) gossip_thread.join();
    if (http != nullptr) http->stop();
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
