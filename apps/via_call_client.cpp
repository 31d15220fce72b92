// via_call_client — command-line client for a running via_controller.
//
//   via_call_client --port N decide --call ID --time T --src AS --dst AS
//                   --options 0,1,2,...
//   via_call_client --port N report --call ID --time T --src AS --dst AS
//                   --option OPT [--ingress R] --rtt MS --loss PCT --jitter MS
//   via_call_client --port N refresh --time T
//   via_call_client --port N stats [--format table|json|prom]
//   via_call_client --port N trace [--max-bytes N]
//   via_call_client --port N flightrecord [--max-bytes N]
//   via_call_client --port N ping          (alias: --ping)
//
// `ping` sends the payload-free health probe (shedding-exempt, §6k) and
// prints the replica identity from the Pong — the same RPC the federated
// client's probation probe uses, so a scripted health check sees exactly
// what failover sees.
//
// Exposes the full wire protocol from the shell — handy for smoke-testing
// a deployment or scripting synthetic traffic against a live controller.
// `trace` prints the controller's span buffer as Chrome trace-event JSON;
// `flightrecord` prints its flight recorder as JSONL (§6g).
//
// Resilience flags (all commands): --request-timeout-ms M arms a receive
// deadline per round trip (0 = block forever); --retries K retries
// retryable failures (timeout/reset/busy) up to K times with exponential
// backoff and deterministic jitter, reconnecting after resets;
// --fallback-direct makes decide answer the direct path instead of
// failing when the controller stays unreachable.
//
// --client-stats: after the command, print the client's own accounting to
// stderr — per-kind error counters (rpc.client.errors.timeout / reset /
// protocol / busy), total request errors, and retry / reconnect /
// fallback totals.  --trace-id X stamps decide requests with a trace id
// so the controller's sampled spans line up with the caller's.
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rpc/client.h"

namespace {

std::vector<via::OptionId> parse_options(const std::string& csv) {
  std::vector<via::OptionId> out;
  std::istringstream ss(csv);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    if (!cell.empty()) out.push_back(static_cast<via::OptionId>(std::stoi(cell)));
  }
  return out;
}

void usage() {
  std::cout
      << "usage:\n"
         "  via_call_client --port N decide --call ID --time T --src AS --dst AS"
         " --options 0,3,7\n"
         "  via_call_client --port N report --call ID --time T --src AS --dst AS"
         " --option OPT [--ingress R] --rtt MS --loss PCT --jitter MS\n"
         "  via_call_client --port N refresh --time T\n"
         "  via_call_client --port N stats [--format table|json|prom]\n"
         "  via_call_client --port N trace [--max-bytes N]\n"
         "  via_call_client --port N flightrecord [--max-bytes N]\n"
         "  via_call_client --port N ping          (alias: --ping)\n"
         "options: [--request-timeout-ms M] [--retries K] [--fallback-direct]\n"
         "         [--trace-id X] [--client-stats]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace via;

  std::uint16_t port = 7401;
  ClientConfig client_config;
  std::string command;
  DecisionRequest request;
  Observation obs;
  TimeSec refresh_time = 0;
  via::obs::StatsFormat stats_format = via::obs::StatsFormat::Table;
  std::uint32_t max_bytes = 0;
  bool client_stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--port") {
        port = static_cast<std::uint16_t>(std::stoi(next()));
      } else if (arg == "--request-timeout-ms") {
        client_config.request_timeout_ms = std::stoi(next());
      } else if (arg == "--retries") {
        client_config.max_retries = std::stoi(next());
      } else if (arg == "--fallback-direct") {
        client_config.fallback_direct = true;
      } else if (arg == "--client-stats") {
        client_stats = true;
      } else if (arg == "--trace-id") {
        request.trace_id = std::stoull(next(), nullptr, 0);
      } else if (arg == "--max-bytes") {
        max_bytes = static_cast<std::uint32_t>(std::stoul(next()));
      } else if (arg == "decide" || arg == "report" || arg == "refresh" || arg == "stats" ||
                 arg == "trace" || arg == "flightrecord" || arg == "ping") {
        command = arg;
      } else if (arg == "--ping") {
        command = "ping";
      } else if (arg == "--format") {
        const std::string f = next();
        stats_format = f == "json"   ? obs::StatsFormat::Json
                       : f == "prom" ? obs::StatsFormat::Prometheus
                                     : obs::StatsFormat::Table;
      } else if (arg == "--call") {
        request.call_id = obs.id = std::stoll(next());
      } else if (arg == "--time") {
        request.time = obs.time = refresh_time = std::stoll(next());
      } else if (arg == "--src") {
        request.src_as = obs.src_as = static_cast<AsId>(std::stoi(next()));
      } else if (arg == "--dst") {
        request.dst_as = obs.dst_as = static_cast<AsId>(std::stoi(next()));
      } else if (arg == "--options") {
        request.options = parse_options(next());
      } else if (arg == "--option") {
        obs.option = static_cast<OptionId>(std::stoi(next()));
      } else if (arg == "--ingress") {
        obs.ingress = static_cast<RelayId>(std::stoi(next()));
      } else if (arg == "--rtt") {
        obs.perf.rtt_ms = std::stod(next());
      } else if (arg == "--loss") {
        obs.perf.loss_pct = std::stod(next());
      } else if (arg == "--jitter") {
        obs.perf.jitter_ms = std::stod(next());
      } else if (arg == "--help" || arg == "-h") {
        usage();
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

  if (command.empty()) {
    usage();
    return 2;
  }

  via::obs::MetricsRegistry client_registry;
  const auto dump_client_stats = [&] {
    if (!client_stats) return;
    const via::obs::MetricsSnapshot snap = client_registry.snapshot();
    std::cerr << "== client stats ==\n";
    for (const char* name :
         {"rpc.client.request_errors", "rpc.client.errors.timeout", "rpc.client.errors.reset",
          "rpc.client.errors.protocol", "rpc.client.errors.busy", "rpc.client.retries",
          "rpc.client.reconnects", "rpc.client.fallback_direct"}) {
      std::cerr << name << " " << snap.counter_value(name) << "\n";
    }
  };

  int rc = 0;
  try {
    ControllerClient client(port, client_config);
    client.attach_metrics(&client_registry);
    if (command == "decide") {
      if (request.options.empty()) {
        std::cerr << "decide requires --options\n";
        return 2;
      }
      const OptionId choice = client.request_decision(request);
      std::cout << choice << "\n";
    } else if (command == "report") {
      client.report(obs);
      std::cout << "ok\n";
    } else if (command == "stats") {
      std::cout << client.get_stats(stats_format) << "\n";
    } else if (command == "trace") {
      std::cout << client.get_trace(max_bytes) << "\n";
    } else if (command == "flightrecord") {
      std::cout << client.get_flight_record(max_bytes);
    } else if (command == "ping") {
      const PongMsg pong = client.ping();
      std::cout << "pong replica_id=" << pong.replica_id << " ring_epoch=" << pong.ring_epoch
                << "\n";
    } else {
      client.refresh(refresh_time);
      std::cout << "ok\n";
    }
    client.shutdown();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }
  dump_client_stats();
  return rc;
}
