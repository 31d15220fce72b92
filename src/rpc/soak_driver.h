// Out-of-process soak client for the epoll serving reactor
// (DESIGN.md §6j).  A soak at 10k connections needs the client-side fds
// in a *different* process than the server under test: with both ends in
// one process, 10240 server fds + 10240 client fds blow straight through
// RLIMIT_NOFILE.  run_soak() drives the pipelined client workload
// in-process; spawn_soak() runs the same workload in a child
// (apps/via_soak_driver) and reads the SoakResult back as one JSON line
// over a stdout pipe, so the parent only spends a single pipe fd.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace via {

struct SoakConfig {
  std::uint16_t port = 0;    ///< controller port on 127.0.0.1
  int connections = 64;      ///< concurrent client connections
  int rounds = 8;            ///< pipelined bursts per connection
  int depth = 8;             ///< frames per burst (inflight per connection)
  int threads = 8;           ///< client driver threads
  bool reports = false;      ///< send Reports (soak) instead of DecisionRequests (bench)
  int recv_timeout_ms = 30000;  ///< per-recv deadline; a stuck soak fails, not hangs
  int as_count = 100;        ///< synthetic src/dst AS id range [0, as_count)
  /// Candidate option ids attached to every DecisionRequest (the parent
  /// knows which ids its policy's table holds).  Empty = "controller
  /// decides from its own option table".
  std::vector<std::int32_t> options;
};

struct SoakResult {
  bool ok = false;           ///< all connections served every frame
  std::int64_t connected = 0;
  std::int64_t sent = 0;     ///< request frames written
  std::int64_t received = 0; ///< reply frames read back
  std::int64_t mismatched = 0;  ///< replies of the wrong type / wrong call_id
  double seconds = 0.0;      ///< timed span of the request/reply rounds
  double rps = 0.0;          ///< received / seconds
  std::string error;         ///< first failure, empty when ok

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<SoakResult> from_json(std::string_view line);
};

/// Raises RLIMIT_NOFILE's soft limit to the hard limit (best effort) so a
/// high-connection run is not capped by a conservative default soft limit.
void raise_fd_limit() noexcept;

/// Drives the workload from this process.  Never throws: failures come
/// back as ok == false with `error` set.
[[nodiscard]] SoakResult run_soak(const SoakConfig& config);

/// Path to the spawnable driver binary: $VIA_SOAK_DRIVER when set, else
/// the build-time location of apps/via_soak_driver.  Empty when neither
/// resolves to an executable file.
[[nodiscard]] std::string soak_driver_path();

/// Runs the workload in a posix_spawn'd child so its client fds count
/// against the child's RLIMIT_NOFILE, not this process's.  Returns
/// nullopt (and sets *error when given) if the driver binary is missing
/// or the child dies without producing a parseable result line.
[[nodiscard]] std::optional<SoakResult> spawn_soak(const SoakConfig& config,
                                                   std::string* error = nullptr);

/// main() body of apps/via_soak_driver: parses --port/--conns/... flags,
/// runs run_soak, prints SoakResult::to_json() on stdout.  Exit 0 when
/// the soak ran to completion (even with ok == false — the parent reads
/// the verdict from the JSON), 2 on bad usage.
int soak_driver_main(int argc, char** argv);

}  // namespace via
