// In-process controller fleet (DESIGN.md §6k): the harness the federation
// chaos suites and the apps drive.  Each replica bundles its own ViaPolicy,
// a ControllerServer bound to a stable loopback port, and a SegmentExchange
// wired into the policy's peer-segment source, so a refresh on any replica
// folds whatever its peers last gossiped.  kill()/restart() stop and
// re-bind one replica's server mid-run (the policy and its accumulated
// state survive, like a process that crashed and recovered its port), and
// gossip_once() runs one deterministic push round — every live replica
// renders its solver's segments and pushes them to every live peer — so
// tests control exchange timing explicitly instead of racing a timer.
// push_segments() is that push for one replica; the via_controller daemon's
// gossip thread calls it on its own cadence.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/via_policy.h"
#include "fed/federation.h"
#include "fed/segment_exchange.h"
#include "rpc/server.h"

namespace via {

/// One gossip push (§6k): renders `policy`'s solver segments (at most
/// `fed.exchange_max_segments`) as replica `replica_id`'s update at
/// `fed.ring_epoch` and pushes it to every port in `peer_ports`, each
/// through its own ControllerClient with a 1 s deadline.  Returns the
/// number of successful pushes.  A peer that fails misses this round (the
/// next one covers it); an empty render pushes nothing.
std::size_t push_segments(const ViaPolicy& policy, std::uint32_t replica_id,
                          const fed::FederationConfig& fed,
                          std::span<const std::uint16_t> peer_ports);

struct FedFleetConfig {
  std::uint32_t replicas = 3;
  fed::FederationConfig fed;  ///< ports are filled in by start()
  ViaConfig via;              ///< per-replica policy configuration
  ServerConfig server;        ///< base server config (identity filled per replica)
};

class FedFleet {
 public:
  /// The option table and backbone must outlive the fleet.
  FedFleet(const RelayOptionTable& options, BackboneFn backbone, FedFleetConfig config);
  ~FedFleet();

  FedFleet(const FedFleet&) = delete;
  FedFleet& operator=(const FedFleet&) = delete;

  /// Binds every replica to an ephemeral port and starts serving; the
  /// assigned ports land in federation().replica_ports.
  void start();
  void stop();

  /// Stops replica `r`'s server (connections reset; its port is kept for
  /// restart).  The policy and exchange state survive, like a recovered
  /// process.  No-op if already down.
  void kill(std::uint32_t r);
  /// Re-binds replica `r` on its original port and resumes serving.
  void restart(std::uint32_t r);
  [[nodiscard]] bool alive(std::uint32_t r) const noexcept { return servers_[r] != nullptr; }

  /// One synchronous gossip round: every live replica pushes its solver's
  /// segment estimates to every live peer.  Returns the number of
  /// successful pushes.  Unreachable peers are skipped, not fatal.
  std::size_t gossip_once();

  /// The fleet layout for building FederatedClients (ports valid after
  /// start()).
  [[nodiscard]] const fed::FederationConfig& federation() const noexcept { return cfg_.fed; }

  [[nodiscard]] ViaPolicy& policy(std::uint32_t r) noexcept { return *policies_[r]; }
  [[nodiscard]] ControllerServer& server(std::uint32_t r) noexcept { return *servers_[r]; }
  [[nodiscard]] fed::SegmentExchange& exchange(std::uint32_t r) noexcept {
    return *exchanges_[r];
  }
  [[nodiscard]] std::uint32_t replicas() const noexcept { return cfg_.replicas; }

  /// Observations landed across the whole fleet (survivors + the killed
  /// replica's pre-kill count): what the zero-lost-observations assertions
  /// compare against the client-side send count.
  [[nodiscard]] std::int64_t total_reports() const noexcept;
  [[nodiscard]] std::int64_t total_decisions() const noexcept;

 private:
  [[nodiscard]] ServerConfig server_config_for(std::uint32_t r) const;
  void wire(std::uint32_t r);

  const RelayOptionTable* options_;
  BackboneFn backbone_;
  FedFleetConfig cfg_;
  std::vector<std::unique_ptr<ViaPolicy>> policies_;
  std::vector<std::unique_ptr<fed::SegmentExchange>> exchanges_;
  std::vector<std::unique_ptr<ControllerServer>> servers_;
  /// Reports/decisions a replica had served when it was last killed, so
  /// fleet totals survive server teardown.
  std::vector<std::int64_t> reports_before_kill_;
  std::vector<std::int64_t> decisions_before_kill_;
  bool started_ = false;
};

}  // namespace via
