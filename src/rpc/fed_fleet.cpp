#include "rpc/fed_fleet.h"

#include <algorithm>
#include <utility>

#include "rpc/client.h"
#include "rpc/errors.h"

namespace via {

std::size_t push_segments(const ViaPolicy& policy, std::uint32_t replica_id,
                          const fed::FederationConfig& fed,
                          std::span<const std::uint16_t> peer_ports) {
  GossipSegmentsMsg msg;
  msg.replica_id = replica_id;
  msg.ring_epoch = fed.ring_epoch;
  msg.segments = fed::SegmentExchange::render(policy.model()->predictor().tomography(),
                                              fed.exchange_max_segments);
  if (msg.segments.empty()) return 0;
  std::size_t pushes = 0;
  for (const std::uint16_t port : peer_ports) {
    try {
      ClientConfig cc;
      cc.request_timeout_ms = 1000;
      ControllerClient peer(port, cc);
      (void)peer.gossip_segments(msg);
      peer.shutdown();
      ++pushes;
    } catch (const std::exception&) {
      // A dead peer misses this round; the next round covers it.
    }
  }
  return pushes;
}

FedFleet::FedFleet(const RelayOptionTable& options, BackboneFn backbone, FedFleetConfig config)
    : options_(&options), backbone_(std::move(backbone)), cfg_(std::move(config)) {
  cfg_.replicas = std::max<std::uint32_t>(1, cfg_.replicas);
  cfg_.fed.replica_ports.assign(cfg_.replicas, 0);
  policies_.resize(cfg_.replicas);
  exchanges_.resize(cfg_.replicas);
  servers_.resize(cfg_.replicas);
  reports_before_kill_.assign(cfg_.replicas, 0);
  decisions_before_kill_.assign(cfg_.replicas, 0);
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
    policies_[r] = std::make_unique<ViaPolicy>(*options_, backbone_, cfg_.via);
    exchanges_[r] = std::make_unique<fed::SegmentExchange>();
    // Peer-segment source (§6k): each prepare_refresh folds whatever this
    // replica's peers last gossiped.  Before any gossip the collect is
    // empty, so a quiet fleet stays bit-identical to standalone policies.
    policies_[r]->set_peer_segment_source(
        [ex = exchanges_[r].get()] { return ex->collect(); });
  }
}

FedFleet::~FedFleet() { stop(); }

ServerConfig FedFleet::server_config_for(std::uint32_t r) const {
  ServerConfig sc = cfg_.server;
  sc.replica_id = r;
  sc.ring_epoch = cfg_.fed.ring_epoch;
  return sc;
}

void FedFleet::wire(std::uint32_t r) {
  servers_[r]->set_gossip_handler([ex = exchanges_[r].get()](const GossipSegmentsMsg& msg) {
    return ex->accept(fed::SegmentUpdate{msg.replica_id, msg.ring_epoch, msg.segments});
  });
}

void FedFleet::start() {
  if (started_) return;
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
    servers_[r] = std::make_unique<ControllerServer>(*policies_[r], cfg_.fed.replica_ports[r],
                                                     server_config_for(r));
    wire(r);
    servers_[r]->start();
    cfg_.fed.replica_ports[r] = servers_[r]->port();
  }
  started_ = true;
}

void FedFleet::stop() {
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r) kill(r);
  started_ = false;
}

void FedFleet::kill(std::uint32_t r) {
  if (servers_[r] == nullptr) return;
  reports_before_kill_[r] += servers_[r]->reports_received();
  decisions_before_kill_[r] += servers_[r]->decisions_served();
  servers_[r]->stop();
  servers_[r].reset();
}

void FedFleet::restart(std::uint32_t r) {
  if (servers_[r] != nullptr) return;
  // Same port as before the kill (SO_REUSEADDR on the listener), so
  // clients re-home back without any reconfiguration — a process restart,
  // not a fleet change.
  servers_[r] = std::make_unique<ControllerServer>(*policies_[r], cfg_.fed.replica_ports[r],
                                                   server_config_for(r));
  wire(r);
  servers_[r]->start();
}

std::size_t FedFleet::gossip_once() {
  std::size_t pushes = 0;
  std::vector<std::uint16_t> peers;
  for (std::uint32_t from = 0; from < cfg_.replicas; ++from) {
    if (servers_[from] == nullptr) continue;
    peers.clear();
    for (std::uint32_t to = 0; to < cfg_.replicas; ++to) {
      if (to != from && servers_[to] != nullptr) peers.push_back(cfg_.fed.replica_ports[to]);
    }
    pushes += push_segments(*policies_[from], from, cfg_.fed, peers);
  }
  return pushes;
}

std::int64_t FedFleet::total_reports() const noexcept {
  std::int64_t total = 0;
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
    total += reports_before_kill_[r];
    if (servers_[r] != nullptr) total += servers_[r]->reports_received();
  }
  return total;
}

std::int64_t FedFleet::total_decisions() const noexcept {
  std::int64_t total = 0;
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
    total += decisions_before_kill_[r];
    if (servers_[r] != nullptr) total += servers_[r]->decisions_served();
  }
  return total;
}

}  // namespace via
