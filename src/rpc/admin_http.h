// Admin-plane HTTP sidecar (§6g): a minimal HTTP/1.0 server exposing the
// controller's observability surface to standard tooling —
//
//   /metrics       Prometheus exposition (scrapeable as-is)
//   /healthz       liveness ("ok\n", 200)
//   /varz          JSON vitals (uptime, counters snapshot, host extras)
//   /trace         span buffer as Chrome trace-event JSON (Perfetto)
//   /flightrecord  flight recorder as JSONL (newest events)
//
// One accept thread, one connection at a time, bounded request read (size
// and time: a client that stalls mid-request is dropped at the deadline,
// so it cannot block everyone else or stop()): admin traffic is a human or
// a scraper, never the data path, so the implementation favors smallness
// over throughput.  Binds 127.0.0.1 only (via TcpListener), like the RPC
// plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/telemetry.h"
#include "rpc/socket.h"

namespace via {

class AdminHttpServer {
 public:
  /// Extra JSON fields ("\"k\":v,..." without braces) appended to /varz by
  /// the host; empty string adds nothing.
  using VarzFn = std::function<std::string()>;

  /// Whole-request read deadline: a request that has not fully arrived
  /// this long after accept is dropped without a reply.
  static constexpr int kRequestDeadlineMs = 2000;

  /// Binds 127.0.0.1:`port` (0 = ephemeral).  `telemetry` must outlive the
  /// server; it is read-snapshotted per request, never mutated.
  explicit AdminHttpServer(obs::Telemetry& telemetry, std::uint16_t port = 0);
  ~AdminHttpServer();

  AdminHttpServer(const AdminHttpServer&) = delete;
  AdminHttpServer& operator=(const AdminHttpServer&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }
  void set_varz(VarzFn fn) { varz_extra_ = std::move(fn); }

 private:
  void serve_loop();
  void handle(TcpConnection conn);
  /// Routes one request path to its response body + content type; returns
  /// false for unknown paths (404).
  [[nodiscard]] bool route(const std::string& path, std::string& body,
                           std::string& content_type);

  obs::Telemetry* telemetry_;
  VarzFn varz_extra_;
  TcpListener listener_;
  std::thread serve_thread_;
  std::atomic<bool> running_{false};
};

}  // namespace via
