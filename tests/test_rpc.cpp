#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/policies.h"
#include "core/via_policy.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/conn_buffer.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/socket.h"

#include "count_allocations.h"

namespace via {
namespace {

// ------------------------------------------------------------ wire format

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1'000'000'000'000LL);
  w.f64(3.14159);
  w.str("hello");

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1'000'000'000'000LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, UnderrunThrows) {
  WireWriter w;
  w.u16(7);
  WireReader r(w.bytes());
  EXPECT_THROW((void)r.u32(), std::runtime_error);
}

TEST(Wire, DecisionRequestRoundTrip) {
  DecisionRequest req;
  req.call_id = 42;
  req.time = 123456;
  req.src_as = 7;
  req.dst_as = 9;
  req.options = {0, 3, 5, 8};
  WireWriter w;
  req.encode(w);
  WireReader r(w.bytes());
  const DecisionRequest out = DecisionRequest::decode(r);
  EXPECT_EQ(out.call_id, 42);
  EXPECT_EQ(out.time, 123456);
  EXPECT_EQ(out.src_as, 7);
  EXPECT_EQ(out.dst_as, 9);
  EXPECT_EQ(out.options, req.options);
}

TEST(Wire, ReportRoundTrip) {
  ReportMsg msg;
  msg.obs.id = 5;
  msg.obs.time = 99;
  msg.obs.src_as = 1;
  msg.obs.dst_as = 2;
  msg.obs.option = 7;
  msg.obs.ingress = 3;
  msg.obs.perf = {123.5, 1.25, 8.75};
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  const ReportMsg out = ReportMsg::decode(r);
  EXPECT_EQ(out.obs.id, 5);
  EXPECT_EQ(out.obs.ingress, 3);
  EXPECT_DOUBLE_EQ(out.obs.perf.rtt_ms, 123.5);
  EXPECT_DOUBLE_EQ(out.obs.perf.loss_pct, 1.25);
}

// ------------------------------------------------------------- sockets

TEST(Sockets, ListenerPicksEphemeralPort) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(Sockets, FrameRoundTripOverLoopback) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpConnection conn = listener.accept();
    Frame frame;
    ASSERT_TRUE(recv_frame(conn, frame));
    EXPECT_EQ(frame.type, 7);
    ASSERT_EQ(frame.payload.size(), 3u);
    send_frame(conn, 8, frame.payload);  // echo back
  });

  TcpConnection client = TcpConnection::connect_local(listener.port());
  const std::byte payload[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
  send_frame(client, 7, payload);
  Frame reply;
  ASSERT_TRUE(recv_frame(client, reply));
  EXPECT_EQ(reply.type, 8);
  EXPECT_EQ(reply.payload.size(), 3u);
  server.join();
}

TEST(Sockets, EmptyPayloadFrame) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpConnection conn = listener.accept();
    Frame frame;
    ASSERT_TRUE(recv_frame(conn, frame));
    EXPECT_TRUE(frame.payload.empty());
    send_frame(conn, frame.type, {});
  });
  TcpConnection client = TcpConnection::connect_local(listener.port());
  send_frame(client, 9, {});
  Frame reply;
  ASSERT_TRUE(recv_frame(client, reply));
  server.join();
}

TEST(Sockets, CleanEofReturnsFalse) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpConnection conn = listener.accept();
    conn.close();
  });
  TcpConnection client = TcpConnection::connect_local(listener.port());
  Frame frame;
  EXPECT_FALSE(recv_frame(client, frame));
  server.join();
}

// ------------------------------------------------------- controller rpc

/// Policy that always returns a fixed option and counts interactions.
class FixedPolicy final : public RoutingPolicy {
 public:
  explicit FixedPolicy(OptionId option) : option_(option) {}
  [[nodiscard]] OptionId choose(const CallContext& call) override {
    ++chosen;
    last_call_id = call.id;
    last_options.assign(call.options.begin(), call.options.end());
    return option_;
  }
  void observe(const Observation& obs) override {
    ++observed;
    last_obs = obs;
  }
  void refresh(TimeSec now) override {
    ++refreshed;
    last_refresh = now;
  }
  [[nodiscard]] std::string_view name() const override { return "fixed"; }

  OptionId option_;
  std::atomic<int> chosen{0}, observed{0}, refreshed{0};
  CallId last_call_id = 0;
  std::vector<OptionId> last_options;
  Observation last_obs;
  TimeSec last_refresh = 0;
};

TEST(Controller, DecisionRoundTrip) {
  FixedPolicy policy(5);
  ControllerServer server(policy);
  server.start();

  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 77;
  req.time = 1000;
  req.src_as = 1;
  req.dst_as = 2;
  req.options = {0, 5, 9};
  EXPECT_EQ(client.request_decision(req), 5);
  EXPECT_EQ(policy.chosen.load(), 1);
  EXPECT_EQ(policy.last_call_id, 77);
  EXPECT_EQ(policy.last_options, req.options);
  client.shutdown();
  server.stop();
  EXPECT_EQ(server.decisions_served(), 1);
}

TEST(Controller, ReportReachesPolicy) {
  FixedPolicy policy(0);
  ControllerServer server(policy);
  server.start();

  ControllerClient client(server.port());
  Observation obs;
  obs.id = 3;
  obs.src_as = 4;
  obs.dst_as = 5;
  obs.option = 2;
  obs.perf = {150.0, 0.9, 6.0};
  client.report(obs);
  EXPECT_EQ(policy.observed.load(), 1);
  EXPECT_DOUBLE_EQ(policy.last_obs.perf.rtt_ms, 150.0);
  client.shutdown();
  server.stop();
  EXPECT_EQ(server.reports_received(), 1);
}

TEST(Controller, RefreshPropagates) {
  FixedPolicy policy(0);
  ControllerServer server(policy);
  server.start();
  ControllerClient client(server.port());
  client.refresh(kSecondsPerDay);
  EXPECT_EQ(policy.refreshed.load(), 1);
  EXPECT_EQ(policy.last_refresh, kSecondsPerDay);
  client.shutdown();
  server.stop();
}

TEST(Controller, ManyConcurrentClients) {
  FixedPolicy policy(1);
  ControllerServer server(policy);
  server.start();

  constexpr int kClients = 8;
  constexpr int kCallsEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ControllerClient client(server.port());
      for (int i = 0; i < kCallsEach; ++i) {
        DecisionRequest req;
        req.call_id = c * 1000 + i;
        req.options = {0, 1};
        if (client.request_decision(req) == 1) ++ok;
        Observation obs;
        obs.id = req.call_id;
        obs.option = 1;
        obs.perf = {100.0, 0.5, 2.0};
        client.report(obs);
      }
      client.shutdown();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kCallsEach);
  EXPECT_EQ(policy.observed.load(), kClients * kCallsEach);
  server.stop();
}

TEST(Controller, StopIsIdempotent) {
  FixedPolicy policy(0);
  ControllerServer server(policy);
  server.start();
  server.stop();
  server.stop();  // second stop must be harmless
}

TEST(Controller, SurvivesAbruptClientDisconnect) {
  FixedPolicy policy(0);
  ControllerServer server(policy);
  server.start();
  {
    TcpConnection raw = TcpConnection::connect_local(server.port());
    // Send garbage then slam the connection.
    const std::byte junk[5] = {std::byte{0xFF}, std::byte{0xFF}, std::byte{0xFF},
                               std::byte{0xFF}, std::byte{0x01}};
    raw.send_all(junk);
  }
  // The server must still serve new clients.
  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 1;
  req.options = {0};
  EXPECT_EQ(client.request_decision(req), 0);
  client.shutdown();
  server.stop();
}

TEST(Controller, GetStatsReturnsServerTelemetry) {
  FixedPolicy policy(2);
  ControllerServer server(policy);
  server.start();

  ControllerClient client(server.port());
  obs::MetricsRegistry client_metrics;
  client.attach_metrics(&client_metrics);
  DecisionRequest req;
  req.call_id = 11;
  req.options = {0, 2};
  EXPECT_EQ(client.request_decision(req), 2);

  // JSON snapshot reflects the request we just made plus byte counters.
  const std::string json = client.get_stats(obs::StatsFormat::Json);
  EXPECT_NE(json.find("\"rpc.server.decisions\":1"), std::string::npos);
  EXPECT_NE(json.find("rpc.server.bytes_in"), std::string::npos);
  EXPECT_NE(json.find("rpc.server.request_us"), std::string::npos);

  // Prometheus + table renderings come back non-empty over the same wire.
  EXPECT_NE(client.get_stats(obs::StatsFormat::Prometheus).find("rpc_server_decisions"),
            std::string::npos);
  EXPECT_FALSE(client.get_stats(obs::StatsFormat::Table).empty());

  // Client-side instruments saw the round trips.
  const obs::MetricsSnapshot snap = client_metrics.snapshot();
  EXPECT_GT(snap.counter_value("rpc.client.bytes_out"), 0);
  EXPECT_GT(snap.counter_value("rpc.client.bytes_in"), 0);
  const obs::HistogramSample* lat = snap.find_histogram("rpc.client.request_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 4);  // decide + three get_stats
  client.shutdown();
  server.stop();
}

TEST(Controller, SteadyStateDecisionAndReportAllocateNothing) {
  FixedPolicy policy(1);
  ControllerServer server(policy);
  server.start();
  obs::MetricsRegistry client_metrics;
  ControllerClient client(server.port());
  client.attach_metrics(&client_metrics);

  DecisionRequest req;
  req.options = {0, 1, 2, 3};
  Observation obs;
  obs.option = 1;
  obs.perf = {100.0, 0.5, 2.0};
  auto round = [&](CallId id) {
    req.call_id = id;
    EXPECT_EQ(client.request_decision(req), 1);
    obs.id = id;
    client.report(obs);
  };
  // The first round trips size the client's frame buffers.
  round(1);
  round(2);

  g_allocations = 0;
  g_count_allocations = true;
  for (CallId id = 3; id < 200; ++id) round(id);
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0);
  EXPECT_EQ(policy.chosen.load(), 199);
  EXPECT_EQ(policy.observed.load(), 199);
  client.shutdown();
  server.stop();
}

TEST(Controller, ClientReleasesBuffersGrownByLargeFrames) {
  // A scripted peer: acks one large gossip push, then answers a stats
  // request with a large dump, so the request and then the reply buffer
  // each grow past kRetainCapacity for one exchange.
  constexpr std::size_t kBigText = 4 * kRetainCapacity;
  TcpListener listener(0);
  std::size_t gossip_bytes = 0;
  std::thread peer([&] {
    TcpConnection conn = listener.accept();
    Frame frame;
    ASSERT_TRUE(recv_frame(conn, frame));
    ASSERT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::GossipSegments));
    gossip_bytes = frame.payload.size();
    WireWriter ack;
    GossipSegmentsAckMsg{7, 1, 0}.encode(ack);
    send_frame(conn, static_cast<std::uint8_t>(MsgType::GossipSegmentsAck), ack.bytes());
    ASSERT_TRUE(recv_frame(conn, frame));
    ASSERT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::GetStats));
    WireWriter dump;
    StatsResponse{std::string(kBigText, 'x'), 7}.encode(dump);
    send_frame(conn, static_cast<std::uint8_t>(MsgType::GetStatsResponse), dump.bytes());
  });

  ControllerClient client(listener.port());
  GossipSegmentsMsg msg;
  msg.replica_id = 1;
  msg.ring_epoch = 1;
  msg.segments.resize(4096);
  for (std::size_t i = 0; i < msg.segments.size(); ++i) msg.segments[i].key = i;
  // Each exchange's other buffer held a few bytes, so releasing the grown
  // one leaves the pair well under one kRetainCapacity.
  EXPECT_EQ(client.gossip_segments(msg).replica_id, 7u);
  EXPECT_LT(client.buffer_bytes(), kRetainCapacity);
  EXPECT_EQ(client.get_stats().size(), kBigText);
  EXPECT_LT(client.buffer_bytes(), kRetainCapacity);
  peer.join();
  EXPECT_GT(gossip_bytes, 2 * kRetainCapacity);
  client.shutdown();
}

TEST(Controller, ServerKeepsNoDecisionRingAndReasonCountersSumToDecisions) {
  RelayOptionTable options;
  std::vector<OptionId> candidates = {RelayOptionTable::direct_id()};
  for (RelayId r = 0; r < 4; ++r) candidates.push_back(options.intern_bounce(r));
  ViaConfig config;
  config.epsilon = 0.2;  // mixed reasons: epsilon picks beside the bandit's
  config.serving_stripes = 4;
  ViaPolicy policy(options, [](RelayId, RelayId) { return PathPerformance{}; }, config);
  ControllerServer server(policy);
  server.start();

  // Two clients interleave decisions and reports across two refreshes, so
  // the policy serves cold, armed and re-armed pairs.
  constexpr int kClients = 2;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ControllerClient client(server.port());
      for (int day = 0; day < 3; ++day) {
        for (int i = 0; i < 60; ++i) {
          DecisionRequest req;
          req.call_id = (c * 10 + day) * 1000 + i;
          req.time = day * kSecondsPerDay + i;
          req.src_as = static_cast<AsId>(1 + i % 6);
          req.dst_as = static_cast<AsId>(50 + c);
          req.options = candidates;
          const OptionId pick = client.request_decision(req);
          Observation obs;
          obs.id = req.call_id;
          obs.time = req.time;
          obs.src_as = req.src_as;
          obs.dst_as = req.dst_as;
          obs.option = pick;
          obs.perf = {pick == RelayOptionTable::direct_id() ? 300.0 : 90.0 + pick, 0.5, 3.0};
          client.report(obs);
        }
        if (c == 0) client.refresh((day + 1) * kSecondsPerDay);
      }
      client.shutdown();
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  const obs::DecisionTrace& ring = server.telemetry().decisions;
  EXPECT_FALSE(ring.enabled());
  EXPECT_EQ(ring.recorded(), 0);
  EXPECT_TRUE(ring.snapshot().empty());

  obs::MetricsRegistry& r = server.telemetry().registry;
  const std::int64_t by_reason =
      r.counter("policy.decision.ucb").value() +
      r.counter("policy.decision.epsilon_explore").value() +
      r.counter("policy.decision.budget_veto").value() +
      r.counter("policy.decision.fallback_direct").value() +
      r.counter("policy.decision.quarantined_relay").value() +
      r.counter("policy.decision.fallback_direct_outage").value();
  EXPECT_EQ(server.decisions_served(), kClients * 3 * 60);
  EXPECT_EQ(by_reason, server.decisions_served());
  EXPECT_GT(r.counter("policy.decision.ucb").value(), 0);
  EXPECT_GT(r.counter("policy.decision.epsilon_explore").value(), 0);
  EXPECT_EQ(server.reports_received(), kClients * 3 * 60);
}

TEST(Controller, DefaultConfigServesOnEpoll) {
  FixedPolicy policy(0);
  ControllerServer server(policy);
  server.start();
  EXPECT_EQ(server.serving_backend(), ServingBackend::kEpoll);
  EXPECT_EQ(server.reactor_worker_connections().size(), 2u);
  server.stop();
}

TEST(Controller, RejectsReactorThreadsBelowOne) {
  FixedPolicy policy(0);
  ServerConfig config;
  config.reactor_threads = 0;
  EXPECT_THROW(ControllerServer(policy, 0, config), std::invalid_argument);
  config.reactor_threads = -1;
  EXPECT_THROW(ControllerServer(policy, 0, config), std::invalid_argument);
}

/// Split-refresh double that checks the server's refresh discipline: each
/// prepare_refresh() must be followed by the commit_refresh() for the same
/// timestamp before the next prepare starts.
class SplitRefreshPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] OptionId choose(const CallContext&) override { return 0; }
  void observe(const Observation&) override {}
  void prepare_refresh(TimeSec now) override {
    if (prepared_.exchange(now) != kNone) ++violations;
    // Widen the window in which an unserialized second prepare would land.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++prepares;
  }
  void commit_refresh(TimeSec now) override {
    if (prepared_.exchange(kNone) != now) ++violations;
    ++commits;
  }
  [[nodiscard]] bool concurrent_safe() const noexcept override { return true; }
  [[nodiscard]] std::string_view name() const override { return "split-refresh"; }

  std::atomic<int> prepares{0}, commits{0}, violations{0};

 private:
  static constexpr TimeSec kNone = std::numeric_limits<TimeSec>::min();
  std::atomic<TimeSec> prepared_{kNone};
};

TEST(Controller, ConcurrentRefreshesPrepareAndCommitInPairs) {
  SplitRefreshPolicy policy;
  ControllerServer server(policy);
  server.start();

  // Two connections (pinned to different reactor workers) race Refreshes
  // with fresh timestamps.  One can overtake the other, so a Refresh may
  // arrive stale and be deduped; every other one must run as its own
  // prepare+commit pair.
  constexpr int kConns = 2;
  constexpr int kRefreshesEach = 25;
  std::atomic<TimeSec> next_time{1};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&] {
      ControllerClient client(server.port());
      for (int i = 0; i < kRefreshesEach; ++i) client.refresh(next_time.fetch_add(1));
      client.shutdown();
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  EXPECT_EQ(policy.violations.load(), 0);
  EXPECT_EQ(policy.prepares.load(), policy.commits.load());
  EXPECT_GT(policy.commits.load(), 0);
  EXPECT_EQ(policy.commits.load() + server.duplicate_refreshes(), kConns * kRefreshesEach);
}

TEST(Controller, EndToEndWithRealViaPolicy) {
  RelayOptionTable options;
  const OptionId bounce = options.intern_bounce(0);
  ViaConfig config;
  config.epsilon = 0.0;
  ViaPolicy policy(options, [](RelayId, RelayId) { return PathPerformance{}; }, config);
  ControllerServer server(policy);
  server.start();
  ControllerClient client(server.port());

  // Teach the controller that the bounce is better, then refresh.
  for (int i = 0; i < 6; ++i) {
    Observation obs;
    obs.id = i;
    obs.src_as = 1;
    obs.dst_as = 2;
    obs.option = (i % 2 == 0) ? bounce : RelayOptionTable::direct_id();
    obs.perf = {obs.option == bounce ? 80.0 + i : 300.0 + i, 0.5, 3.0};
    client.report(obs);
  }
  client.refresh(kSecondsPerDay);

  DecisionRequest req;
  req.call_id = 100;
  req.time = kSecondsPerDay + 100;
  req.src_as = 1;
  req.dst_as = 2;
  req.options = {RelayOptionTable::direct_id(), bounce};
  EXPECT_EQ(client.request_decision(req), bounce);
  client.shutdown();
  server.stop();
}

}  // namespace
}  // namespace via
