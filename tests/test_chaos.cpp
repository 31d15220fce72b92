// Chaos and degradation tests for the RPC layer (DESIGN.md §6f):
//   - client + server under deterministic frame drops/delays/truncations/
//     resets complete with zero lost observations (deadline + retry +
//     reconnect + server-side Report dedup),
//   - overload shedding: a saturated server answers Busy and clients
//     retry through it,
//   - fallback-to-direct when the controller is unreachable,
//   - malformed frames get a typed Error reply and a closed connection
//     instead of a wedged or crashed handler,
//   - Report/Refresh idempotency under client retries,
//   - graceful drain force-closes idle connections on stop().
// This file also runs under ASan+UBSan in CI (tools/ci.sh).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/relay_option.h"
#include "flight_dump.h"
#include "rpc/client.h"
#include "rpc/errors.h"
#include "rpc/faulty_connection.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/soak_driver.h"
#include "rpc/socket.h"

VIA_REGISTER_FLIGHT_DUMP("test_chaos");

namespace via {
namespace {

/// Counts interactions; optionally stalls in choose() to hold requests
/// inflight (overload and timeout tests).
class CountingPolicy final : public RoutingPolicy {
 public:
  explicit CountingPolicy(OptionId option = 1, int choose_delay_ms = 0)
      : option_(option), choose_delay_ms_(choose_delay_ms) {}
  [[nodiscard]] OptionId choose(const CallContext&) override {
    if (choose_delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(choose_delay_ms_));
    }
    ++chosen;
    return option_;
  }
  void observe(const Observation&) override { ++observed; }
  void refresh(TimeSec now) override {
    ++refreshed;
    last_refresh = now;
  }
  [[nodiscard]] std::string_view name() const override { return "counting"; }

  std::atomic<int> chosen{0}, observed{0}, refreshed{0};
  std::atomic<TimeSec> last_refresh{0};

 private:
  OptionId option_;
  int choose_delay_ms_;
};

ClientConfig resilient_client() {
  ClientConfig c;
  c.request_timeout_ms = 250;
  c.max_retries = 30;
  c.backoff_base_ms = 1;
  c.backoff_max_ms = 8;
  return c;
}

// ------------------------------------------------------- chaos integration

/// The §6f acceptance scenario: several clients push decisions + reports
/// through transports that deterministically drop, delay, truncate, and
/// reset frames.  Every request must eventually succeed and every distinct
/// observation must reach the policy exactly once.
TEST(Chaos, FaultyTransportLosesNoObservations) {
  CountingPolicy policy(1);
  ControllerServer server(policy);
  server.start();

  constexpr int kClients = 4;
  constexpr int kCallsEach = 25;
  std::atomic<int> decisions_ok{0};
  std::atomic<std::int64_t> faults_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FaultScheduleConfig chaos;
      chaos.seed = 0xC0FFEE + static_cast<std::uint64_t>(c);
      chaos.drop_prob = 0.12;
      chaos.delay_prob = 0.10;
      chaos.truncate_prob = 0.06;
      chaos.reset_prob = 0.06;
      chaos.delay_ms = 5;
      // Bounded chaos guarantees forward progress under any retry budget.
      chaos.max_faults = 12;
      FaultSchedule schedule(chaos);
      ControllerClient client(
          [&server, &schedule]() -> std::unique_ptr<TcpConnection> {
            return std::make_unique<FaultyConnection>(
                TcpConnection::connect_local(server.port()), &schedule);
          },
          resilient_client());
      for (int i = 0; i < kCallsEach; ++i) {
        DecisionRequest req;
        req.call_id = c * 1'000 + i;
        req.time = i;
        req.options = {0, 1};
        if (client.request_decision(req) == 1) ++decisions_ok;
        Observation obs;
        obs.id = req.call_id;
        obs.option = 1;
        obs.time = i;
        obs.perf = {100.0, 0.5, 2.0};
        client.report(obs);
      }
      client.shutdown();
      faults_total += schedule.faults_injected();
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  // Every decision answered, every distinct observation delivered exactly
  // once — retries may duplicate frames, the server's dedup eats them.
  EXPECT_EQ(decisions_ok.load(), kClients * kCallsEach);
  EXPECT_EQ(policy.observed.load(), kClients * kCallsEach);
  EXPECT_EQ(server.reports_received(), kClients * kCallsEach);
  // The run actually exercised the fault machinery.
  EXPECT_GT(faults_total.load(), 0);
}

// ---------------------------------------------------------------- overload

TEST(Chaos, OverloadedServerShedsWithBusyAndClientsRetryThrough) {
  CountingPolicy policy(1, /*choose_delay_ms=*/10);
  ControllerServer server(policy, 0, {.max_inflight = 1});
  server.start();

  constexpr int kClients = 4;
  constexpr int kCallsEach = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig config = resilient_client();
      config.max_retries = 200;  // Busy storms need patience, not deadlines
      config.jitter_seed = static_cast<std::uint64_t>(c);
      ControllerClient client(server.port(), config);
      for (int i = 0; i < kCallsEach; ++i) {
        DecisionRequest req;
        req.call_id = c * 100 + i;
        req.options = {0, 1};
        if (client.request_decision(req) == 1) ++ok;
      }
      client.shutdown();
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  EXPECT_EQ(ok.load(), kClients * kCallsEach);
  EXPECT_EQ(policy.chosen.load(), kClients * kCallsEach);
  // With 4 clients against a 1-deep server, shedding must have fired.
  EXPECT_GT(server.busy_rejections(), 0);
}

// -------------------------------------------------------- fallback-to-direct

TEST(Chaos, UnreachableControllerFallsBackToDirect) {
  // Grab a port that refuses connections (listener bound, then destroyed).
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }
  ClientConfig config;
  config.request_timeout_ms = 100;
  config.max_retries = 1;
  config.backoff_base_ms = 1;
  config.fallback_direct = true;
  ControllerClient client(dead_port, config);

  obs::MetricsRegistry registry;
  client.attach_metrics(&registry);

  DecisionRequest req;
  req.call_id = 7;
  req.options = {0, 1, 2};
  EXPECT_EQ(client.request_decision(req), RelayOptionTable::direct_id());
  EXPECT_EQ(client.fallback_decisions(), 1);
  EXPECT_EQ(registry.counter("rpc.client.fallback_direct").value(), 1);
  EXPECT_GT(registry.counter("rpc.client.errors.reset").value(), 0);

  // Reports have no safe local fallback — they surface the typed error.
  Observation obs;
  obs.id = 7;
  try {
    client.report(obs);
    FAIL() << "report() should have thrown";
  } catch (const RpcError& e) {
    EXPECT_TRUE(e.kind() == RpcErrorKind::Reset || e.kind() == RpcErrorKind::Timeout)
        << rpc_error_kind_name(e.kind());
  }
}

TEST(Chaos, RequestDeadlineSurfacesTypedTimeout) {
  CountingPolicy policy(1, /*choose_delay_ms=*/400);
  ControllerServer server(policy);
  server.start();

  ClientConfig config;
  config.request_timeout_ms = 50;  // far shorter than the 400ms stall
  ControllerClient client(server.port(), config);
  DecisionRequest req;
  req.call_id = 1;
  req.options = {0, 1};
  try {
    (void)client.request_decision(req);
    FAIL() << "request_decision() should have timed out";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcErrorKind::Timeout);
  }
  server.stop();
}

// --------------------------------------------------------- malformed frames

TEST(Chaos, TruncatedPayloadGetsErrorReplyThenClose) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  TcpConnection conn = TcpConnection::connect_local(server.port());
  // A Report frame whose payload is far too short to decode.
  const std::array<std::byte, 2> junk{std::byte{0x01}, std::byte{0x02}};
  send_frame(conn, static_cast<std::uint8_t>(MsgType::Report), junk);

  Frame frame;
  ASSERT_TRUE(recv_frame(conn, frame));
  EXPECT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::Error));
  WireReader r(frame.payload);
  const ErrorMsg err = ErrorMsg::decode(r);
  EXPECT_EQ(err.request_type, static_cast<std::uint8_t>(MsgType::Report));
  EXPECT_FALSE(err.text.empty());
  // After the error reply the server closes the stream.
  EXPECT_FALSE(recv_frame(conn, frame));

  server.stop();
  EXPECT_EQ(server.protocol_errors(), 1);
  EXPECT_EQ(policy.observed.load(), 0);
}

TEST(Chaos, OversizedFrameHeaderIsRejectedNotAllocated) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  TcpConnection conn = TcpConnection::connect_local(server.port());
  // Hand-build a header claiming a payload far past kMaxPayload.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayload) + 1;
  std::array<std::byte, 5> header{};
  std::memcpy(header.data(), &huge, sizeof(huge));
  header[4] = std::byte{static_cast<unsigned char>(MsgType::DecisionRequest)};
  conn.send_all(header);

  Frame frame;
  ASSERT_TRUE(recv_frame(conn, frame));
  EXPECT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::Error));
  EXPECT_FALSE(recv_frame(conn, frame));
  server.stop();
  EXPECT_EQ(server.protocol_errors(), 1);
}

TEST(Chaos, UnknownMessageTypeGetsErrorReply) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  TcpConnection raw = TcpConnection::connect_local(server.port());
  WireWriter w;
  w.u64(123);
  send_frame(raw, 0xEE, w.bytes());
  Frame frame;
  ASSERT_TRUE(recv_frame(raw, frame));
  EXPECT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::Error));
  EXPECT_FALSE(recv_frame(raw, frame));
  server.stop();
  EXPECT_EQ(server.protocol_errors(), 1);
}

TEST(Chaos, ClientMapsServerErrorFrameToProtocolError) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  // Protocol errors are bugs, not outages: never retried, never masked by
  // fallback-to-direct.
  ClientConfig config;
  config.max_retries = 5;
  config.fallback_direct = true;
  ControllerClient client(server.port(), config);
  obs::MetricsRegistry registry;
  client.attach_metrics(&registry);

  DecisionRequest req;
  req.call_id = 99;
  // Over the server's decode sanity cap, but under the frame size limit —
  // the request arrives intact and is rejected by the message validator.
  req.options.assign(100'001, OptionId{0});
  try {
    (void)client.request_decision(req);
    FAIL() << "protocol error should propagate";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcErrorKind::Protocol);
  }
  EXPECT_EQ(registry.counter("rpc.client.errors.protocol").value(), 1);
  EXPECT_EQ(registry.counter("rpc.client.retries").value(), 0);
  server.stop();
  EXPECT_EQ(server.protocol_errors(), 1);
}

// ------------------------------------------------------------- idempotency

TEST(Chaos, DuplicateReportsAreAckedButObservedOnce) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  ControllerClient client(server.port());
  Observation obs;
  obs.id = 42;
  obs.option = 3;
  obs.time = 1'000;
  obs.perf = {120.0, 1.0, 4.0};
  client.report(obs);
  client.report(obs);  // a retry resend in disguise
  client.report(obs);
  client.shutdown();
  server.stop();

  EXPECT_EQ(policy.observed.load(), 1);
  EXPECT_EQ(server.reports_received(), 1);
  EXPECT_EQ(server.duplicate_reports(), 2);
}

TEST(Chaos, StaleRefreshTimestampsAreAckedWithoutRebuilding) {
  CountingPolicy policy;
  ControllerServer server(policy);
  server.start();

  ControllerClient client(server.port());
  client.refresh(1'000);
  client.refresh(1'000);  // duplicate
  client.refresh(500);    // stale
  client.refresh(2'000);  // genuinely new
  client.shutdown();
  server.stop();

  EXPECT_EQ(policy.refreshed.load(), 2);
  EXPECT_EQ(policy.last_refresh.load(), 2'000);
  EXPECT_EQ(server.duplicate_refreshes(), 2);
}

// ----------------------------------------------------------- graceful drain

TEST(Chaos, StopForceClosesIdleConnectionsAfterDrainTimeout) {
  CountingPolicy policy;
  ControllerServer server(policy, 0, {.drain_timeout_ms = 50});
  server.start();

  // An idle client that never sends and never disconnects.
  TcpConnection idle = TcpConnection::connect_local(server.port());
  // Let the reactor pick the connection up.
  for (int i = 0; i < 100 && server.active_handlers() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(server.active_handlers(), 0u);

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();  // must not hang on the idle connection
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_GE(
      server.telemetry().registry.counter("rpc.server.drain_forced_closes").value(), 1);
}

// ------------------------------------------------------- reactor mode (§6h)

ServerConfig reactor_chaos_config(int workers = 2) {
  ServerConfig config;
  config.reactor_threads = workers;
  return config;
}

/// The §6f acceptance scenario rerun against the epoll reactor: the
/// drop/delay/truncate/reset ladder now lands on non-blocking sockets with
/// partial reads and buffered writes, and must still lose nothing.
TEST(Chaos, ReactorFaultyTransportLosesNoObservations) {
  CountingPolicy policy(1);
  ControllerServer server(policy, 0, reactor_chaos_config());
  server.start();

  constexpr int kClients = 4;
  constexpr int kCallsEach = 25;
  std::atomic<int> decisions_ok{0};
  std::atomic<std::int64_t> faults_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FaultScheduleConfig chaos;
      chaos.seed = 0xBAD5EED + static_cast<std::uint64_t>(c);
      chaos.drop_prob = 0.12;
      chaos.delay_prob = 0.10;
      chaos.truncate_prob = 0.06;
      chaos.reset_prob = 0.06;
      chaos.delay_ms = 5;
      chaos.max_faults = 12;
      FaultSchedule schedule(chaos);
      ControllerClient client(
          [&server, &schedule]() -> std::unique_ptr<TcpConnection> {
            return std::make_unique<FaultyConnection>(
                TcpConnection::connect_local(server.port()), &schedule);
          },
          resilient_client());
      for (int i = 0; i < kCallsEach; ++i) {
        DecisionRequest req;
        req.call_id = c * 1'000 + i;
        req.time = i;
        req.options = {0, 1};
        if (client.request_decision(req) == 1) ++decisions_ok;
        Observation obs;
        obs.id = req.call_id;
        obs.option = 1;
        obs.time = i;
        obs.perf = {100.0, 0.5, 2.0};
        client.report(obs);
      }
      client.shutdown();
      faults_total += schedule.faults_injected();
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  EXPECT_EQ(decisions_ok.load(), kClients * kCallsEach);
  EXPECT_EQ(policy.observed.load(), kClients * kCallsEach);
  EXPECT_EQ(server.reports_received(), kClients * kCallsEach);
  EXPECT_GT(faults_total.load(), 0);
}

/// Acceptance (§6h): a reactor-mode run with >= 1000 concurrent
/// connections, every one sending a decision + a distinct report, with
/// zero lost observations.  Thread-per-connection could never hold this
/// many clients with a bounded thread count; the reactor serves them from
/// its fixed worker pool.
TEST(Chaos, ReactorThousandConnectionSoakLosesNoObservations) {
  CountingPolicy policy(1);
  ControllerServer server(policy, 0, reactor_chaos_config());
  server.start();

  constexpr int kConns = 1000;
  std::vector<TcpConnection> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(TcpConnection::connect_local(server.port()));
  }
  // All of them registered and held open at once.
  for (int i = 0; i < 2'000 && server.active_handlers() < kConns; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.active_handlers(), static_cast<std::size_t>(kConns));

  // Pipeline one decision + one report per connection before reading any
  // reply: 2000 requests outstanding across 1000 live sockets.
  for (int i = 0; i < kConns; ++i) {
    std::vector<std::byte> burst;
    {
      DecisionRequest req;
      req.call_id = i;
      req.options = {0, 1};
      WireWriter w;
      req.encode(w);
      const auto payload = w.bytes();
      const auto len = static_cast<std::uint32_t>(payload.size());
      for (int b = 0; b < 4; ++b) {
        burst.push_back(static_cast<std::byte>((len >> (8 * b)) & 0xFF));
      }
      burst.push_back(static_cast<std::byte>(MsgType::DecisionRequest));
      burst.insert(burst.end(), payload.begin(), payload.end());
    }
    {
      ReportMsg msg;
      msg.obs.id = i;
      msg.obs.option = 1;
      msg.obs.time = i;
      msg.obs.perf = {100.0, 0.5, 2.0};
      WireWriter w;
      msg.encode(w);
      const auto payload = w.bytes();
      const auto len = static_cast<std::uint32_t>(payload.size());
      for (int b = 0; b < 4; ++b) {
        burst.push_back(static_cast<std::byte>((len >> (8 * b)) & 0xFF));
      }
      burst.push_back(static_cast<std::byte>(MsgType::Report));
      burst.insert(burst.end(), payload.begin(), payload.end());
    }
    conns[static_cast<std::size_t>(i)].send_all(burst);
  }
  int decisions_ok = 0;
  int acks = 0;
  for (int i = 0; i < kConns; ++i) {
    Frame reply;
    ASSERT_TRUE(recv_frame(conns[static_cast<std::size_t>(i)], reply));
    if (reply.type == static_cast<std::uint8_t>(MsgType::DecisionResponse)) ++decisions_ok;
    ASSERT_TRUE(recv_frame(conns[static_cast<std::size_t>(i)], reply));
    if (reply.type == static_cast<std::uint8_t>(MsgType::ReportAck)) ++acks;
  }
  for (auto& conn : conns) conn.close();
  server.stop();

  EXPECT_EQ(decisions_ok, kConns);
  EXPECT_EQ(acks, kConns);
  EXPECT_EQ(policy.observed.load(), kConns);   // zero lost observations
  EXPECT_EQ(server.reports_received(), kConns);
  EXPECT_EQ(server.decisions_served(), kConns);
  EXPECT_EQ(server.active_handlers(), 0u);
}

// ------------------------------------------------ 10k-connection soak (§6j)

/// Acceptance (§6j): a 10,000-connection pipelined soak against the
/// reactor.  The client half runs in a child process (two
/// processes' worth of fd budget — neither side can hold all 20k sockets
/// alone), reports mode, every observation id distinct.  The server must
/// deliver every observation to the policy exactly once (zero lost),
/// keep every connection's write queue under the configured cap, and
/// drain cleanly at stop() — no forced closes.
TEST(Chaos, TenThousandConnectionSoakLosesNoObservations) {
  // The server side alone holds ~10k sockets; lift the soft fd limit to
  // the hard cap before accepting the storm.
  raise_fd_limit();
  CountingPolicy policy(1);
  ServerConfig cfg;
  cfg.reactor_threads = 2;
  ControllerServer server(policy, 0, cfg);
  server.start();

  SoakConfig soak;
  soak.port = server.port();
  soak.connections = 10'000;
  soak.rounds = 2;
  soak.depth = 4;
  soak.threads = 8;
  soak.reports = true;
  std::string spawn_error;
  const auto result = spawn_soak(soak, &spawn_error);
  ASSERT_TRUE(result.has_value()) << spawn_error;
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->connected, soak.connections);
  const auto expected =
      static_cast<std::int64_t>(soak.connections) * soak.rounds * soak.depth;
  EXPECT_EQ(result->sent, expected);
  EXPECT_EQ(result->received, expected);
  EXPECT_EQ(result->mismatched, 0);

  // Zero lost observations: every distinct report reached the policy.
  EXPECT_EQ(policy.observed.load(), expected);
  EXPECT_EQ(server.reports_received(), static_cast<std::size_t>(expected));

  // Bounded write queues: no connection ever held more than the cap (plus
  // one decode batch of slack) in unsent replies.
  EXPECT_LE(server.peak_conn_queued_bytes(), cfg.write_buffer_cap + 4096);

  // Clean drain: the client closed every socket; once the reactor reaps
  // the FINs, stop() must not need to force anything.
  for (int i = 0; i < 10'000 && server.active_handlers() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.active_handlers(), 0u);
  server.stop();
  EXPECT_EQ(
      server.telemetry().registry.counter("rpc.server.drain_forced_closes").value(), 0);
}

// ------------------------------------- fault injection under partial writes

/// FaultyConnection must fault whole frames even when the sender hands
/// bytes over in arbitrary chunks (a non-blocking peer flushing a
/// WriteBuffer).  A drop-only schedule delivered in 3-byte chunks must
/// land exactly the frames a replica schedule says survive.
TEST(Chaos, FaultyConnectionFaultsPerFrameUnderChunkedSends) {
  TcpListener listener(0);
  FaultScheduleConfig chaos;
  chaos.seed = 0x5EED5;
  chaos.drop_prob = 0.4;
  FaultSchedule schedule(chaos);
  FaultSchedule replica(chaos);  // same seed => same per-frame actions

  constexpr int kFrames = 32;
  // Filled by the receiver thread; read only after join().
  std::vector<std::uint32_t> received;
  std::thread receiver([&] {
    TcpConnection conn = listener.accept();
    Frame frame;
    while (recv_frame(conn, frame)) {
      WireReader r(frame.payload);
      received.push_back(r.u32());
    }
  });

  FaultyConnection conn(TcpConnection::connect_local(listener.port()), &schedule);
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < kFrames; ++i) {
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    // Serialize the full frame, then dribble it out in 3-byte chunks: the
    // injector has to reassemble the header and hold one action per frame.
    std::vector<std::byte> wire;
    const auto payload = w.bytes();
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int b = 0; b < 4; ++b) {
      wire.push_back(static_cast<std::byte>((len >> (8 * b)) & 0xFF));
    }
    wire.push_back(std::byte{42});
    wire.insert(wire.end(), payload.begin(), payload.end());
    for (std::size_t off = 0; off < wire.size(); off += 3) {
      const std::size_t n = std::min<std::size_t>(3, wire.size() - off);
      conn.send_all(std::span<const std::byte>(wire).subspan(off, n));
    }
    if (replica.next_action() == FaultAction::Pass) {
      expected.push_back(static_cast<std::uint32_t>(i));
    }
  }
  conn.close();
  receiver.join();
  EXPECT_EQ(received, expected);
  EXPECT_GT(schedule.faults_injected(), 0);
}

TEST(Chaos, FaultyConnectionTruncatesChunkedFrameAtHalf) {
  TcpListener listener(0);
  FaultScheduleConfig chaos;
  chaos.truncate_prob = 1.0;
  FaultSchedule schedule(chaos);

  std::atomic<std::size_t> peer_bytes{0};
  std::thread receiver([&] {
    TcpConnection conn = listener.accept();
    std::array<std::byte, 256> buf{};
    Frame frame;
    // The receiver sees a mid-frame EOF (recv_frame throws), having read
    // only the truncated prefix.
    try {
      (void)recv_frame(conn, frame);
    } catch (const std::exception&) {
    }
    (void)buf;
  });

  FaultyConnection conn(TcpConnection::connect_local(listener.port()), &schedule);
  WireWriter w;
  w.u64(0xAABBCCDDEEFF0011ULL);
  std::vector<std::byte> wire;
  const auto payload = w.bytes();
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) {
    wire.push_back(static_cast<std::byte>((len >> (8 * b)) & 0xFF));
  }
  wire.push_back(std::byte{42});
  wire.insert(wire.end(), payload.begin(), payload.end());
  bool threw = false;
  try {
    // Byte-at-a-time: the cut must land at frame_size/2 regardless of
    // chunking, and surface as one injected-truncation reset.
    for (const std::byte b : wire) {
      conn.send_all(std::span<const std::byte>(&b, 1));
    }
  } catch (const RpcError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), RpcErrorKind::Reset);
  }
  EXPECT_TRUE(threw);
  receiver.join();
  (void)peer_bytes;
}

TEST(Chaos, FaultyConnectionResetsChunkedFrameAtHeader) {
  TcpListener listener(0);
  FaultScheduleConfig chaos;
  chaos.reset_prob = 1.0;
  FaultSchedule schedule(chaos);

  std::thread receiver([&] {
    TcpConnection conn = listener.accept();
    Frame frame;
    try {
      (void)recv_frame(conn, frame);
    } catch (const std::exception&) {
    }
  });

  FaultyConnection conn(TcpConnection::connect_local(listener.port()), &schedule);
  const std::array<std::byte, 5> header{std::byte{4}, std::byte{0}, std::byte{0},
                                        std::byte{0}, std::byte{42}};
  bool threw = false;
  try {
    // The reset fires the moment the header completes — exactly where the
    // legacy whole-frame injector drew its action.
    conn.send_all(std::span<const std::byte>(header).first(2));
    conn.send_all(std::span<const std::byte>(header).subspan(2));
  } catch (const RpcError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), RpcErrorKind::Reset);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(schedule.faults_injected(), 1);
  receiver.join();
}

}  // namespace
}  // namespace via
