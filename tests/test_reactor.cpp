// Event-driven serving tests (DESIGN.md §6h/§6j): the epoll reactor must
// keep every protocol behavior — round trips, shedding, client deadlines,
// protocol-error replies, graceful drain — while adding pipelined frame
// batching through RoutingPolicy::choose_batch.  The backend-parameterized
// suite at the bottom runs protocol, backpressure, and pinning behaviors
// against both event-driven backends (epoll and io_uring); uring cases
// SKIP explicitly on kernels without io_uring.
// This file also runs under TSan in CI (tools/ci.sh): the hammer test
// drives all reactor workers concurrently.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/via_policy.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/errors.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/socket.h"
#include "rpc/uring_reactor.h"

namespace via {
namespace {

/// Deterministic per-call policy: pick options[call_id % options.size()],
/// so pipelined and sequential serving are directly comparable.
class ModuloPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] OptionId choose(const CallContext& call) override {
    ++chosen;
    if (call.options.empty()) return 0;
    return call.options[static_cast<std::size_t>(call.id) % call.options.size()];
  }
  void observe(const Observation&) override { ++observed; }
  void refresh(TimeSec) override { ++refreshed; }
  [[nodiscard]] std::string_view name() const override { return "modulo"; }

  std::atomic<int> chosen{0}, observed{0}, refreshed{0};
};

/// Stalls in choose() so client-side deadlines fire under the reactor.
class SlowPolicy final : public RoutingPolicy {
 public:
  explicit SlowPolicy(int delay_ms) : delay_ms_(delay_ms) {}
  [[nodiscard]] OptionId choose(const CallContext&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return 1;
  }
  void observe(const Observation&) override {}
  void refresh(TimeSec) override {}
  [[nodiscard]] std::string_view name() const override { return "slow"; }

 private:
  int delay_ms_;
};

ServerConfig reactor_config(int workers = 2) {
  ServerConfig config;
  config.reactor_threads = workers;
  return config;
}

/// Serializes a whole frame (header + type + payload) into `out`, so a
/// test can hand the server many frames in a single send_all — the burst
/// arrives within one readiness event and exercises the batch path.
void append_frame(std::vector<std::byte>& out, MsgType type, const WireWriter& w) {
  const auto payload = w.bytes();
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  }
  out.push_back(static_cast<std::byte>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::byte> encode_decision_burst(int count, int id_base) {
  std::vector<std::byte> burst;
  for (int i = 0; i < count; ++i) {
    DecisionRequest req;
    req.call_id = id_base + i;
    req.time = i;
    req.src_as = 1;
    req.dst_as = 2;
    req.options = {0, 1, 2};
    WireWriter w;
    req.encode(w);
    append_frame(burst, MsgType::DecisionRequest, w);
  }
  return burst;
}

[[nodiscard]] std::int64_t counter_value(ControllerServer& server, const std::string& name) {
  return server.telemetry().registry.snapshot().counter_value(name);
}

// --------------------------------------------------------- basic protocol

TEST(Reactor, DecisionReportRefreshRoundTrip) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();

  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 7;
  req.options = {0, 5, 9};
  EXPECT_EQ(client.request_decision(req), 5);  // 7 % 3 == 1 -> options[1]

  Observation obs;
  obs.id = 7;
  obs.option = 5;
  obs.perf = {120.0, 0.5, 3.0};
  client.report(obs);
  EXPECT_EQ(policy.observed.load(), 1);

  client.refresh(kSecondsPerDay);
  EXPECT_EQ(policy.refreshed.load(), 1);

  const std::string stats = client.get_stats(obs::StatsFormat::Json);
  EXPECT_NE(stats.find("\"rpc.server.decisions\":1"), std::string::npos);

  client.shutdown();
  server.stop();
  EXPECT_EQ(server.decisions_served(), 1);
  EXPECT_EQ(server.reports_received(), 1);
}

TEST(Reactor, ManyConcurrentClients) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config(3));
  server.start();

  constexpr int kClients = 8;
  constexpr int kCallsEach = 50;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ControllerClient client(server.port());
      for (int i = 0; i < kCallsEach; ++i) {
        DecisionRequest req;
        req.call_id = c * 1000 + i;
        req.options = {3};
        if (client.request_decision(req) == 3) ++ok;
        Observation obs;
        obs.id = req.call_id;
        obs.option = 3;
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
  EXPECT_EQ(server.decisions_served(), kClients * kCallsEach);
}

// ------------------------------------------------------- pipelined batches

TEST(Reactor, PipelinedDecisionsAnswerInOrder) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();

  constexpr int kFrames = 24;
  TcpConnection conn = TcpConnection::connect_local(server.port());
  conn.send_all(encode_decision_burst(kFrames, 100));

  for (int i = 0; i < kFrames; ++i) {
    Frame reply;
    ASSERT_TRUE(recv_frame(conn, reply));
    ASSERT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::DecisionResponse));
    WireReader r(reply.payload);
    const DecisionResponse resp = DecisionResponse::decode(r);
    // Replies come back in request order with the per-call modulo pick:
    // exactly what the sequential path would have produced.
    EXPECT_EQ(resp.call_id, 100 + i);
    EXPECT_EQ(resp.option, static_cast<OptionId>((100 + i) % 3));
  }
  conn.close();  // let stop() drain instead of waiting out the timeout
  server.stop();
  EXPECT_EQ(server.decisions_served(), kFrames);
}

TEST(Reactor, PipelinedMixedFramesAnswerInOrder) {
  // Decisions interleaved with reports: batching must respect frame order
  // across run boundaries (decision run, report, decision run...).
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();

  std::vector<std::byte> burst;
  std::vector<MsgType> expected;
  for (int i = 0; i < 12; ++i) {
    if (i % 4 == 3) {
      ReportMsg msg;
      msg.obs.id = i;
      msg.obs.option = 1;
      msg.obs.perf = {100.0, 0.5, 2.0};
      WireWriter w;
      msg.encode(w);
      append_frame(burst, MsgType::Report, w);
      expected.push_back(MsgType::ReportAck);
    } else {
      DecisionRequest req;
      req.call_id = i;
      req.options = {0, 1};
      WireWriter w;
      req.encode(w);
      append_frame(burst, MsgType::DecisionRequest, w);
      expected.push_back(MsgType::DecisionResponse);
    }
  }
  TcpConnection conn = TcpConnection::connect_local(server.port());
  conn.send_all(burst);
  for (const MsgType want : expected) {
    Frame reply;
    ASSERT_TRUE(recv_frame(conn, reply));
    EXPECT_EQ(reply.type, static_cast<std::uint8_t>(want));
  }
  conn.close();
  server.stop();
  EXPECT_EQ(policy.observed.load(), 3);
}

// ------------------------------------------------------------- shedding

TEST(Reactor, BurstSheddingPreserved) {
  // A pipelined burst decoded from one readiness event must be visible to
  // the inflight cap before any of it is served: some frames get Busy.
  ModuloPolicy policy;
  ServerConfig config = reactor_config();
  config.max_inflight = 2;
  ControllerServer server(policy, 0, config);
  server.start();

  constexpr int kFrames = 128;
  int busy = 0;
  int served = 0;
  // TCP may split a burst across readiness events; retry until a burst
  // lands densely enough to trip the cap (the first almost always does).
  for (int attempt = 0; attempt < 5 && busy == 0; ++attempt) {
    TcpConnection conn = TcpConnection::connect_local(server.port());
    conn.send_all(encode_decision_burst(kFrames, attempt * kFrames));
    for (int i = 0; i < kFrames; ++i) {
      Frame reply;
      ASSERT_TRUE(recv_frame(conn, reply));
      if (reply.type == static_cast<std::uint8_t>(MsgType::Busy)) {
        ++busy;
      } else {
        ASSERT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::DecisionResponse));
        ++served;
      }
    }
  }
  EXPECT_GE(busy, 1);
  EXPECT_EQ(server.busy_rejections(), busy);

  // A polite client (one request at a time) is never shed at this cap.
  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 9999;
  req.options = {0};
  EXPECT_EQ(client.request_decision(req), 0);
  client.shutdown();
  server.stop();
}

TEST(Reactor, ClientDeadlinePreserved) {
  // The client's poll-based response deadline and fallback ladder work
  // unchanged against a reactor server whose policy stalls.
  SlowPolicy policy(400);
  ServerConfig config = reactor_config();
  config.drain_timeout_ms = 200;  // stop() quickly despite the stall
  ControllerServer server(policy, 0, config);
  server.start();

  ClientConfig cc;
  cc.request_timeout_ms = 50;
  cc.max_retries = 1;
  cc.backoff_base_ms = 1;
  cc.backoff_max_ms = 2;
  cc.fallback_direct = true;
  ControllerClient client(server.port(), cc);
  DecisionRequest req;
  req.call_id = 1;
  req.options = {0, 1};
  // Every attempt times out, so the deadline ladder ends in the direct
  // fallback — never a hang.
  EXPECT_EQ(client.request_decision(req), RelayOptionTable::direct_id());
  EXPECT_GE(client.retries(), 1);
  server.stop();
}

// ------------------------------------------------------ errors and drain

TEST(Reactor, OversizedFrameGetsErrorAndClose) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();

  TcpConnection conn = TcpConnection::connect_local(server.port());
  // Header declaring a payload over kMaxPayload: decode-level violation.
  const std::uint32_t len = kMaxPayload + 1;
  std::vector<std::byte> bad;
  for (int i = 0; i < 4; ++i) bad.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  bad.push_back(static_cast<std::byte>(MsgType::DecisionRequest));
  conn.send_all(bad);

  Frame reply;
  ASSERT_TRUE(recv_frame(conn, reply));
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::Error));
  EXPECT_FALSE(recv_frame(conn, reply));  // server closed the connection
  EXPECT_GE(server.protocol_errors(), 1);

  // The reactor keeps serving other clients afterwards.
  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 3;
  req.options = {0};
  EXPECT_EQ(client.request_decision(req), 0);
  client.shutdown();
  server.stop();
}

TEST(Reactor, UnknownTypeGetsErrorAndClose) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();

  TcpConnection conn = TcpConnection::connect_local(server.port());
  send_frame(conn, 0x7F, {});
  Frame reply;
  ASSERT_TRUE(recv_frame(conn, reply));
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::Error));
  EXPECT_FALSE(recv_frame(conn, reply));
  server.stop();
  EXPECT_GE(server.protocol_errors(), 1);
}

TEST(Reactor, GracefulDrainClosesCleanly) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();
  {
    ControllerClient client(server.port());
    DecisionRequest req;
    req.call_id = 1;
    req.options = {0};
    EXPECT_EQ(client.request_decision(req), 0);
    client.shutdown();
  }
  server.stop();
  EXPECT_EQ(counter_value(server, "rpc.server.drain_forced_closes"), 0);
}

TEST(Reactor, DrainForceClosesStragglers) {
  ModuloPolicy policy;
  ServerConfig config = reactor_config();
  config.drain_timeout_ms = 100;
  ControllerServer server(policy, 0, config);
  server.start();

  // Two clients that connect (one transacts) and then sit on the line.
  TcpConnection idle1 = TcpConnection::connect_local(server.port());
  TcpConnection idle2 = TcpConnection::connect_local(server.port());
  idle1.send_all(encode_decision_burst(1, 1));
  Frame reply;
  ASSERT_TRUE(recv_frame(idle1, reply));
  // idle2 may still be in the accept handoff; stop() is only obliged to
  // force-close connections the reactor already owns.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_handlers() != 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.stop();  // must return despite the open connections
  EXPECT_GE(counter_value(server, "rpc.server.drain_forced_closes"), 2);
  EXPECT_EQ(server.active_handlers(), 0u);
}

TEST(Reactor, ActiveConnectionsTracked) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();

  auto wait_for_count = [&](std::size_t want) {
    for (int i = 0; i < 200 && server.active_handlers() != want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return server.active_handlers();
  };

  {
    TcpConnection a = TcpConnection::connect_local(server.port());
    TcpConnection b = TcpConnection::connect_local(server.port());
    TcpConnection c = TcpConnection::connect_local(server.port());
    EXPECT_EQ(wait_for_count(3), 3u);
  }
  EXPECT_EQ(wait_for_count(0), 0u);
  server.stop();
}

TEST(Reactor, StopIsIdempotentAndRestartless) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config());
  server.start();
  server.stop();
  server.stop();  // second stop must be harmless
}

// ----------------------------------------------------------- TSan hammer

TEST(Reactor, ConcurrentHammer) {
  // All reactor workers live at once: per-client sequential traffic plus
  // raw pipelined bursts (the choose_batch path) plus periodic refreshes
  // and stats queries.  Run under TSan in CI.
  ModuloPolicy policy;
  ControllerServer server(policy, 0, reactor_config(4));
  server.start();

  constexpr int kClients = 6;
  constexpr int kCallsEach = 120;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients + 2);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ControllerClient client(server.port());
      for (int i = 0; i < kCallsEach; ++i) {
        DecisionRequest req;
        req.call_id = c * 10'000 + i;
        req.options = {0, 1, 2};
        const OptionId pick = client.request_decision(req);
        if (pick == static_cast<OptionId>(req.call_id % 3)) ++ok;
        Observation obs;
        obs.id = req.call_id;
        obs.option = pick;
        obs.perf = {100.0, 0.5, 2.0};
        client.report(obs);
        if (i % 40 == 0) (void)client.get_stats(obs::StatsFormat::Json);
      }
      client.shutdown();
    });
  }
  // Two pipelining connections keep the batch path hot in parallel.
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int round = 0; round < 6; ++round) {
        TcpConnection conn = TcpConnection::connect_local(server.port());
        constexpr int kBurst = 32;
        conn.send_all(encode_decision_burst(kBurst, 1'000'000 + p * 100'000 + round * kBurst));
        for (int i = 0; i < kBurst; ++i) {
          Frame reply;
          ASSERT_TRUE(recv_frame(conn, reply));
          ASSERT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::DecisionResponse));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kCallsEach);
  EXPECT_EQ(policy.observed.load(), kClients * kCallsEach);
  server.stop();
  EXPECT_EQ(server.decisions_served(),
            static_cast<std::int64_t>(kClients) * kCallsEach + 2 * 6 * 32);
}

// --------------------------------------------- choose_batch parity (core)

TEST(Reactor, ViaPolicyChooseBatchMatchesSequential) {
  // The batched decision path pins one model snapshot for a whole run;
  // decisions (including exploration RNG draws) must match the sequential
  // path bit for bit.
  RelayOptionTable options_a;
  RelayOptionTable options_b;
  const OptionId bounce_a = options_a.intern_bounce(0);
  (void)options_b.intern_bounce(0);
  (void)options_a.intern_bounce(1);
  (void)options_b.intern_bounce(1);
  ViaConfig config;
  config.epsilon = 0.2;  // exercise exploration RNG ordering too
  auto backbone = [](RelayId, RelayId) { return PathPerformance{}; };
  ViaPolicy sequential(options_a, backbone, config);
  ViaPolicy batched(options_b, backbone, config);

  const std::vector<OptionId> candidates = {RelayOptionTable::direct_id(), bounce_a,
                                            bounce_a + 1};
  for (int i = 0; i < 16; ++i) {
    Observation o;
    o.src_as = 1;
    o.dst_as = 2;
    o.option = candidates[static_cast<std::size_t>(i) % candidates.size()];
    o.perf = {100.0 + i, 0.5, 3.0};
    sequential.observe(o);
    batched.observe(o);
  }
  sequential.refresh(kSecondsPerDay);
  batched.refresh(kSecondsPerDay);

  constexpr std::size_t kCalls = 64;
  std::vector<CallContext> ctxs(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    ctxs[i].id = static_cast<CallId>(i + 1);
    ctxs[i].time = static_cast<TimeSec>(i);
    ctxs[i].src_as = 1;
    ctxs[i].dst_as = 2;
    ctxs[i].key_src = 1;
    ctxs[i].key_dst = 2;
    ctxs[i].options = candidates;
  }
  std::vector<OptionId> expect(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) expect[i] = sequential.choose(ctxs[i]);
  std::vector<OptionId> got(kCalls);
  batched.choose_batch(ctxs, got);
  EXPECT_EQ(got, expect);
}

// ------------------------------------------- backend-parameterized (§6j)

/// Runs a case against both event-driven backends.  The io_uring variant
/// SKIPs explicitly (never silently passes) when the kernel can't run it.
class BackendReactor : public ::testing::TestWithParam<ServingBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == ServingBackend::kUring && !UringReactor::supported()) {
      GTEST_SKIP() << "io_uring unsupported on this kernel";
    }
  }

  [[nodiscard]] ServerConfig config(int workers = 2) const {
    ServerConfig c;
    c.backend = GetParam();
    c.reactor_threads = workers;
    return c;
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, BackendReactor,
                         ::testing::Values(ServingBackend::kEpoll, ServingBackend::kUring),
                         [](const auto& info) {
                           return std::string(serving_backend_name(info.param));
                         });

TEST_P(BackendReactor, ActiveBackendMatchesRequest) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, config());
  server.start();
  EXPECT_EQ(server.serving_backend(), GetParam());
  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 4;
  req.options = {0, 1};
  EXPECT_EQ(client.request_decision(req), 0);  // 4 % 2
  client.shutdown();
  server.stop();
}

TEST_P(BackendReactor, PipelinedBurstAnswersInOrder) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, config());
  server.start();

  constexpr int kFrames = 64;
  TcpConnection conn = TcpConnection::connect_local(server.port());
  conn.send_all(encode_decision_burst(kFrames, 500));
  for (int i = 0; i < kFrames; ++i) {
    Frame reply;
    ASSERT_TRUE(recv_frame(conn, reply));
    ASSERT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::DecisionResponse));
    WireReader r(reply.payload);
    const DecisionResponse resp = DecisionResponse::decode(r);
    EXPECT_EQ(resp.call_id, 500 + i);
    EXPECT_EQ(resp.option, static_cast<OptionId>((500 + i) % 3));
  }
  conn.close();
  server.stop();
  EXPECT_EQ(server.decisions_served(), kFrames);
}

TEST_P(BackendReactor, ProtocolErrorRepliesAndCloses) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, config());
  server.start();

  TcpConnection conn = TcpConnection::connect_local(server.port());
  send_frame(conn, 0x7F, {});
  Frame reply;
  ASSERT_TRUE(recv_frame(conn, reply));
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::Error));
  EXPECT_FALSE(recv_frame(conn, reply));
  server.stop();
  EXPECT_GE(server.protocol_errors(), 1);
}

TEST_P(BackendReactor, BackpressurePauseResumeRoundTrip) {
  // A pipelined flood whose replies outrun the (unread) socket must pause
  // the connection at the write cap, stop reading, then resume and serve
  // every frame in order once the client finally drains.
  ModuloPolicy policy;
  ServerConfig cfg = config();
  cfg.write_buffer_cap = 128 * 1024;
  ControllerServer server(policy, 0, cfg);
  server.start();

  // ~5 MB of replies: more than sndbuf autotuning (4 MB ceiling) plus the
  // client's receive window can absorb, so the write queue must reach the
  // cap and stay parked there until we start reading.
  constexpr int kFrames = 300'000;
  TcpConnection conn = TcpConnection::connect_local(server.port());
  conn.set_recv_timeout_ms(30'000);
  // The sender must be a separate thread: once the server pauses the
  // connection it stops reading, so a large enough burst blocks send_all
  // until this thread starts consuming replies.
  std::thread sender([&] { conn.send_all(encode_decision_burst(kFrames, 0)); });

  // With the client not reading, the reply flood must reach a stable
  // paused state: the connection parked at the cap with the socket full.
  bool paused = false;
  for (int i = 0; i < 2000 && !paused; ++i) {
    paused = server.backpressure_paused_conns() == 1 &&
             server.backpressure_queued_bytes() >= cfg.write_buffer_cap / 2;
    if (!paused) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(paused);
  EXPECT_GE(server.backpressure_pauses_total(), 1u);

  for (int i = 0; i < kFrames; ++i) {
    Frame reply;
    ASSERT_TRUE(recv_frame(conn, reply));
    ASSERT_EQ(reply.type, static_cast<std::uint8_t>(MsgType::DecisionResponse));
    WireReader r(reply.payload);
    EXPECT_EQ(DecisionResponse::decode(r).call_id, i);
  }
  sender.join();

  // Fully drained: the gauge returns to zero and the peak stayed bounded
  // by the cap plus one in-flight reply batch.
  for (int i = 0; i < 2000 && server.backpressure_paused_conns() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.backpressure_paused_conns(), 0u);
  EXPECT_LE(server.peak_conn_queued_bytes(), cfg.write_buffer_cap + 4096);
  conn.close();
  server.stop();
  EXPECT_EQ(server.decisions_served(), kFrames);
}

TEST_P(BackendReactor, DrainedWhileAggregateHighResumesViaSweep) {
  // Regression: a connection that pauses while its socket still holds
  // bytes gets no sweep-list entry at pause time.  If its socket then
  // fully drains while the worker aggregate is still above low water, the
  // final EPOLLOUT / send CQE must park it on the sweep list — otherwise
  // it has zero event interest, sits on no list, and is stranded paused
  // forever even after the aggregate drains.
  ModuloPolicy policy;
  ServerConfig cfg = config(1);  // one worker: both connections share an aggregate
  cfg.write_buffer_cap = 128 * 1024;
  cfg.worker_write_cap = 192 * 1024;
  ControllerServer server(policy, 0, cfg);
  server.start();

  // ~5 MB of replies per connection: more than socket buffering absorbs,
  // so both write queues climb until backpressure pauses both connections
  // with their sockets full (= no sweep-list entry at pause time).
  constexpr int kFrames = 300'000;
  TcpConnection conn_hold = TcpConnection::connect_local(server.port());
  TcpConnection conn_victim = TcpConnection::connect_local(server.port());
  conn_hold.set_recv_timeout_ms(30'000);
  conn_victim.set_recv_timeout_ms(30'000);

  // Flood the holdout first so it deterministically parks at its
  // per-connection cap (128 KB — above the 96 KB aggregate low-water
  // mark) before the victim starts; the victim then pauses on the
  // aggregate cap with its socket full.
  auto send_flood = [](TcpConnection& conn) {
    try {
      conn.send_all(encode_decision_burst(kFrames, 0));
    } catch (const std::exception&) {
      // Only on the failure path: the teardown shutdown() below resets a
      // sender left blocked on a stranded connection.
    }
  };
  // A skip, not a failure, when the floods never pause: under sanitizer
  // slowdowns socket autotuning can absorb the whole burst, and the test
  // cannot reach the stranding window it exists to pin.  Joins first so
  // the early return never destroys a joinable thread.
  auto bail = [&](std::vector<std::thread*> senders, const char* what) {
    (void)::shutdown(conn_hold.fd(), SHUT_RDWR);
    (void)::shutdown(conn_victim.fd(), SHUT_RDWR);
    for (std::thread* t : senders) t->join();
    server.stop();
    return what;
  };

  std::thread send_hold([&] { send_flood(conn_hold); });
  bool hold_paused = false;
  for (int i = 0; i < 4000 && !hold_paused; ++i) {
    hold_paused = server.backpressure_paused_conns() == 1 &&
                  server.backpressure_queued_bytes() >= cfg.write_buffer_cap;
    if (!hold_paused) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!hold_paused) {
    GTEST_SKIP() << bail({&send_hold}, "holdout never paused at its write cap");
  }

  std::thread send_victim([&] { send_flood(conn_victim); });
  bool both_paused = false;
  for (int i = 0; i < 4000 && !both_paused; ++i) {
    both_paused = server.backpressure_paused_conns() == 2;
    if (!both_paused) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!both_paused) {
    GTEST_SKIP() << bail({&send_hold, &send_victim}, "victim never paused on the aggregate cap");
  }

  // Drain the victim only.  Its server-side queue empties while the
  // holdout still parks >= worker_write_cap/2 bytes, so the victim cannot
  // resume yet — this is exactly the stranding window.
  auto reader = [](TcpConnection& conn, int want) {
    int got = 0;
    try {
      Frame reply;
      while (got < want && recv_frame(conn, reply)) {
        if (reply.type != static_cast<std::uint8_t>(MsgType::DecisionResponse)) break;
        ++got;
      }
    } catch (const std::exception&) {
      // Timeout or reset: `got` stalls and the EXPECT below reports it.
    }
    return got;
  };
  int victim_got = 0;
  std::thread read_victim([&] { victim_got = reader(conn_victim, kFrames); });

  // Wait until only the holdout's parked bytes remain queued (the victim
  // has fully drained server-side) while both are still paused.
  bool victim_drained = false;
  for (int i = 0; i < 4000 && !victim_drained; ++i) {
    victim_drained = server.backpressure_paused_conns() == 2 &&
                     server.backpressure_queued_bytes() <= cfg.write_buffer_cap + 32 * 1024;
    if (!victim_drained) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(victim_drained);

  // Now drain the holdout.  The aggregate falls under low water and the
  // sweep must revive the victim: every reply on both connections lands.
  int hold_got = 0;
  std::thread read_hold([&] { hold_got = reader(conn_hold, kFrames); });
  read_hold.join();
  read_victim.join();
  EXPECT_EQ(hold_got, kFrames);
  EXPECT_EQ(victim_got, kFrames);
  if (hold_got < kFrames || victim_got < kFrames) {
    // A stranded connection leaves its sender blocked in send_all forever
    // (the server never reads again); reset both streams so the joins
    // below cannot hang the suite.
    (void)::shutdown(conn_hold.fd(), SHUT_RDWR);
    (void)::shutdown(conn_victim.fd(), SHUT_RDWR);
  }
  send_hold.join();
  send_victim.join();

  for (int i = 0; i < 2000 && server.backpressure_paused_conns() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.backpressure_paused_conns(), 0u);
  conn_hold.close();
  conn_victim.close();
  server.stop();
  EXPECT_EQ(server.decisions_served(), 2 * kFrames);
}

TEST_P(BackendReactor, ForcedCloseWithPendingWrites) {
  // stop() during a pause: the connection still holds queued replies and
  // undispatched frames.  The drain timeout must force it shut without
  // leaking the inflight accounting or wedging stop().
  ModuloPolicy policy;
  ServerConfig cfg = config();
  cfg.write_buffer_cap = 4 * 1024;
  cfg.drain_timeout_ms = 200;
  ControllerServer server(policy, 0, cfg);
  server.start();

  constexpr int kFrames = 50'000;
  TcpConnection conn = TcpConnection::connect_local(server.port());
  std::thread sender([&] {
    try {
      conn.send_all(encode_decision_burst(kFrames, 0));
    } catch (const std::exception&) {
      // Expected: the forced close resets the stream mid-send.
    }
  });
  for (int i = 0; i < 2000 && server.backpressure_pauses_total() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.backpressure_pauses_total(), 1u);

  server.stop();  // must return despite the paused, reply-laden connection
  EXPECT_GE(counter_value(server, "rpc.server.drain_forced_closes"), 1);
  EXPECT_EQ(server.active_handlers(), 0u);
  // The forced close resets the stream, so the sender's send_all fails and
  // returns; only then is the client fd safe to close.
  sender.join();
  conn.close();
}

TEST_P(BackendReactor, FrameSlotReuseAcrossVaryingFramesAndBackpressure) {
  // A connection's decoded-frame slots keep their payload buffers from one
  // round to the next, so a slot that held a long frame is refilled with a
  // short one and vice versa.  Option counts cycle 0, 1, 24, 3, Reports
  // interleave, one GossipSegments frame is larger than the 64 KiB slot
  // retain threshold, and the stream crosses a backpressure pause and
  // resume; every reply must still carry the right type, call id and
  // option, in order.
  ModuloPolicy policy;
  ServerConfig cfg = config();
  cfg.write_buffer_cap = 128 * 1024;
  ControllerServer server(policy, 0, cfg);
  server.start();

  struct Expected {
    MsgType type;
    CallId call_id = 0;
    OptionId option = 0;
  };
  constexpr int kCalls = 200'000;
  constexpr std::size_t kOptionCounts[] = {0, 1, 24, 3};
  std::vector<std::byte> stream;
  std::vector<Expected> expected;
  std::int64_t decisions = 0;
  for (int i = 0; i < kCalls; ++i) {
    if (i == kCalls / 2) {
      GossipSegmentsMsg gossip;
      gossip.replica_id = 3;
      gossip.segments.resize(1100);  // 64 bytes each: ~70 KB of payload
      WireWriter w;
      gossip.encode(w);
      ASSERT_GT(w.bytes().size(), 64u * 1024);
      append_frame(stream, MsgType::GossipSegments, w);
      expected.push_back({MsgType::GossipSegmentsAck});
    }
    if (i % 5 == 4) {
      ReportMsg msg;
      msg.obs.id = i;
      msg.obs.option = 1;
      WireWriter w;
      msg.encode(w);
      append_frame(stream, MsgType::Report, w);
      expected.push_back({MsgType::ReportAck});
      continue;
    }
    DecisionRequest req;
    req.call_id = i;
    req.time = i;
    const std::size_t n = kOptionCounts[static_cast<std::size_t>(decisions) % 4];
    for (std::size_t k = 0; k < n; ++k) req.options.push_back(static_cast<OptionId>(10 + k));
    WireWriter w;
    req.encode(w);
    append_frame(stream, MsgType::DecisionRequest, w);
    const OptionId pick =
        n == 0 ? 0 : req.options[static_cast<std::size_t>(i) % n];
    expected.push_back({MsgType::DecisionResponse, i, pick});
    ++decisions;
  }

  TcpConnection conn = TcpConnection::connect_local(server.port());
  conn.set_recv_timeout_ms(30'000);
  std::thread sender([&] { conn.send_all(stream); });
  bool paused = false;
  for (int i = 0; i < 2000 && !paused; ++i) {
    paused = server.backpressure_paused_conns() == 1;
    if (!paused) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(paused);

  for (std::size_t i = 0; i < expected.size(); ++i) {
    Frame reply;
    ASSERT_TRUE(recv_frame(conn, reply)) << "reply " << i;
    ASSERT_EQ(reply.type, static_cast<std::uint8_t>(expected[i].type)) << "reply " << i;
    WireReader r(reply.payload);
    if (expected[i].type == MsgType::DecisionResponse) {
      const DecisionResponse resp = DecisionResponse::decode(r);
      ASSERT_EQ(resp.call_id, expected[i].call_id) << "reply " << i;
      ASSERT_EQ(resp.option, expected[i].option) << "reply " << i;
    } else if (expected[i].type == MsgType::GossipSegmentsAck) {
      EXPECT_EQ(GossipSegmentsAckMsg::decode(r).accepted, 0u);  // no gossip handler
    } else {
      EXPECT_TRUE(reply.payload.empty());
    }
  }
  sender.join();
  EXPECT_GE(server.backpressure_pauses_total(), 1u);
  conn.close();
  server.stop();
  EXPECT_EQ(server.decisions_served(), decisions);
}

TEST_P(BackendReactor, LeastConnectionsPinningBalancesWorkers) {
  ModuloPolicy policy;
  ControllerServer server(policy, 0, config(2));
  server.start();

  auto wait_for_total = [&](std::size_t want) {
    for (int i = 0; i < 400 && server.active_handlers() != want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return server.active_handlers();
  };
  auto counts = [&] { return server.reactor_worker_connections(); };

  // Sequential connects land round-robin under least-connections (each
  // accept sees the previously charged loads; ties go to the highest
  // index): A→w1, B→w0, C→w1, D→w0.
  std::vector<TcpConnection> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(TcpConnection::connect_local(server.port()));
    ASSERT_EQ(wait_for_total(static_cast<std::size_t>(i) + 1), static_cast<std::size_t>(i) + 1);
  }
  auto c = counts();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 2u);
  EXPECT_EQ(c[1], 2u);

  // Close worker 1's pair (A and C); the next accepts must refill the
  // emptier worker first instead of whatever fd parity dictates.
  conns[0].close();
  conns[2].close();
  ASSERT_EQ(wait_for_total(2), 2u);
  c = counts();
  EXPECT_EQ(std::max(c[0], c[1]), 2u);
  EXPECT_EQ(std::min(c[0], c[1]), 0u);

  conns.push_back(TcpConnection::connect_local(server.port()));
  conns.push_back(TcpConnection::connect_local(server.port()));
  ASSERT_EQ(wait_for_total(4), 4u);
  c = counts();
  EXPECT_EQ(c[0], 2u);
  EXPECT_EQ(c[1], 2u);

  conns.clear();
  server.stop();
}

TEST(BackendParity, EpollAndUringProduceIdenticalReplyBytes) {
  // The tentpole invariant: both backends sit behind the same
  // dispatch_frame seam, so one pipelined mixed workload must produce
  // byte-identical reply streams.
  if (!UringReactor::supported()) {
    GTEST_SKIP() << "io_uring unsupported on this kernel";
  }
  auto run_backend = [](ServingBackend backend) {
    ModuloPolicy policy;
    ServerConfig cfg;
    cfg.backend = backend;
    cfg.reactor_threads = 2;
    ControllerServer server(policy, 0, cfg);
    server.start();

    std::vector<std::byte> burst;
    int expected_replies = 0;
    for (int i = 0; i < 48; ++i) {
      if (i % 5 == 4) {
        ReportMsg msg;
        msg.obs.id = i;
        msg.obs.option = 1;
        msg.obs.perf = {100.0 + i, 0.5, 2.0};
        WireWriter w;
        msg.encode(w);
        append_frame(burst, MsgType::Report, w);
      } else {
        DecisionRequest req;
        req.call_id = i;
        req.options = {0, 1, 2};
        WireWriter w;
        req.encode(w);
        append_frame(burst, MsgType::DecisionRequest, w);
      }
      ++expected_replies;
    }
    TcpConnection conn = TcpConnection::connect_local(server.port());
    conn.set_recv_timeout_ms(10'000);
    conn.send_all(burst);

    std::vector<std::byte> replies;
    for (int i = 0; i < expected_replies; ++i) {
      Frame reply;
      EXPECT_TRUE(recv_frame(conn, reply));
      replies.push_back(static_cast<std::byte>(reply.type));
      const auto len = static_cast<std::uint32_t>(reply.payload.size());
      for (int b = 0; b < 4; ++b) {
        replies.push_back(static_cast<std::byte>((len >> (8 * b)) & 0xFF));
      }
      replies.insert(replies.end(), reply.payload.begin(), reply.payload.end());
    }
    conn.close();
    server.stop();
    return replies;
  };

  const auto epoll_bytes = run_backend(ServingBackend::kEpoll);
  const auto uring_bytes = run_backend(ServingBackend::kUring);
  EXPECT_EQ(epoll_bytes, uring_bytes);
}

TEST(BackendParity, UringFallsBackToEpollWhenUnsupported) {
  // VIA_NO_URING forces supported() == false: the server must degrade to
  // epoll, count the fallback, and keep serving.
  ::setenv("VIA_NO_URING", "1", 1);
  ModuloPolicy policy;
  ServerConfig cfg;
  cfg.backend = ServingBackend::kUring;
  cfg.reactor_threads = 2;
  ControllerServer server(policy, 0, cfg);
  server.start();
  ::unsetenv("VIA_NO_URING");

  EXPECT_EQ(server.serving_backend(), ServingBackend::kEpoll);
  EXPECT_EQ(counter_value(server, "rpc.server.uring_fallbacks"), 1);
  ControllerClient client(server.port());
  DecisionRequest req;
  req.call_id = 2;
  req.options = {0, 1};
  EXPECT_EQ(client.request_decision(req), 0);
  client.shutdown();
  server.stop();
}

}  // namespace
}  // namespace via
