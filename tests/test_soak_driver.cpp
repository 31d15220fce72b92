// run_soak, the pipelined load driver behind the reactor sweep and the
// 10k-connection soak, driven in-process: decision mode against a real
// ViaPolicy, and a scripted peer whose reply header breaks the protocol.
#include "rpc/soak_driver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/via_policy.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/socket.h"

namespace via {
namespace {

TEST(SoakDriver, DecisionModeAgainstViaPolicyAnswersEveryRequest) {
  RelayOptionTable options;
  const OptionId bounce = options.intern_bounce(0);
  ViaPolicy policy(options, [](RelayId, RelayId) { return PathPerformance{}; });
  for (int i = 0; i < 40; ++i) {
    Observation obs;
    obs.id = i;
    obs.time = 100 + i;
    obs.src_as = i % 8;
    obs.dst_as = (i + 1) % 8;
    obs.option = (i % 2 == 0) ? bounce : RelayOptionTable::direct_id();
    obs.perf = {obs.option == bounce ? 80.0 : 300.0, 0.5, 3.0};
    policy.observe(obs);
  }
  policy.refresh(kSecondsPerDay);
  ControllerServer server(policy);
  server.start();

  SoakConfig soak;
  soak.port = server.port();
  soak.connections = 16;
  soak.rounds = 4;
  soak.depth = 8;
  soak.threads = 4;
  soak.as_count = 8;
  soak.options = {RelayOptionTable::direct_id(), bounce};
  const SoakResult result = run_soak(soak);
  server.stop();

  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.connected, soak.connections);
  const std::int64_t expected =
      static_cast<std::int64_t>(soak.connections) * soak.rounds * soak.depth;
  EXPECT_EQ(result.sent, expected);
  EXPECT_EQ(result.received, expected);
  EXPECT_EQ(result.mismatched, 0);
  EXPECT_EQ(server.decisions_served(), static_cast<std::size_t>(expected));
}

TEST(SoakDriver, OversizedReplyHeaderFailsTheSoakInsteadOfWaitingForItsPayload) {
  TcpListener listener(0);
  constexpr int kDepth = 2;
  std::thread peer([&listener] {
    TcpConnection conn = listener.accept();
    Frame request;
    for (int k = 0; k < kDepth; ++k) ASSERT_TRUE(recv_frame(conn, request));
    // A DecisionResponse header declaring kMaxPayload + 1 (0x00100001)
    // payload bytes, none of which ever follow.
    const std::byte header[kFrameHeaderBytes] = {
        std::byte{0x01}, std::byte{0x00}, std::byte{0x10}, std::byte{0x00},
        static_cast<std::byte>(MsgType::DecisionResponse)};
    conn.send_all(header);
    // Hold the connection open until the driver hangs up: a driver that
    // waited for the payload would sit out its recv deadline instead.
    try {
      while (recv_frame(conn, request)) {
      }
    } catch (const std::exception&) {
    }
  });

  SoakConfig soak;
  soak.port = listener.port();
  soak.connections = 1;
  soak.threads = 1;
  soak.rounds = 1;
  soak.depth = kDepth;
  soak.recv_timeout_ms = 5000;
  const auto t0 = std::chrono::steady_clock::now();
  const SoakResult result = run_soak(soak);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  peer.join();

  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.received, 0);
  // Rejected at the header, well inside the recv deadline.
  EXPECT_LT(elapsed, std::chrono::milliseconds(soak.recv_timeout_ms / 2)) << result.error;
}

}  // namespace
}  // namespace via
