// Golden wire frames: the exact bytes of every frame the controller puts on
// the wire, pinned as hex literals for fixed inputs.  The reply encoders
// are an optimized path (replies are framed in place on the connection's
// write queue), so "the wire did not move" is asserted here directly
// instead of by comparing two backends at one commit.  Two layers:
//   - encoder level: each message's encode() framed through WriteBuffer;
//   - live server: the raw reply stream of a reactor-served connection
//     (single-frame and batched decision paths, control-plane replies, and
//     the closing Error frame).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/policy.h"
#include "rpc/conn_buffer.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/socket.h"

namespace via {
namespace {

std::string hex(std::span<const std::byte> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  char buf[3];
  for (const std::byte b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned>(b));
    out += buf;
  }
  return out;
}

template <typename Msg>
std::string frame_hex(MsgType type, const Msg& msg) {
  WireWriter w;
  msg.encode(w);
  WriteBuffer out;
  out.frame(static_cast<std::uint8_t>(type), w.bytes());
  return hex(out.stage());
}

std::string empty_frame_hex(MsgType type) {
  WriteBuffer out;
  out.frame(static_cast<std::uint8_t>(type), {});
  return hex(out.stage());
}

DecisionRequest golden_request(CallId id, std::vector<OptionId> options) {
  DecisionRequest req;
  req.call_id = id;
  req.time = 86'417;
  req.src_as = 7;
  req.dst_as = 9;
  req.options = std::move(options);
  req.trace_id = 0xABCDEF;
  return req;
}

ReportMsg golden_report() {
  ReportMsg msg;
  msg.obs.id = 42;
  msg.obs.time = 86'417;
  msg.obs.src_as = 7;
  msg.obs.dst_as = 9;
  msg.obs.option = 3;
  msg.obs.ingress = 5;
  msg.obs.perf = {95.5, 0.25, 3.75};
  return msg;
}

// Expected frames.  Layout: u32 payload length, u8 type, payload; all
// little-endian.
constexpr const char* kDecisionRequest =
    "3000000001"                        // len 48, DecisionRequest
    "2a00000000000000"                  // call_id 42
    "9151010000000000"                  // time 86417
    "07000000" "09000000"               // src_as 7, dst_as 9
    "03000000" "00000000" "03000000" "0b000000"  // 3 options: 0, 3, 11
    "efcdab0000000000";                 // trace_id 0xABCDEF
constexpr const char* kReport =
    "3800000003"
    "2a00000000000000" "9151010000000000"
    "07000000" "09000000" "03000000" "05000000"
    "0000000000e05740"                  // rtt 95.5
    "000000000000d03f"                  // loss 0.25
    "0000000000000e40";                 // jitter 3.75
constexpr const char* kDecisionResponse =
    "1800000002"
    "2a00000000000000" "03000000"       // call_id 42, option 3
    "02000000" "0500000000000000";      // replica 2, epoch 5
constexpr const char* kReportAck = "0000000004";
constexpr const char* kRefreshAck = "0000000006";
constexpr const char* kPong = "0c00000011" "02000000" "0500000000000000";
constexpr const char* kGossipSegmentsAck =
    "1000000013" "02000000" "0500000000000000" "07000000";
constexpr const char* kError =
    "1c0000000a" "01" "17000000"        // request type 1, 23-byte reason
    "756e6578706563746564206d6573736167652074797065";  // "unexpected message type"
constexpr const char* kBusy = "000000000b";

TEST(WireGolden, EncodedFramesMatchPinnedBytes) {
  EXPECT_EQ(frame_hex(MsgType::DecisionRequest, golden_request(42, {0, 3, 11})),
            kDecisionRequest);
  EXPECT_EQ(frame_hex(MsgType::Report, golden_report()), kReport);
  EXPECT_EQ(frame_hex(MsgType::DecisionResponse, DecisionResponse{42, 3, 2, 5}),
            kDecisionResponse);
  EXPECT_EQ(empty_frame_hex(MsgType::ReportAck), kReportAck);
  EXPECT_EQ(empty_frame_hex(MsgType::RefreshAck), kRefreshAck);
  EXPECT_EQ(frame_hex(MsgType::Pong, PongMsg{2, 5}), kPong);
  EXPECT_EQ(frame_hex(MsgType::GossipSegmentsAck, GossipSegmentsAckMsg{2, 5, 7}),
            kGossipSegmentsAck);
  EXPECT_EQ(frame_hex(MsgType::Error, ErrorMsg{1, "unexpected message type"}), kError);
  EXPECT_EQ(empty_frame_hex(MsgType::Busy), kBusy);
}

TEST(WireGolden, EncodedFramesMatchSendFrame) {
  // The blocking client path frames with send_frame(); it must put the
  // same bytes on the wire as the reactor's write queue.
  TcpListener listener(0);
  TcpConnection client = TcpConnection::connect_local(listener.port());
  TcpConnection server = listener.accept();
  WireWriter w;
  golden_request(42, {0, 3, 11}).encode(w);
  send_frame(client, static_cast<std::uint8_t>(MsgType::DecisionRequest), w.bytes());
  std::vector<std::byte> got(48 + 5);
  ASSERT_TRUE(server.recv_all(got));
  EXPECT_EQ(hex(got), kDecisionRequest);
}

/// Picks options[call_id % options.size()] (0 without options).
class ModuloPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] OptionId choose(const CallContext& call) override {
    if (call.options.empty()) return 0;
    return call.options[static_cast<std::size_t>(call.id) % call.options.size()];
  }
  void observe(const Observation&) override {}
  void refresh(TimeSec) override {}
  [[nodiscard]] std::string_view name() const override { return "modulo"; }
};

void append_frame(std::vector<std::byte>& out, MsgType type, std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  out.push_back(static_cast<std::byte>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

template <typename Msg>
void append_msg(std::vector<std::byte>& out, MsgType type, const Msg& msg) {
  WireWriter w;
  msg.encode(w);
  append_frame(out, type, w.bytes());
}

TEST(WireGolden, LiveServerReplyStreamMatchesPinnedBytes) {
  ModuloPolicy policy;
  ServerConfig cfg;
  cfg.reactor_threads = 1;
  cfg.replica_id = 2;
  cfg.ring_epoch = 5;
  ControllerServer server(policy, 0, cfg);
  server.start();

  // One pipelined burst: a lone decision (single-frame path), a report,
  // a refresh, a ping, a gossip push, a run of three decisions (batched
  // path), and finally an unknown type, which draws an Error and a close.
  std::vector<std::byte> burst;
  append_msg(burst, MsgType::DecisionRequest, golden_request(42, {3, 0, 11}));  // 42 % 3 -> 3
  append_msg(burst, MsgType::Report, golden_report());
  append_msg(burst, MsgType::Refresh, RefreshMsg{86'400});
  append_frame(burst, MsgType::Ping, {});
  append_msg(burst, MsgType::GossipSegments, GossipSegmentsMsg{1, 5, {}});
  append_msg(burst, MsgType::DecisionRequest, golden_request(43, {0, 3, 11}));
  append_msg(burst, MsgType::DecisionRequest, golden_request(44, {}));
  append_msg(burst, MsgType::DecisionRequest, golden_request(45, {6}));
  append_frame(burst, static_cast<MsgType>(0x7F), {});

  TcpConnection conn = TcpConnection::connect_local(server.port());
  conn.set_recv_timeout_ms(10'000);
  conn.send_all(burst);
  std::vector<std::byte> got;
  std::byte chunk[512];
  for (;;) {
    const ssize_t n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    got.insert(got.end(), chunk, chunk + n);
  }
  conn.close();
  server.stop();

  const std::string expected = std::string(kDecisionResponse) + kReportAck + kRefreshAck +
                               kPong +
                               "1000000013" "02000000" "0500000000000000" "00000000" +
                               "1800000002" "2b00000000000000" "03000000"  // 43 % 3 -> 3
                               "02000000" "0500000000000000" +
                               "1800000002" "2c00000000000000" "00000000"  // no options -> 0
                               "02000000" "0500000000000000" +
                               "1800000002" "2d00000000000000" "06000000"  // only option 6
                               "02000000" "0500000000000000" +
                               "1c0000000a" "7f" "17000000"
                               "756e6578706563746564206d6573736167652074797065";
  EXPECT_EQ(hex(got), expected);
}

}  // namespace
}  // namespace via
