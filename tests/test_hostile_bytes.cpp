// Hostile-bytes harness: seeded byte mutations of valid wire data, fed to
// every message decoder, to the reactor's incremental frame peel
// (ReadBuffer::next_frame), to the blocking recv_frame, to a live epoll
// server, and to a live admin HTTP sidecar.  Mutations are truncation, bit flips, inflated length and count
// fields, random overwrites, appended garbage, and unknown message types.
// The JSON line decoders (DecisionEvent, FlightEvent, SoakResult) get
// flipped, truncated, spliced and oversized lines.
//
// The contract under test: a decoder returns a value or throws
// ProtocolError — nothing else, and never reads out of bounds (this binary
// runs under ASan+UBSan in CI).  A live connection that sends a violation
// gets the replies to every frame before it, then one Error frame, then a
// close, while the server keeps serving other connections.  The admin
// sidecar answers every request with 200, 404 or 405, or closes, and
// keeps answering afterwards.  A line decoder returns nullopt or a value
// that re-serializes to a line it parses back to the same value.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "obs/telemetry.h"
#include "rpc/admin_http.h"
#include "rpc/client.h"
#include "rpc/conn_buffer.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "rpc/socket.h"
#include "rpc/soak_driver.h"

namespace via {
namespace {

using Bytes = std::vector<std::byte>;

template <typename Msg>
Bytes encode(const Msg& msg) {
  WireWriter w;
  msg.encode(w);
  const auto b = w.bytes();
  return {b.begin(), b.end()};
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

void append_frame(Bytes& out, std::uint8_t type, std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  out.push_back(static_cast<std::byte>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

/// u32 values that make a length or count field lie about the payload.
std::uint32_t hostile_u32(std::mt19937_64& rng, std::size_t payload_size) {
  const std::uint32_t picks[] = {
      0xFFFFFFFFu,
      0x80000000u,
      0x7FFFFFFFu,
      100'001u,
      static_cast<std::uint32_t>(kMaxPayload) + 1,
      static_cast<std::uint32_t>(payload_size),
      static_cast<std::uint32_t>(payload_size / 4 + 1),
      static_cast<std::uint32_t>(rng()),
  };
  return picks[rng() % std::size(picks)];
}

/// One seeded mutation of `valid`.  `count_offsets` are the offsets of the
/// message's u32 length/count fields, the targets of the inflation case.
Bytes mutate(const Bytes& valid, const std::vector<std::size_t>& count_offsets,
             std::mt19937_64& rng) {
  Bytes b = valid;
  switch (rng() % 6) {
    case 0:  // truncation
      b.resize(rng() % (b.size() + 1));
      break;
    case 1:  // bit flips
      if (!b.empty()) {
        for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k) {
          b[rng() % b.size()] ^= static_cast<std::byte>(1u << (rng() % 8));
        }
      }
      break;
    case 2:  // an inflated length or count field
      if (!count_offsets.empty()) {
        put_u32(b, count_offsets[rng() % count_offsets.size()], hostile_u32(rng, b.size()));
      } else if (!b.empty()) {
        put_u32(b, rng() % b.size(), hostile_u32(rng, b.size()));
      }
      break;
    case 3:  // a random 4-byte overwrite anywhere
      if (!b.empty()) put_u32(b, rng() % b.size(), static_cast<std::uint32_t>(rng()));
      break;
    case 4:  // garbage appended
      for (int k = 1 + static_cast<int>(rng() % 16); k > 0; --k) {
        b.push_back(static_cast<std::byte>(rng()));
      }
      break;
    default:  // pure noise
      b.resize(rng() % 96);
      for (std::byte& x : b) x = static_cast<std::byte>(rng());
      break;
  }
  return b;
}

struct DecoderCase {
  std::string name;
  Bytes valid;
  std::vector<std::size_t> count_offsets;
  std::function<void(WireReader&)> decode;
};

std::vector<DecoderCase> decoder_cases() {
  DecisionRequest req;
  req.call_id = 42;
  req.time = 86'417;
  req.src_as = 7;
  req.dst_as = 9;
  req.options = {0, 3, 11, 12};
  req.trace_id = 99;
  ReportMsg report;
  report.obs.id = 42;
  report.obs.option = 3;
  report.obs.perf = {95.5, 0.25, 3.75};
  GossipSegmentsMsg gossip;
  gossip.replica_id = 1;
  gossip.ring_epoch = 4;
  for (int i = 0; i < 3; ++i) {
    PeerSegment s;
    s.key = 100 + static_cast<std::uint64_t>(i);
    s.est.evidence = i;
    gossip.segments.push_back(s);
  }
  // decode_into reuses one scratch request across every mutant, the way
  // the serving loop does.
  auto scratch = std::make_shared<DecisionRequest>();
  return {
      {"DecisionRequest", encode(req), {24},
       [](WireReader& r) { (void)DecisionRequest::decode(r); }},
      {"DecisionRequest.decode_into", encode(req), {24},
       [scratch](WireReader& r) { DecisionRequest::decode_into(r, *scratch); }},
      {"DecisionResponse", encode(DecisionResponse{42, 3, 2, 5}), {},
       [](WireReader& r) { (void)DecisionResponse::decode(r); }},
      {"Report", encode(report), {}, [](WireReader& r) { (void)ReportMsg::decode(r); }},
      {"Refresh", encode(RefreshMsg{86'400}), {},
       [](WireReader& r) { (void)RefreshMsg::decode(r); }},
      {"StatsRequest", encode(StatsRequest{1}), {},
       [](WireReader& r) { (void)StatsRequest::decode(r); }},
      {"StatsResponse", encode(StatsResponse{"{\"a\":1}", 3}), {0},
       [](WireReader& r) { (void)StatsResponse::decode(r); }},
      {"DumpRequest", encode(DumpRequest{4096}), {0},
       [](WireReader& r) { (void)DumpRequest::decode(r); }},
      {"Pong", encode(PongMsg{2, 5}), {}, [](WireReader& r) { (void)PongMsg::decode(r); }},
      {"GossipSegments", encode(gossip), {12},
       [](WireReader& r) { (void)GossipSegmentsMsg::decode(r); }},
      {"GossipSegmentsAck", encode(GossipSegmentsAckMsg{2, 5, 7}), {12},
       [](WireReader& r) { (void)GossipSegmentsAckMsg::decode(r); }},
      {"Error", encode(ErrorMsg{1, "unexpected message type"}), {1},
       [](WireReader& r) { (void)ErrorMsg::decode(r); }},
  };
}

TEST(HostileBytes, DecodersReturnOrThrowProtocolError) {
  constexpr int kMutantsPerDecoder = 3000;
  for (const DecoderCase& c : decoder_cases()) {
    SCOPED_TRACE(c.name);
    {
      WireReader valid(c.valid);
      EXPECT_NO_THROW(c.decode(valid));
    }
    std::mt19937_64 rng(0x5EED0000 + c.name.size());
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kMutantsPerDecoder; ++i) {
      const Bytes bytes = mutate(c.valid, c.count_offsets, rng);
      WireReader r(bytes);
      try {
        c.decode(r);
        ++accepted;
      } catch (const ProtocolError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " threw a non-protocol exception: " << e.what();
      } catch (...) {
        ADD_FAILURE() << "mutant " << i << " threw a non-exception";
      }
    }
    // Both outcomes occur, so the mutations reach past the first field.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
  }
}

/// A stream of `n` well-formed frames with random types and payloads.
Bytes frame_stream(std::mt19937_64& rng, int n) {
  Bytes out;
  for (int i = 0; i < n; ++i) {
    Bytes payload(rng() % 80);
    for (std::byte& b : payload) b = static_cast<std::byte>(rng());
    append_frame(out, static_cast<std::uint8_t>(rng()), payload);
  }
  return out;
}

/// Offsets of the frame headers in a well-formed stream.
std::vector<std::size_t> header_offsets(const Bytes& stream) {
  std::vector<std::size_t> at;
  for (std::size_t pos = 0; pos + kFrameHeaderBytes <= stream.size();) {
    at.push_back(pos);
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(stream[pos + i]) << (8 * i);
    pos += kFrameHeaderBytes + len;
  }
  return at;
}

/// What a correct peel makes of `stream`: its complete frames, in order,
/// and whether a header declaring more than kMaxPayload stops it.
struct Peel {
  std::vector<std::pair<std::uint8_t, std::size_t>> frames;  ///< (type, payload size)
  bool oversized = false;
  bool truncated = false;  ///< bytes left over that do not form a whole frame
};

Peel reference_peel(const Bytes& stream) {
  Peel p;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    if (stream.size() - pos < kFrameHeaderBytes) {
      p.truncated = true;
      break;
    }
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(stream[pos + i]) << (8 * i);
    if (len > kMaxPayload) {
      p.oversized = true;
      break;
    }
    if (stream.size() - pos - kFrameHeaderBytes < len) {
      p.truncated = true;
      break;
    }
    p.frames.emplace_back(static_cast<std::uint8_t>(stream[pos + 4]), len);
    pos += kFrameHeaderBytes + len;
  }
  return p;
}

TEST(HostileBytes, ReadBufferPeelMatchesReferenceOnMutatedStreams) {
  std::mt19937_64 rng(0x5EED1001);
  for (int trial = 0; trial < 1500; ++trial) {
    const Bytes valid = frame_stream(rng, 1 + static_cast<int>(rng() % 6));
    const Bytes stream = mutate(valid, header_offsets(valid), rng);
    const Peel want = reference_peel(stream);

    ReadBuffer rb;
    Frame frame;  // one reused slot, as the reactor reuses its frame slots
    Peel got;
    std::size_t fed = 0;
    try {
      while (fed < stream.size()) {
        const std::size_t chunk = std::min<std::size_t>(stream.size() - fed, 1 + rng() % 64);
        const auto dst = rb.writable(chunk);
        std::memcpy(dst.data(), stream.data() + fed, chunk);
        rb.commit(chunk);
        fed += chunk;
        while (rb.next_frame(frame)) got.frames.emplace_back(frame.type, frame.payload.size());
      }
    } catch (const ProtocolError&) {
      got.oversized = true;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " threw a non-protocol exception: " << e.what();
    }
    ASSERT_EQ(got.frames, want.frames) << "trial " << trial;
    ASSERT_EQ(got.oversized, want.oversized) << "trial " << trial;
    if (!got.oversized) {
      EXPECT_EQ(rb.buffered() > 0, want.truncated) << "trial " << trial;
    }
  }
}

TEST(HostileBytes, RecvFrameMatchesReferenceOnMutatedStreams) {
  // recv_frame over a stream socket pair: whole frames decode, an
  // oversized header is a ProtocolError, and a stream cut mid-frame is the
  // documented I/O error ("connection closed mid-frame") — never anything
  // else, and never a frame the reference peel would not produce.
  std::mt19937_64 rng(0x5EED2002);
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes valid = frame_stream(rng, 1 + static_cast<int>(rng() % 6));
    const Bytes stream = mutate(valid, header_offsets(valid), rng);
    const Peel want = reference_peel(stream);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    TcpConnection writer{FdHandle(fds[0])};
    TcpConnection reader{FdHandle(fds[1])};
    reader.set_recv_timeout_ms(5'000);
    if (!stream.empty()) writer.send_all(stream);
    writer.close();

    Peel got;
    bool cut = false;
    try {
      Frame frame;
      while (recv_frame(reader, frame)) got.frames.emplace_back(frame.type, frame.payload.size());
    } catch (const ProtocolError&) {
      got.oversized = true;
    } catch (const std::runtime_error&) {
      cut = true;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " threw: " << e.what();
    }
    ASSERT_EQ(got.frames, want.frames) << "trial " << trial;
    ASSERT_EQ(got.oversized, want.oversized) << "trial " << trial;
    // A partial header at EOF reads as a clean close or a cut; a partial
    // payload is always a cut.
    if (cut) {
      EXPECT_TRUE(want.truncated) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------------- live server

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

struct ExpectedReply {
  MsgType type;
  CallId call_id = 0;
  OptionId option = 0;
};

DecisionRequest random_request(std::mt19937_64& rng, CallId id) {
  DecisionRequest req;
  req.call_id = id;
  req.time = static_cast<TimeSec>(rng() % 100'000);
  req.src_as = static_cast<AsId>(rng() % 50);
  req.dst_as = static_cast<AsId>(rng() % 50);
  for (int k = static_cast<int>(rng() % 6); k > 0; --k) {
    req.options.push_back(static_cast<OptionId>(rng() % 40));
  }
  return req;
}

/// One frame the server must reject with an Error: every kind is a
/// guaranteed violation (unlike a random bit flip, which may still decode),
/// and framing stays consistent so the server has read every byte sent
/// when it closes.
Bytes hostile_frame(std::mt19937_64& rng) {
  Bytes out;
  switch (rng() % 5) {
    case 0: {  // a type the server does not serve (Shutdown excluded)
      const std::uint8_t types[] = {0, 2, 4, 6, 9, 10, 11, 13, 15, 17, 19, 20, 0x7F, 0xFF};
      Bytes payload(rng() % 32, std::byte{0x5A});
      append_frame(out, types[rng() % std::size(types)], payload);
      break;
    }
    case 1: {  // a DecisionRequest cut before its options end
      const DecisionRequest req = random_request(rng, 1);
      Bytes payload = encode(req);
      payload.resize(rng() % (28 + 4 * req.options.size()));
      append_frame(out, static_cast<std::uint8_t>(MsgType::DecisionRequest), payload);
      break;
    }
    case 2: {  // a DecisionRequest whose option count the frame cannot hold
      const DecisionRequest req = random_request(rng, 1);
      Bytes payload = encode(req);
      const std::uint32_t n = static_cast<std::uint32_t>(req.options.size());
      const std::uint32_t counts[] = {n + 3, 100'001u, 0xFFFFFFFFu};
      put_u32(payload, 24, counts[rng() % std::size(counts)]);
      append_frame(out, static_cast<std::uint8_t>(MsgType::DecisionRequest), payload);
      break;
    }
    case 3: {  // a Report cut short
      Bytes payload = encode(ReportMsg{});
      payload.resize(rng() % payload.size());
      append_frame(out, static_cast<std::uint8_t>(MsgType::Report), payload);
      break;
    }
    default: {  // a header declaring more than kMaxPayload (sent alone)
      const auto len = static_cast<std::uint32_t>(kMaxPayload + 1 + rng() % 4096);
      for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
      out.push_back(static_cast<std::byte>(MsgType::DecisionRequest));
      break;
    }
  }
  return out;
}

TEST(HostileBytes, LiveServerRepliesThenErrorsAndKeepsServing) {
  ModuloPolicy policy;
  ServerConfig cfg;
  cfg.reactor_threads = 2;
  ControllerServer server(policy, 0, cfg);
  server.start();
  ControllerClient bystander(server.port());

  constexpr int kTrials = 60;
  std::mt19937_64 rng(0x5EED3003);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Bytes stream;
    std::vector<ExpectedReply> expected;
    for (int k = static_cast<int>(rng() % 12); k > 0; --k) {
      const CallId id = trial * 100 + static_cast<CallId>(expected.size());
      if (rng() % 4 == 0) {
        ReportMsg msg;
        msg.obs.id = id;
        msg.obs.time = static_cast<TimeSec>(rng() % 100'000);
        append_frame(stream, static_cast<std::uint8_t>(MsgType::Report), encode(msg));
        expected.push_back({MsgType::ReportAck});
      } else {
        const DecisionRequest req = random_request(rng, id);
        append_frame(stream, static_cast<std::uint8_t>(MsgType::DecisionRequest), encode(req));
        const OptionId pick =
            req.options.empty()
                ? 0
                : req.options[static_cast<std::size_t>(id) % req.options.size()];
        expected.push_back({MsgType::DecisionResponse, id, pick});
      }
    }
    const Bytes bad = hostile_frame(rng);
    stream.insert(stream.end(), bad.begin(), bad.end());

    TcpConnection conn = TcpConnection::connect_local(server.port());
    conn.set_recv_timeout_ms(10'000);
    // Split the stream at a random point so frames straddle reads.
    const std::size_t split = rng() % (stream.size() + 1);
    conn.send_all(std::span<const std::byte>(stream).first(split));
    conn.send_all(std::span<const std::byte>(stream).subspan(split));

    for (const ExpectedReply& want : expected) {
      Frame reply;
      ASSERT_TRUE(recv_frame(conn, reply));
      ASSERT_EQ(reply.type, static_cast<std::uint8_t>(want.type));
      if (want.type == MsgType::DecisionResponse) {
        WireReader r(reply.payload);
        const DecisionResponse resp = DecisionResponse::decode(r);
        EXPECT_EQ(resp.call_id, want.call_id);
        EXPECT_EQ(resp.option, want.option);
      }
    }
    Frame error;
    ASSERT_TRUE(recv_frame(conn, error));
    EXPECT_EQ(error.type, static_cast<std::uint8_t>(MsgType::Error));
    EXPECT_FALSE(recv_frame(conn, error));  // closed right after the Error
    conn.close();

    DecisionRequest probe;
    probe.call_id = 5;
    probe.options = {4, 8};
    EXPECT_EQ(bystander.request_decision(probe), 8);
  }
  EXPECT_EQ(server.protocol_errors(), kTrials);
  bystander.shutdown();
  server.stop();
}

// ------------------------------------------------------- admin sidecar

/// Sends `request` to the admin sidecar, half-closes, and reads to EOF.
/// Returns the raw reply; empty when the sidecar closed (or reset) without
/// one.  A send the sidecar cut short by closing counts as a close too.
std::string admin_exchange(std::uint16_t port, const std::string& request) {
  TcpConnection conn = TcpConnection::connect_local(port);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(conn.fd(), request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // EPIPE/ECONNRESET: the sidecar already gave up
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(conn.fd(), SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 10'000) <= 0) {
      ADD_FAILURE() << "admin sidecar neither replied nor closed";
      break;
    }
    const ssize_t n = ::recv(conn.fd(), buf, sizeof buf, 0);
    if (n <= 0) break;  // EOF or reset
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

/// One seeded hostile admin request and, when the sidecar's answer is
/// determined, the status it must carry ("" = any allowed answer).
struct AdminCase {
  std::string request;
  std::string want_status;
};

AdminCase hostile_admin_request(std::mt19937_64& rng) {
  static const std::string kValid[] = {
      "GET /healthz HTTP/1.0\r\n\r\n",
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "GET /varz?verbose=1 HTTP/1.0\r\n\r\n",
      "GET /flightrecord HTTP/1.0\r\n\r\n",
      "GET /trace HTTP/1.0\n\n",
      "GET /nope HTTP/1.0\r\n\r\n",
  };
  const std::string& base = kValid[rng() % std::size(kValid)];
  std::string req = base;
  switch (rng() % 5) {
    case 0: {  // random byte overwrites, NULs and newlines included
      for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k) {
        req[rng() % req.size()] = static_cast<char>(rng() % 256);
      }
      return {req, ""};
    }
    case 1:  // truncated anywhere, including before the method
      req.resize(rng() % req.size());
      return {req, ""};
    case 2: {  // oversized: a path or header block past the 8 KiB read cap
      const std::size_t n = 8 * 1024 + 1 + rng() % (16 * 1024);
      std::string filler(n, 'a');
      for (char& c : filler) c = static_cast<char>('a' + rng() % 26);
      if (rng() % 2 == 0) return {"GET /" + filler + " HTTP/1.0\r\n\r\n", ""};
      return {"GET /healthz HTTP/1.0\r\nX-Pad: " + filler + "\r\n\r\n", ""};
    }
    case 3: {  // not a GET
      static const char* kMethods[] = {"POST", "PUT", "DELETE", "HEAD", "get", "G3T", "\x01\xff"};
      const std::string method = kMethods[rng() % std::size(kMethods)];
      return {method + base.substr(3), "405"};
    }
    default: {  // binary garbage, with or without a header terminator
      std::string junk(1 + rng() % 512, '\0');
      for (char& c : junk) c = static_cast<char>(rng() % 256);
      if (rng() % 2 == 0) junk += "\r\n\r\n";
      return {junk, ""};
    }
  }
}

TEST(HostileBytes, AdminSidecarAnswersOrClosesAndKeepsServing) {
  obs::Telemetry telemetry;
  telemetry.registry.counter("rpc.server.decisions").inc(3);
  AdminHttpServer admin(telemetry, 0);
  admin.start();

  constexpr int kTrials = 120;
  std::mt19937_64 rng(0x5EED4004);
  for (int trial = 0; trial < kTrials; ++trial) {
    const AdminCase c = hostile_admin_request(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string reply = admin_exchange(admin.port(), c.request);
    if (reply.empty()) {
      EXPECT_TRUE(c.want_status.empty()) << "closed without the expected " << c.want_status;
      continue;
    }
    const std::string status = reply.substr(0, reply.find("\r\n"));
    EXPECT_TRUE(status == "HTTP/1.0 200 OK" || status == "HTTP/1.0 404 Not Found" ||
                status == "HTTP/1.0 405 Method Not Allowed")
        << status;
    if (!c.want_status.empty()) {
      EXPECT_NE(status.find(c.want_status), std::string::npos);
    }
  }

  const std::string healthz = admin_exchange(admin.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_TRUE(healthz.starts_with("HTTP/1.0 200 OK\r\n")) << healthz;
  EXPECT_TRUE(healthz.ends_with("\r\n\r\nok\n")) << healthz;
  admin.stop();
}

// ------------------------------------------------------- JSON line decoders

/// A JSON line decoder under test: valid lines to mutate, and `reencode`,
/// which parses a line and, when that yields a value, returns the value's
/// own serialization.
struct LineCase {
  std::string name;
  std::vector<std::string> valid;
  std::function<std::optional<std::string>(std::string_view)> reencode;
};

template <typename T, typename Parse, typename Write>
std::function<std::optional<std::string>(std::string_view)> reencoder(Parse parse, Write write) {
  return [parse, write](std::string_view line) -> std::optional<std::string> {
    const std::optional<T> value = parse(line);
    if (!value) return std::nullopt;
    return write(*value);
  };
}

std::vector<LineCase> line_cases() {
  std::vector<std::string> decisions;
  for (int i = 0; i < 3; ++i) {
    obs::DecisionEvent e;
    e.call_id = 4242 + i;
    e.time = 86'400 + i;
    e.src_as = 7;
    e.dst_as = 11 + i;
    e.option = i;
    e.reason = static_cast<obs::DecisionReason>(i * 2);
    e.predicted = 123.5 + i;
    if (i != 1) e.observed = 150.25 * i;  // the middle one stays NaN (null)
    e.top_k_size = 5;
    e.bandit_pulls = 99 * i;
    decisions.push_back(e.to_jsonl());
  }
  std::vector<std::string> flights;
  for (int i = 0; i < 3; ++i) {
    obs::FlightEvent e;
    e.seq = 100 + i;
    e.wall_us = 123'456 * i;
    e.time = i == 0 ? -1 : 86'400;
    e.kind = static_cast<obs::FlightEventKind>(i * 5);
    e.detail = i == 1 ? "plain" : "quote\" backslash\\ newline\n \"a\":1,}";
    e.a = 42 * i;
    flights.push_back(e.to_jsonl());
  }
  std::vector<std::string> soaks;
  for (int i = 0; i < 3; ++i) {
    SoakResult r;
    r.ok = i != 2;
    r.connected = 64 * i;
    r.sent = 4096 + i;
    r.received = 4096;
    r.mismatched = i;
    r.seconds = 1.5 * i;
    r.rps = 2730.67 * i;
    r.error = i == 2 ? "lost replies: \"sent\":1,}" : "";
    soaks.push_back(r.to_json());
  }
  return {
      {"DecisionEvent", decisions,
       reencoder<obs::DecisionEvent>(&obs::DecisionEvent::from_jsonl,
                                     [](const obs::DecisionEvent& e) { return e.to_jsonl(); })},
      {"FlightEvent", flights,
       reencoder<obs::FlightEvent>(&obs::FlightEvent::from_jsonl,
                                   [](const obs::FlightEvent& e) { return e.to_jsonl(); })},
      {"SoakResult", soaks,
       reencoder<SoakResult>(&SoakResult::from_json,
                             [](const SoakResult& r) { return r.to_json(); })},
  };
}

/// One seeded mutation of a valid line: byte flips, a truncation, or a
/// splice of a slice of another valid line over a slice of this one.
std::string mutate_line(const std::vector<std::string>& valid, std::mt19937_64& rng) {
  std::string s = valid[rng() % valid.size()];
  switch (rng() % 4) {
    case 0:  // bit flips
      for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
        s[rng() % s.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1: {  // a byte set to a character the reader treats as structure
      static constexpr std::string_view kStructure = "\"\\:,{}- .eE0n";
      s[rng() % s.size()] = kStructure[rng() % kStructure.size()];
      break;
    }
    case 2:  // truncation
      s.resize(rng() % (s.size() + 1));
      break;
    default: {  // splice
      const std::string& other = valid[rng() % valid.size()];
      const std::size_t at = rng() % (s.size() + 1);
      const std::size_t len = rng() % (s.size() - at + 1);
      const std::size_t from = rng() % (other.size() + 1);
      const std::size_t take = rng() % (other.size() - from + 1);
      s.replace(at, len, other, from, take);
      break;
    }
  }
  return s;
}

/// The decoder's contract on one input: nullopt, or a value whose
/// serialization parses back to the same serialization (the same value as
/// written; DecisionEvent and SoakResult print 6 significant digits).
/// Returns whether the input was accepted.
bool expect_nullopt_or_fixed_point(const LineCase& c, std::string_view line) {
  const std::optional<std::string> once = c.reencode(line);
  if (!once) return false;
  const std::optional<std::string> twice = c.reencode(*once);
  EXPECT_TRUE(twice.has_value()) << c.name << " rejects its own line " << *once;
  if (twice) {
    EXPECT_EQ(*twice, *once) << c.name << " from " << line;
  }
  return true;
}

TEST(HostileBytes, JsonLineDecodersReturnNulloptOrARoundTrippingValue) {
  constexpr int kMutantsPerDecoder = 4000;
  constexpr std::size_t kOversized = 70 * 1024;
  for (const LineCase& c : line_cases()) {
    SCOPED_TRACE(c.name);
    for (const std::string& line : c.valid) {
      EXPECT_TRUE(expect_nullopt_or_fixed_point(c, line)) << line;
    }
    std::mt19937_64 rng(0x5EED5005 + c.name.size());
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < kMutantsPerDecoder; ++i) {
      const std::string mutant = mutate_line(c.valid, rng);
      ++(expect_nullopt_or_fixed_point(c, mutant) ? accepted : rejected);
    }
    // Both outcomes occur, so the mutations reach past the first field.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);

    // Oversized lines: a run of digits inside the first value, and junk
    // after the closing brace.
    const std::string& valid = c.valid.front();
    std::string digits = valid;
    digits.insert(valid.find(':') + 1, kOversized, '7');
    EXPECT_FALSE(expect_nullopt_or_fixed_point(c, digits));
    std::string tail = valid;
    for (std::size_t k = 0; k < kOversized; ++k) tail.push_back(static_cast<char>(rng()));
    expect_nullopt_or_fixed_point(c, tail);
  }

  // An oversized string field is still a valid line.
  obs::FlightEvent big;
  big.detail = std::string(kOversized, 'x') + "\"\\\n";
  const auto flight = obs::FlightEvent::from_jsonl(big.to_jsonl());
  ASSERT_TRUE(flight.has_value());
  EXPECT_EQ(flight->detail, big.detail);
  SoakResult soak;
  soak.error = big.detail;
  const auto parsed_soak = SoakResult::from_json(soak.to_json());
  ASSERT_TRUE(parsed_soak.has_value());
  EXPECT_EQ(parsed_soak->error, big.detail);
}

TEST(HostileBytes, JsonLineDecodersRejectNumbersWithTrailingBytes) {
  SoakResult r;
  r.ok = true;
  r.sent = 12;
  r.received = 12;
  r.seconds = 1.5;
  r.rps = 8.0;
  const std::string line = r.to_json();
  ASSERT_TRUE(SoakResult::from_json(line).has_value()) << line;
  const auto with = [&](std::string_view from, std::string_view to) {
    std::string s = line;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  EXPECT_FALSE(SoakResult::from_json(with("\"sent\":12", "\"sent\":12x")).has_value());
  EXPECT_FALSE(SoakResult::from_json(with("\"seconds\":1.5", "\"seconds\":1.5abc")).has_value());
  EXPECT_FALSE(SoakResult::from_json(with("\"rps\":8", "\"rps\":")).has_value());

  obs::DecisionEvent e;
  e.predicted = 1.5;
  const std::string decision = e.to_jsonl();
  ASSERT_TRUE(obs::DecisionEvent::from_jsonl(decision).has_value());
  std::string empty_predicted = decision;
  empty_predicted.replace(decision.find("\"predicted\":1.5"), 15, "\"predicted\":");
  EXPECT_FALSE(obs::DecisionEvent::from_jsonl(empty_predicted).has_value());
}

}  // namespace
}  // namespace via
