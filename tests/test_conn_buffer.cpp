// Per-connection buffer tests (DESIGN.md §6h/§6j): the incremental frame
// peel and the staged write queue are the seam both event-driven backends
// (epoll and io_uring) share, so their edge cases — frames split across
// 1-byte reads, EAGAIN mid-frame flushes, stage/consume pointer
// stability, capacity reclaim after a burst — are pinned here without a
// reactor in the loop.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "rpc/conn_buffer.h"
#include "rpc/decide_scratch.h"
#include "rpc/framing.h"
#include "rpc/messages.h"

namespace via {
namespace {

std::vector<std::byte> encode_frame(std::uint8_t type, std::size_t payload_len,
                                    std::byte fill = std::byte{0xAB}) {
  std::vector<std::byte> out;
  const auto len = static_cast<std::uint32_t>(payload_len);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  }
  out.push_back(static_cast<std::byte>(type));
  out.insert(out.end(), payload_len, fill);
  return out;
}

// ------------------------------------------------------------- ReadBuffer

TEST(ReadBuffer, FrameSplitAcrossOneByteChunks) {
  // The peel must hold partial state across arbitrarily small reads: one
  // byte at a time is the worst case a non-blocking socket can deliver.
  const std::vector<std::byte> wire = encode_frame(3, 11, std::byte{0x5C});
  ReadBuffer rb;
  Frame frame;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto dst = rb.writable(1);
    ASSERT_GE(dst.size(), 1u);
    dst[0] = wire[i];
    rb.commit(1);
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(rb.next_frame(frame)) << "frame complete after " << i + 1 << " bytes";
    }
  }
  ASSERT_TRUE(rb.next_frame(frame));
  EXPECT_EQ(frame.type, 3);
  ASSERT_EQ(frame.payload.size(), 11u);
  EXPECT_EQ(frame.payload[10], std::byte{0x5C});
  EXPECT_EQ(rb.buffered(), 0u);
  EXPECT_FALSE(rb.next_frame(frame));
}

TEST(ReadBuffer, ManyFramesFromOneCommit) {
  std::vector<std::byte> wire;
  for (std::uint8_t t = 1; t <= 5; ++t) {
    const auto f = encode_frame(t, t * 3u);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  ReadBuffer rb;
  const auto dst = rb.writable(wire.size());
  std::memcpy(dst.data(), wire.data(), wire.size());
  rb.commit(wire.size());

  Frame frame;
  for (std::uint8_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(rb.next_frame(frame));
    EXPECT_EQ(frame.type, t);
    EXPECT_EQ(frame.payload.size(), t * 3u);
  }
  EXPECT_FALSE(rb.next_frame(frame));
}

TEST(ReadBuffer, OversizedHeaderThrowsProtocolError) {
  const auto wire = encode_frame(1, 0);
  std::vector<std::byte> bad(wire.begin(), wire.begin() + 5);
  const std::uint32_t len = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) bad[static_cast<std::size_t>(i)] =
      static_cast<std::byte>((len >> (8 * i)) & 0xFF);
  ReadBuffer rb;
  const auto dst = rb.writable(bad.size());
  std::memcpy(dst.data(), bad.data(), bad.size());
  rb.commit(bad.size());
  Frame frame;
  EXPECT_THROW((void)rb.next_frame(frame), ProtocolError);
}

TEST(ReadBuffer, BufferedNonzeroAtMidFrameEof) {
  const auto wire = encode_frame(2, 40);
  ReadBuffer rb;
  const std::size_t partial = wire.size() - 7;
  const auto dst = rb.writable(partial);
  std::memcpy(dst.data(), wire.data(), partial);
  rb.commit(partial);
  Frame frame;
  EXPECT_FALSE(rb.next_frame(frame));
  // What a reactor checks at EOF to tell "clean close" from "died
  // mid-frame".
  EXPECT_GT(rb.buffered(), 0u);
}

// ------------------------------------------------------------ WriteBuffer

TEST(WriteBuffer, StageConsumeRoundTrip) {
  WriteBuffer wb;
  const std::vector<std::byte> p1(10, std::byte{0x11});
  const std::vector<std::byte> p2(20, std::byte{0x22});
  wb.frame(1, p1);
  wb.frame(2, p2);
  const std::size_t total = (5 + 10) + (5 + 20);
  EXPECT_EQ(wb.pending(), total);
  EXPECT_EQ(wb.approx_bytes(), total);

  auto span = wb.stage();
  ASSERT_EQ(span.size(), total);
  const std::byte* stable = span.data();

  // Partial consume: the remaining staged bytes keep their addresses even
  // if new frames arrive meanwhile (an async send may reference them).
  wb.consume(7);
  wb.frame(3, p1);
  span = wb.stage();
  EXPECT_EQ(span.data(), stable + 7);
  EXPECT_EQ(span.size(), total - 7);
  EXPECT_EQ(wb.pending(), total - 7 + 5 + 10);

  // Drain the staged region; the next stage() promotes the queued frame.
  wb.consume(span.size());
  span = wb.stage();
  ASSERT_EQ(span.size(), 5u + 10);
  EXPECT_EQ(static_cast<std::uint8_t>(span[4]), 3);
  wb.consume(span.size());
  EXPECT_TRUE(wb.empty());
  EXPECT_EQ(wb.pending(), 0u);
  EXPECT_TRUE(wb.stage().empty());
}

TEST(WriteBuffer, FullDrainReclaimsBurstCapacity) {
  WriteBuffer wb;
  // A burst far above the retain threshold (64 KiB)...
  const std::vector<std::byte> big(200 * 1024, std::byte{0x77});
  wb.frame(9, big);
  auto span = wb.stage();
  ASSERT_GT(span.size(), 200u * 1024);
  EXPECT_GT(wb.reserve_bytes(), 200u * 1024);
  // ...must not pin its high-water allocation after the queue drains.
  wb.consume(span.size());
  EXPECT_TRUE(wb.empty());
  EXPECT_LT(wb.reserve_bytes(), 128u * 1024);

  // And a small queue keeps its capacity for reuse (no thrash).
  const std::vector<std::byte> small(100, std::byte{0x33});
  wb.frame(1, small);
  span = wb.stage();
  const std::size_t kept = wb.reserve_bytes();
  wb.consume(span.size());
  EXPECT_EQ(wb.reserve_bytes(), kept);
}

TEST(WriteBuffer, FrameWithEncodesInPlaceAfterQueuedFrames) {
  // The in-place routine writes the same bytes as framing a pre-encoded
  // payload, appends after frames already queued, and reports the frame's
  // wire size.
  const DecisionResponse resp{42, 3, 2, 5};
  WireWriter w;
  resp.encode(w);
  WriteBuffer reference;
  reference.frame(2, w.bytes());
  reference.frame(4, {});
  const auto want = reference.stage();

  WriteBuffer wb;
  EXPECT_EQ(wb.frame_with(2, [&resp](WireWriter& out) { resp.encode(out); }), 5u + 24);
  EXPECT_EQ(wb.frame_with(4, [](WireWriter&) {}), 5u);
  const auto got = wb.stage();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
}

TEST(WireWriter, BorrowedWriterAppendsAfterExistingBytes) {
  std::vector<std::byte> sink(3, std::byte{0xEE});
  WireWriter w(sink);
  w.u32(0x04030201);
  w.u8(5);
  ASSERT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink[2], std::byte{0xEE});
  EXPECT_EQ(sink[3], std::byte{0x01});
  EXPECT_EQ(sink[6], std::byte{0x04});
  // bytes() covers only what this writer appended.
  ASSERT_EQ(w.bytes().size(), 5u);
  EXPECT_EQ(w.bytes()[0], std::byte{0x01});
  EXPECT_EQ(w.bytes()[4], std::byte{0x05});
}

TEST(ReadBuffer, ReusedFrameSlotTakesShorterAndLongerPayloads) {
  // The reactor decodes into the same Frame slots round after round; a
  // slot that held a long payload must come back with exactly the short
  // one, and a short slot must grow for a long one.
  std::vector<std::byte> wire = encode_frame(1, 300, std::byte{0x01});
  const auto second = encode_frame(2, 4, std::byte{0x02});
  const auto third = encode_frame(3, 900, std::byte{0x03});
  wire.insert(wire.end(), second.begin(), second.end());
  wire.insert(wire.end(), third.begin(), third.end());
  ReadBuffer rb;
  const auto dst = rb.writable(wire.size());
  std::memcpy(dst.data(), wire.data(), wire.size());
  rb.commit(wire.size());

  Frame slot;
  ASSERT_TRUE(rb.next_frame(slot));
  EXPECT_EQ(slot.payload.size(), 300u);
  ASSERT_TRUE(rb.next_frame(slot));
  EXPECT_EQ(slot.type, 2);
  ASSERT_EQ(slot.payload.size(), 4u);
  EXPECT_EQ(slot.payload[3], std::byte{0x02});
  EXPECT_GE(slot.payload.capacity(), 300u);  // capacity kept for reuse
  ASSERT_TRUE(rb.next_frame(slot));
  EXPECT_EQ(slot.type, 3);
  ASSERT_EQ(slot.payload.size(), 900u);
  EXPECT_EQ(slot.payload[899], std::byte{0x03});
}

TEST(ReadBuffer, DrainAfterLargeFrameReleasesTheBuffer) {
  // A 1 MiB gossip frame arriving in 64 KiB reads grows the buffer to
  // hold it whole; once the frame is consumed the buffer must give that
  // memory back instead of pinning it for the connection's life.
  constexpr std::size_t kChunk = 64 * 1024;
  const std::vector<std::byte> wire =
      encode_frame(static_cast<std::uint8_t>(MsgType::GossipSegments), kMaxPayload);
  ReadBuffer rb;
  Frame frame;
  std::size_t sent = 0;
  std::size_t peak = 0;
  int frames = 0;
  while (sent < wire.size()) {
    const auto dst = rb.writable(kChunk);
    const std::size_t n = std::min({kChunk, dst.size(), wire.size() - sent});
    std::memcpy(dst.data(), wire.data() + sent, n);
    rb.commit(n);
    sent += n;
    peak = std::max(peak, rb.approx_bytes());
    while (rb.next_frame(frame)) ++frames;
  }
  ASSERT_EQ(frames, 1);
  EXPECT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::GossipSegments));
  EXPECT_EQ(frame.payload.size(), kMaxPayload);
  EXPECT_GT(peak, kMaxPayload);
  EXPECT_EQ(rb.buffered(), 0u);
  EXPECT_LE(rb.approx_bytes(), kRetainCapacity);

  // Small frames after it still peel, and a steady small stream keeps
  // its one-chunk buffer instead of reallocating every round.
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::byte> small = encode_frame(1, 40, std::byte{0x42});
    const auto dst = rb.writable(kChunk);
    std::memcpy(dst.data(), small.data(), small.size());
    rb.commit(small.size());
    ASSERT_TRUE(rb.next_frame(frame));
    EXPECT_EQ(frame.payload.size(), 40u);
    EXPECT_EQ(rb.approx_bytes(), kChunk);
  }
}

TEST(FrameSlots, TrimKeepsSteadySlotsAndBoundsTheTotal) {
  // A steady pipeline's slots keep their buffers: nothing to reallocate
  // on the next round.
  std::vector<Frame> steady(16);
  for (Frame& f : steady) f.payload.resize(48);
  std::vector<std::size_t> caps;
  for (const Frame& f : steady) caps.push_back(f.payload.capacity());
  trim_frame_slots(steady);
  ASSERT_EQ(steady.size(), 16u);
  for (std::size_t i = 0; i < steady.size(); ++i) EXPECT_EQ(steady[i].payload.capacity(), caps[i]);

  // Slots each grown just under the retain threshold (a client placing a
  // large frame at a new index every round) must not pin one large buffer
  // per slot, and a burst's extra slots go away.
  std::vector<Frame> grown(300);
  for (Frame& f : grown) f.payload.resize(kRetainCapacity - 1024);
  trim_frame_slots(grown);
  EXPECT_EQ(grown.size(), kRetainSlots);
  EXPECT_LE(grown.capacity(), kRetainSlots);
  std::size_t total = 0;
  for (const Frame& f : grown) total += f.payload.capacity();
  EXPECT_LE(total, kRetainCapacity);

  // One frame over the threshold is released outright.
  std::vector<Frame> big(1);
  big[0].payload.resize(kRetainCapacity + 1);
  trim_frame_slots(big);
  EXPECT_EQ(big[0].payload.capacity(), 0u);
}

/// A DecisionRequest payload with `n_options` options.
std::vector<std::byte> decision_payload(CallId id, std::size_t n_options) {
  DecisionRequest req;
  req.call_id = id;
  req.options.assign(n_options, 1);
  WireWriter w;
  req.encode(w);
  const auto bytes = w.bytes();
  return {bytes.begin(), bytes.end()};
}

/// Serves one batch out of `scratch` the way the controller's decision
/// path does: decode every payload into the reused slots, then size the
/// context and pick arrays.
void serve_batch(DecideScratch& scratch, const std::vector<std::vector<std::byte>>& payloads) {
  const DecideScratch::Lease lease(scratch);
  const auto reqs = scratch.requests(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    WireReader r(payloads[i]);
    DecisionRequest::decode_into(r, reqs[i]);
    ASSERT_EQ(reqs[i].call_id, static_cast<CallId>(i));
  }
  scratch.ctxs.resize(payloads.size());
  scratch.picks.resize(payloads.size());
}

TEST(DecideScratch, SteadyBatchesReuseTheirBuffers) {
  std::vector<std::vector<std::byte>> batch;
  for (std::size_t i = 0; i < 32; ++i) batch.push_back(decision_payload(static_cast<CallId>(i), 24));
  DecideScratch scratch;
  serve_batch(scratch, batch);
  std::vector<const OptionId*> buffers;
  for (const DecisionRequest& r : scratch.reqs) buffers.push_back(r.options.data());
  const std::size_t retained = scratch.retained_bytes();
  for (int round = 0; round < 4; ++round) serve_batch(scratch, batch);
  ASSERT_EQ(scratch.reqs.size(), buffers.size());
  for (std::size_t i = 0; i < buffers.size(); ++i) EXPECT_EQ(scratch.reqs[i].options.data(), buffers[i]);
  EXPECT_EQ(scratch.retained_bytes(), retained);
}

TEST(DecideScratch, LargeRequestAtRisingIndicesStaysBounded) {
  // Each round is k small requests followed by one with 100k options, so
  // the large request lands on a new slot every round.  Without a budget
  // over all slots, every round would pin another ~400 KB.
  const std::size_t bound = kRetainSlots * (sizeof(DecisionRequest) + sizeof(CallContext) +
                                            sizeof(OptionId)) +
                            kRetainCapacity;
  DecideScratch scratch;
  std::vector<std::vector<std::byte>> batch;
  for (std::size_t k = 0; k < kRetainSlots + 8; k += 7) {
    batch.clear();
    for (std::size_t i = 0; i < k; ++i) batch.push_back(decision_payload(static_cast<CallId>(i), 3));
    batch.push_back(decision_payload(static_cast<CallId>(k), 100'000));
    serve_batch(scratch, batch);
    EXPECT_LE(scratch.retained_bytes(), bound) << "after a batch of " << batch.size();
  }
  // A burst past the slot budget shrinks back to it.
  batch.clear();
  for (std::size_t i = 0; i < 2 * kRetainSlots; ++i) {
    batch.push_back(decision_payload(static_cast<CallId>(i), 3));
  }
  serve_batch(scratch, batch);
  EXPECT_LE(scratch.reqs.capacity(), kRetainSlots);
  EXPECT_LE(scratch.retained_bytes(), bound);
}

TEST(WriteBuffer, FlushHandlesEagainMidFrame) {
  // Tiny kernel buffers force flush() to park mid-frame (even mid-header)
  // and pick up exactly where it left off once the reader drains.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  // The writer side must be non-blocking, as in the reactors.
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);

  WriteBuffer wb;
  std::vector<std::byte> expected;
  for (std::uint8_t t = 1; t <= 40; ++t) {
    const std::vector<std::byte> payload(1000 + t, static_cast<std::byte>(t));
    wb.frame(t, payload);
    const auto f = encode_frame(t, payload.size(), static_cast<std::byte>(t));
    expected.insert(expected.end(), f.begin(), f.end());
  }

  std::vector<std::byte> received;
  received.reserve(expected.size());
  char buf[2048];
  bool drained = wb.flush(fds[0]);
  EXPECT_FALSE(drained);  // ~41 KB cannot fit a 4 KB socket buffer
  int spins = 0;
  while (!drained) {
    ASSERT_LT(++spins, 10000);
    const ssize_t n = ::read(fds[1], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    const auto* p = reinterpret_cast<const std::byte*>(buf);
    received.insert(received.end(), p, p + n);
    drained = wb.flush(fds[0]);
  }
  EXPECT_TRUE(wb.empty());
  for (;;) {
    const ssize_t n = ::read(fds[1], buf, sizeof(buf));
    if (n <= 0) break;
    const auto* p = reinterpret_cast<const std::byte*>(buf);
    received.insert(received.end(), p, p + n);
    if (received.size() >= expected.size()) break;
  }
  // Byte-exact: no frame reordered, duplicated, or torn by the partial
  // writes.
  EXPECT_EQ(received, expected);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WriteBuffer, FlushReportsHardErrors) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
  ::close(fds[1]);  // peer gone: writes now fail hard (EPIPE), not EAGAIN
  WriteBuffer wb;
  const std::vector<std::byte> payload(64, std::byte{0x01});
  wb.frame(1, payload);
  EXPECT_THROW((void)wb.flush(fds[0]), std::system_error);
  ::close(fds[0]);
}

}  // namespace
}  // namespace via
