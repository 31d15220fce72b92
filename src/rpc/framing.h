// Wire framing and serialization for the controller protocol.
//
// Frame layout:  [u32 payload_len][u8 msg_type][payload bytes]
// All integers little-endian; doubles as IEEE-754 bit patterns.  Payloads
// are bounded (kMaxPayload) so a corrupt peer cannot force huge
// allocations.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rpc/socket.h"

namespace via {

// WireWriter and WireReader copy integers with memcpy, so the host's byte
// order must be the wire's.
static_assert(std::endian::native == std::endian::little,
              "the wire codec assumes a little-endian host");

inline constexpr std::size_t kMaxPayload = 1 << 20;
/// Frame header bytes on the wire: u32 payload length + u8 message type.
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// The peer sent bytes that violate the protocol: an oversized frame, a
/// truncated message body, or an unexpected message type.  Distinct from
/// I/O failures (std::system_error / runtime_error) so the server can
/// answer with an explicit Error frame instead of just dropping the
/// connection, and so the client can classify it as non-retryable.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends primitive values to a byte buffer (little-endian).  A
/// default-constructed writer owns its buffer; a writer constructed over a
/// vector borrows it and appends after the bytes already there, which is
/// how replies are encoded straight onto a connection's write queue
/// (WriteBuffer::frame_with).
class WireWriter {
 public:
  WireWriter() : buf_(&own_) { own_.reserve(kInitialCapacity); }
  explicit WireWriter(std::vector<std::byte>& sink) noexcept
      : buf_(&sink), start_(sink.size()) {}
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void u8(std::uint8_t v) { buf_->push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_->insert(buf_->end(), p, p + s.size());
  }
  void raw(std::span<const std::byte> bytes) {
    buf_->insert(buf_->end(), bytes.begin(), bytes.end());
  }

  /// The bytes this writer appended.
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return std::span<const std::byte>(*buf_).subspan(start_);
  }

 private:
  /// Covers every fixed-layout message, so an owned buffer allocates once.
  static constexpr std::size_t kInitialCapacity = 64;

  /// Grows the buffer once per value and stores its bytes in place.
  template <typename T>
  void append_le(T v) {
    const std::size_t at = buf_->size();
    buf_->resize(at + sizeof(T));
    std::memcpy(buf_->data() + at, &v, sizeof(T));
  }
  std::vector<std::byte> own_;
  std::vector<std::byte>* buf_;
  std::size_t start_ = 0;  ///< offset of the first byte this writer appended
};

/// Reads primitive values from a byte buffer; throws on underrun.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  [[nodiscard]] std::uint16_t u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(read_le<std::uint32_t>()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    if (n > kMaxPayload) throw ProtocolError("string too large");
    const auto bytes = take(n);
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }
  [[nodiscard]] bool exhausted() const noexcept { return data_.empty(); }
  /// Unconsumed bytes; lets message decoders bounds-check declared element
  /// counts against what the frame can actually hold.
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size(); }

 private:
  std::span<const std::byte> take(std::size_t n) {
    if (data_.size() < n) throw ProtocolError("message underrun");
    const auto out = data_.first(n);
    data_ = data_.subspan(n);
    return out;
  }
  template <typename T>
  [[nodiscard]] T read_le() {
    const auto bytes = take(sizeof(T));
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }
  std::span<const std::byte> data_;
};

/// A decoded frame.
struct Frame {
  std::uint8_t type = 0;
  std::vector<std::byte> payload;
};

/// Starts a frame in `frame`: clears it and leaves room for the header, so
/// a WireWriter borrowing `frame` appends the payload right behind it.
/// Reusing one such buffer is how a blocking sender frames without
/// allocating (ControllerClient keeps one per client).
void begin_frame(std::vector<std::byte>& frame);

/// Writes the header of a frame started with begin_frame() and sends header
/// and payload as ONE send_all call, which is what lets the fault injector
/// (faulty_connection.h) act on whole frames.  Rewriting the header is
/// idempotent, so a retry may send the same buffer again.  Throws on I/O
/// error or an oversized payload.
void send_framed(TcpConnection& conn, std::uint8_t type, std::vector<std::byte>& frame);

/// Sends one frame from a separate payload through begin_frame() and
/// send_framed(), copying it into a fresh buffer: for one-off frames (a
/// client's Shutdown) and raw-socket tests.  Throws on I/O error.
void send_frame(TcpConnection& conn, std::uint8_t type, std::span<const std::byte> payload);

/// Receives one frame.  Returns false on clean EOF before a frame starts;
/// throws on protocol violation or I/O error.
[[nodiscard]] bool recv_frame(TcpConnection& conn, Frame& out);

}  // namespace via
