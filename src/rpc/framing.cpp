#include "rpc/framing.h"

namespace via {

void send_frame(TcpConnection& conn, std::uint8_t type, std::span<const std::byte> payload) {
  if (payload.size() > kMaxPayload) throw ProtocolError("payload too large");
  // Header and payload go out as ONE send_all call: besides saving a
  // syscall, this is what lets the fault injector (faulty_connection.h)
  // drop/delay/truncate at whole-frame granularity.
  std::vector<std::byte> frame(kFrameHeaderBytes + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    frame[i] = static_cast<std::byte>((len >> (8 * i)) & 0xFF);
  }
  frame[4] = static_cast<std::byte>(type);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(), payload.size());
  }
  conn.send_all(frame);
}

bool recv_frame(TcpConnection& conn, Frame& out) {
  std::byte header[kFrameHeaderBytes];
  if (!conn.recv_all(header)) return false;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxPayload) throw ProtocolError("frame too large");
  out.type = static_cast<std::uint8_t>(header[4]);
  out.payload.resize(len);
  if (len > 0 && !conn.recv_all(out.payload)) {
    throw std::runtime_error("connection closed mid-frame");
  }
  return true;
}

}  // namespace via
