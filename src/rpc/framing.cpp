#include "rpc/framing.h"

namespace via {

void begin_frame(std::vector<std::byte>& frame) {
  frame.assign(kFrameHeaderBytes, std::byte{0});
}

void send_framed(TcpConnection& conn, std::uint8_t type, std::vector<std::byte>& frame) {
  const std::size_t payload = frame.size() - kFrameHeaderBytes;
  if (payload > kMaxPayload) throw ProtocolError("payload too large");
  write_frame_header(frame.data(), static_cast<std::uint32_t>(payload), type);
  conn.send_all(frame);
}

void send_frame(TcpConnection& conn, std::uint8_t type, std::span<const std::byte> payload) {
  if (payload.size() > kMaxPayload) throw ProtocolError("payload too large");
  std::vector<std::byte> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  begin_frame(frame);
  frame.insert(frame.end(), payload.begin(), payload.end());
  send_framed(conn, type, frame);
}

bool recv_frame(TcpConnection& conn, Frame& out) {
  std::byte header[kFrameHeaderBytes];
  if (!conn.recv_all(header)) return false;
  const std::uint32_t len = frame_payload_len(header);
  if (len > kMaxPayload) throw ProtocolError("frame too large");
  out.type = static_cast<std::uint8_t>(header[4]);
  out.payload.resize(len);
  if (len > 0 && !conn.recv_all(out.payload)) {
    throw std::runtime_error("connection closed mid-frame");
  }
  return true;
}

}  // namespace via
