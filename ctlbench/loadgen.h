// Client-side plumbing shared by the load generators.  Frames are encoded
// and peeled with the server's own buffers (rpc/conn_buffer.h), so one
// recv() can yield many pipelined replies.
#pragma once

#include <sys/socket.h>
#include <time.h>

#include <cstdint>

#include "rpc/conn_buffer.h"
#include "rpc/messages.h"

namespace ctlbench {

/// Overwrites the little-endian i64 at `at` (a DecisionRequest's call id
/// sits first in its payload).
inline void patch_i64(std::byte* at, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) at[i] = static_cast<std::byte>((u >> (8 * i)) & 0xFF);
}

/// One recv() of whatever `fd` holds into `in`; false on EOF or error.
inline bool recv_into(int fd, via::ReadBuffer& in) {
  const std::span<std::byte> room = in.writable(64 * 1024);
  const ssize_t n = ::recv(fd, room.data(), room.size(), 0);
  if (n <= 0) return false;
  in.commit(static_cast<std::size_t>(n));
  return true;
}

/// Sends every frame queued in `out` on the blocking `sock`.
inline void send_queued(via::TcpConnection& sock, via::WriteBuffer& out) {
  for (auto span = out.stage(); !span.empty(); span = out.stage()) {
    sock.send_all(span);
    out.consume(span.size());
  }
}

inline std::int64_t cpu_ns(clockid_t clock) noexcept {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace ctlbench
