#include "rpc/conn_buffer.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace via {

std::span<std::byte> ReadBuffer::writable(std::size_t min_size) {
  if (begin_ == end_) {
    begin_ = end_ = 0;
  } else if (begin_ >= buf_.size() / 2) {
    // The consumed prefix dominates: slide the live bytes down so the
    // buffer doesn't grow without bound on a long-lived connection.
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (buf_.size() - end_ < min_size) buf_.resize(end_ + min_size);
  return std::span(buf_).subspan(end_, buf_.size() - end_);
}

bool ReadBuffer::next_frame(Frame& out) {
  const std::size_t avail = end_ - begin_;
  if (avail < kFrameHeaderBytes) return false;
  const std::byte* p = buf_.data() + begin_;
  const std::uint32_t len = frame_payload_len(p);
  if (len > kMaxPayload) throw ProtocolError("frame too large");
  if (avail < kFrameHeaderBytes + len) return false;
  out.type = static_cast<std::uint8_t>(p[4]);
  out.payload.assign(p + kFrameHeaderBytes, p + kFrameHeaderBytes + len);
  begin_ += kFrameHeaderBytes + len;
  if (begin_ == end_ && buf_.capacity() > kRetainCapacity) {
    // Drained after a large frame: give the pages back, as WriteBuffer
    // does, so one big frame does not pin its buffer for the
    // connection's life.  writable() regrows it to one read chunk.
    buf_ = std::vector<std::byte>();
    begin_ = end_ = 0;
  }
  return true;
}

std::span<const std::byte> WriteBuffer::stage() {
  if (staged_pos_ == staged_.size() && !buf_.empty()) {
    // Staged region fully retired: promote the queued bytes wholesale.
    // swap() keeps the drained staged_ capacity around as the next buf_,
    // so steady-state traffic ping-pongs two allocations with zero copies.
    staged_.clear();
    std::swap(staged_, buf_);
    staged_pos_ = 0;
  }
  return std::span<const std::byte>(staged_).subspan(staged_pos_);
}

void WriteBuffer::consume(std::size_t n) noexcept {
  staged_pos_ += n;
  if (staged_pos_ < staged_.size()) return;
  staged_pos_ = 0;
  staged_.clear();
  if (staged_.capacity() > kRetainCapacity) {
    // Full drain of an oversized staging area: give the pages back.  At
    // 10k connections a transient burst otherwise pins its high-water
    // allocation per connection for the rest of the connection's life.
    staged_.shrink_to_fit();
  }
}

bool WriteBuffer::flush(int fd) {
  for (auto span = stage(); !span.empty(); span = stage()) {
    const ssize_t n = ::send(fd, span.data(), span.size(), MSG_NOSIGNAL);
    if (n > 0) {
      consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    throw std::system_error(errno, std::generic_category(), "send");
  }
  return true;
}

}  // namespace via
