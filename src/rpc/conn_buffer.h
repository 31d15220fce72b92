// Per-connection byte buffers for the event-driven reactor (DESIGN.md §6h/§6j).
//
// A non-blocking socket hands the reactor arbitrary byte chunks, so frame
// boundaries no longer line up with read/write calls.  ReadBuffer
// accumulates inbound bytes and yields complete frames incrementally —
// one readiness event can surface many frames (the batched-decode path) or
// none (a partial frame waiting for its tail).  WriteBuffer queues encoded
// reply frames and flushes as much as the socket accepts, leaving the rest
// for the next EPOLLOUT.
//
// WriteBuffer keeps two vectors: `buf_` accepts new frames (and may
// reallocate freely), while `staged_` holds the bytes currently offered to
// the socket and is never touched until consume() retires them, so a span
// returned by stage() stays valid while more frames queue.  stage()
// promotes queued bytes into the staged vector with a swap (zero copy when
// the staged side is empty).  flush(fd) is built on the same stage/consume
// pair, which callers that write the staged span themselves (the
// benchmark's load generators) also use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "rpc/framing.h"

namespace via {

/// Reusable buffers whose capacity grew past this are released instead of
/// kept for reuse (a drained write queue, a decoded frame slot, a decoded
/// request's options), so one burst or one large frame does not pin its
/// high-water allocation.  64 KiB ≈ one read chunk.
inline constexpr std::size_t kRetainCapacity = 64 * 1024;

/// Reusable slots (decoded frames, decoded requests) kept between rounds; a
/// pipelining client's usual batch fits, a burst's extra slots are destroyed.
inline constexpr std::size_t kRetainSlots = 256;

/// Trims slots kept for reuse between rounds to at most kRetainSlots slots
/// whose buffers (`buffer_of(slot)`, a std::vector) hold at most
/// kRetainCapacity bytes between them; buffers past that budget are
/// released.  A per-slot limit alone would let a client grow a different
/// slot on each round and pin one large buffer per slot.
template <typename Slot, typename BufferOf>
void trim_reuse_slots(std::vector<Slot>& slots, BufferOf buffer_of) noexcept {
  if (slots.capacity() > kRetainSlots) {
    if (slots.size() > kRetainSlots) slots.resize(kRetainSlots);
    slots.shrink_to_fit();
  }
  std::size_t kept = 0;
  for (Slot& slot : slots) {
    auto& buf = buffer_of(slot);
    using Buffer = std::remove_reference_t<decltype(buf)>;
    const std::size_t held = buf.capacity() * sizeof(typename Buffer::value_type);
    if (kept + held > kRetainCapacity) {
      buf = Buffer();  // "= {}" would clear, keeping capacity
    } else {
      kept += held;
    }
  }
}

/// trim_reuse_slots over a connection's decoded-frame slots.
inline void trim_frame_slots(std::vector<Frame>& slots) noexcept {
  trim_reuse_slots(slots, [](Frame& f) -> std::vector<std::byte>& { return f.payload; });
}

/// Inbound byte accumulator with incremental frame decode.
class ReadBuffer {
 public:
  /// A span of at least `min_size` writable bytes at the buffer's tail;
  /// recv(2) directly into it, then commit() the byte count actually read.
  /// Compacts the consumed prefix away when it dominates the buffer.
  [[nodiscard]] std::span<std::byte> writable(std::size_t min_size);
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Extracts the next complete frame.  Returns false when more bytes are
  /// needed.  Throws ProtocolError when the buffered header declares a
  /// payload over kMaxPayload — the stream can't be resynchronized after
  /// that, so the caller must close the connection.
  [[nodiscard]] bool next_frame(Frame& out);

  /// Bytes received but not yet consumed as frames; nonzero at EOF means
  /// the peer died mid-frame.
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

  /// Heap bytes currently held (capacity, not live bytes) — RSS accounting.
  /// Once the buffered bytes drain, a buffer grown past kRetainCapacity
  /// (by a large frame) is released.
  [[nodiscard]] std::size_t approx_bytes() const noexcept { return buf_.capacity(); }

 private:
  std::vector<std::byte> buf_;
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last received byte
};

/// Outbound frame queue with partial-write draining and a pointer-stable
/// staged region.
class WriteBuffer {
 public:
  /// Encodes one frame onto the queue in place (append_frame): reserves
  /// the header, runs `encode(WireWriter&)` straight onto the queue, then
  /// patches the payload length in.  Returns the frame's wire size.
  template <typename EncodeFn>
  std::size_t frame_with(std::uint8_t type, EncodeFn&& encode) {
    return append_frame(buf_, type, std::forward<EncodeFn>(encode));
  }

  /// Queues one frame with an already-encoded payload.
  void frame(std::uint8_t type, std::span<const std::byte> payload) {
    frame_with(type, [payload](WireWriter& w) { w.raw(payload); });
  }

  [[nodiscard]] bool empty() const noexcept {
    return buf_.empty() && staged_pos_ == staged_.size();
  }
  /// Unsent bytes across both the queued and staged regions.
  [[nodiscard]] std::size_t pending() const noexcept {
    return buf_.size() + (staged_.size() - staged_pos_);
  }
  /// Same as pending(); the name the backpressure caps read against.
  [[nodiscard]] std::size_t approx_bytes() const noexcept { return pending(); }

  /// Heap bytes currently held (capacity across both vectors), making the
  /// full-drain capacity reclaim observable.
  [[nodiscard]] std::size_t reserve_bytes() const noexcept {
    return buf_.capacity() + staged_.capacity();
  }

  /// Promotes queued bytes into the staged region and returns the
  /// contiguous unsent span.  The returned bytes are pointer-stable until
  /// consume() retires them — frame() appends go to the other vector.
  /// When the staged region still has unsent bytes, no promotion happens
  /// (a caller may still hold the span); the remaining staged span is
  /// returned as-is.  Empty span means nothing to send.
  [[nodiscard]] std::span<const std::byte> stage();

  /// True when stage() would promote or there are already staged unsent
  /// bytes — i.e. a send should be (re)issued.
  [[nodiscard]] bool has_unsent() const noexcept { return !empty(); }

  /// Retires `n` bytes of the span last returned by stage() (the socket
  /// accepted them).  On full drain of the staged region, reclaims its
  /// capacity when it outgrew the retain threshold, so a burst does not
  /// pin its high-water allocation for the connection's lifetime.
  void consume(std::size_t n) noexcept;

  /// Writes to `fd` until the queue drains or the socket would block.
  /// Returns true when drained (the caller can disarm EPOLLOUT).  Throws
  /// std::system_error on a hard write error.  Built on stage()/consume(),
  /// so it must not be mixed with a caller still holding a staged span.
  [[nodiscard]] bool flush(int fd);

 private:
  std::vector<std::byte> buf_;      ///< accepts new frames; may reallocate
  std::vector<std::byte> staged_;   ///< offered to the socket; pointer-stable
  std::size_t staged_pos_ = 0;      ///< first unsent byte within staged_
};

}  // namespace via
