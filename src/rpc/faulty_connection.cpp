#include "rpc/faulty_connection.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "rpc/errors.h"
#include "rpc/framing.h"
#include "util/rng.h"

namespace via {

FaultAction FaultSchedule::next_action() {
  const std::int64_t frame = frames_.fetch_add(1, std::memory_order_relaxed);
  if (config_.max_faults >= 0 &&
      injected_.load(std::memory_order_relaxed) >= config_.max_faults) {
    return FaultAction::Pass;
  }
  // One deterministic draw per frame; the cumulative-probability ladder
  // mirrors how the config reads.
  const double u = hashed_uniform(hash_mix(config_.seed, static_cast<std::uint64_t>(frame)));
  double edge = config_.drop_prob;
  FaultAction action = FaultAction::Pass;
  if (u < edge) {
    action = FaultAction::Drop;
  } else if (u < (edge += config_.delay_prob)) {
    action = FaultAction::Delay;
  } else if (u < (edge += config_.truncate_prob)) {
    action = FaultAction::Truncate;
  } else if (u < (edge += config_.reset_prob)) {
    action = FaultAction::Reset;
  }
  if (action != FaultAction::Pass) injected_.fetch_add(1, std::memory_order_relaxed);
  return action;
}

void FaultyConnection::begin_frame() {
  frame_size_ = header_.size() + frame_payload_len(header_.data());
  frame_sent_ = 0;
  header_have_ = 0;
  // One action per frame, drawn exactly when the legacy whole-frame path
  // drew it, so (seed, probabilities) still injects the same sequence.
  action_ = schedule_->next_action();
  if (action_ == FaultAction::Delay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(schedule_->config().delay_ms));
  }
  if (action_ == FaultAction::Reset) {
    close();
    frame_size_ = frame_sent_ = 0;
    throw RpcError(RpcErrorKind::Reset, "injected reset");
  }
  emit(header_);
}

void FaultyConnection::emit(std::span<const std::byte> chunk) {
  switch (action_) {
    case FaultAction::Pass:
    case FaultAction::Delay:
      TcpConnection::send_all(chunk);
      frame_sent_ += chunk.size();
      return;
    case FaultAction::Drop:
      // The peer never sees the request; the caller's recv deadline fires.
      frame_sent_ += chunk.size();
      return;
    case FaultAction::Truncate: {
      // Half a frame (byte-identical to the legacy `data.first(size / 2)`),
      // then a close: the peer sees a mid-frame EOF.
      const std::size_t half = frame_size_ / 2;
      if (frame_sent_ < half) {
        const std::size_t n = std::min(chunk.size(), half - frame_sent_);
        TcpConnection::send_all(chunk.first(n));
        frame_sent_ += n;
        if (frame_sent_ < half) return;  // still under the cut point
      }
      close();
      frame_size_ = frame_sent_ = 0;
      header_have_ = 0;
      throw RpcError(RpcErrorKind::Reset, "injected truncation");
    }
    case FaultAction::Reset:
      return;  // unreachable: Reset throws in begin_frame()
  }
}

void FaultyConnection::send_all(std::span<const std::byte> data) {
  while (!data.empty()) {
    if (frame_sent_ == frame_size_) {
      // At a frame boundary: reassemble the header, possibly across calls.
      const std::size_t take = std::min(header_.size() - header_have_, data.size());
      std::memcpy(header_.data() + header_have_, data.data(), take);
      header_have_ += take;
      data = data.subspan(take);
      if (header_have_ < header_.size()) return;  // partial header buffered
      begin_frame();
      continue;
    }
    const std::size_t take = std::min(frame_size_ - frame_sent_, data.size());
    emit(data.first(take));
    data = data.subspan(take);
  }
}

}  // namespace via
