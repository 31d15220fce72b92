// Cache-line geometry and a stable per-thread slot id.
//
// The concurrent-choose plateau traced to two kinds of cache-line
// ping-pong: adjacent PairStateStore stripes sharing lines, and every
// serving thread hammering the same relaxed-atomic decision counters.
// `kDestructiveInterferenceSize` gives the padding granularity;
// tls_counter_slot() picks the per-thread cell of a sharded structure
// (obs::Counter's cells, obs::DecisionTrace's shards) so each thread
// writes its own lines.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>

namespace via {

// GCC warns that std::hardware_destructive_interference_size may differ
// across -mtune targets (ABI hazard for public headers); this is an internal
// constant, so pin it here once with the warning silenced.
#if defined(__cpp_lib_hardware_interference_size)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
inline constexpr std::size_t kDestructiveInterferenceSize =
    std::hardware_destructive_interference_size;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
inline constexpr std::size_t kDestructiveInterferenceSize = 64;
#endif

/// Stable small id for the calling thread, assigned on first use.  Used to
/// pick a per-thread cell or shard; ids are never reused, so long-lived thread
/// pools each keep a private cell while short-lived threads wrap around.
[[nodiscard]] inline std::size_t tls_counter_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace via
