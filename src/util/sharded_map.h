// Striped-lock concurrent map: a FlatMap split into power-of-two shards,
// each guarded by its own std::shared_mutex.  Used for the ground truth's
// lazily-filled memoization caches so that many simulation runs can read
// one GroundTruth concurrently (see DESIGN.md "Threading model").
//
// The locking contract is deliberately minimal: callers get the shard's
// FlatMap under a shared (with_shared) or exclusive (with_unique) lock and
// must not let references or iterators escape the callback — except spans
// over heap storage owned by an inserted value (e.g. a std::vector's
// buffer), which stay valid after the lock is released because inserted
// values are never mutated or erased (rehashes move the vector object, not
// its buffer; clear() is only legal when no readers are active).
//
// Determinism: all cached values in this codebase are pure functions of
// their key, so concurrent fill order cannot change what a reader observes
// — only *when* the value was computed.  That property, not the locks, is
// what keeps parallel replays bit-identical to serial ones.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "util/cacheline.h"
#include "util/flat_map.h"

namespace via {

template <typename Value, std::size_t kShards = 16>
class ShardedMap {
  static_assert((kShards & (kShards - 1)) == 0, "shard count must be a power of two");

 public:
  /// Runs fn(const FlatMap<Value>&) under the key's shard read lock.
  template <typename Fn>
  decltype(auto) with_shared(std::uint64_t key, Fn&& fn) const {
    const Shard& shard = shards_[shard_index(key)];
    std::shared_lock lock(shard.mutex);
    return fn(shard.map);
  }

  /// Runs fn(FlatMap<Value>&) under the key's shard write lock.
  template <typename Fn>
  decltype(auto) with_unique(std::uint64_t key, Fn&& fn) {
    Shard& shard = shards_[shard_index(key)];
    std::unique_lock lock(shard.mutex);
    return fn(shard.map);
  }

  /// Exclusive clear of every shard.  Not safe concurrently with readers
  /// that retain spans into cached vectors (their buffers are freed).
  void clear() {
    for (Shard& shard : shards_) {
      std::unique_lock lock(shard.mutex);
      shard.map.clear();
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mutex);
      n += shard.map.size();
    }
    return n;
  }

  /// Visits every entry as fn(key, const Value&), shard by shard under the
  /// shard's read lock.  References must not escape the callback.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mutex);
      shard.map.for_each(fn);
    }
  }

  /// Slot-array bytes across all shards; values' own heap storage is not
  /// followed (callers add that via for_each when they need it).
  [[nodiscard]] std::size_t approx_bytes() const {
    std::size_t n = sizeof(*this);
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mutex);
      n += shard.map.approx_bytes();
    }
    return n;
  }

 private:
  /// Padded to the destructive-interference size, like PairStateStore's
  /// stripes: unpadded, neighbouring shards' lock words share cache lines.
  struct alignas(kDestructiveInterferenceSize) Shard {
    mutable std::shared_mutex mutex;
    FlatMap<Value> map;
  };

  /// Shards select on high hash bits; FlatMap probes on low bits, so the
  /// per-shard tables stay uniformly filled.
  [[nodiscard]] static std::size_t shard_index(std::uint64_t key) noexcept {
    return static_cast<std::size_t>(splitmix64(key) >> 58) & (kShards - 1);
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace via
