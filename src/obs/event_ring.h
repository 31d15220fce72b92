// The one bounded event ring behind every telemetry event stream:
// decision records (obs::DecisionTrace), request-trace spans
// (obs::Tracer) and flight-recorder events (obs::FlightRecorder).
//
// Sharding.  Recording threads never share a lock on the common path: the
// ring is split into up to kMaxShards shards, one per recording thread
// (picked by tls_counter_slot(); threads past kMaxShards share).  A shard
// is created on its thread's first add() and then owns its own mutex and a
// ring of `capacity` events, reserved when the shard is created, so add()
// neither contends nor allocates once its shard exists (beyond what
// copying a T allocates).  Capacity 0 disables the ring: add() returns at
// once and nothing is ever allocated.
//
// Bounds and order.  The bound is per recording thread: each shard keeps
// its thread's newest `capacity` events, so a ring fed from N threads
// holds up to min(N, kMaxShards) * capacity events.  snapshot()
// concatenates the shards in shard order, each oldest first, then sorts by
// `Order` when one is given (spans by start time, flight events by seq).
//
// Mirroring.  A ring built with a `mirror` also adds every event it
// records to that ring.  Tracer and FlightRecorder mirror into their
// payload's process() ring, so one dump (a failing test's artifact) sees
// the events of every component in the process.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <span>
#include <type_traits>
#include <vector>

#include "util/cacheline.h"

namespace via::obs {

/// Events each shard of a telemetry ring keeps unless its owner says
/// otherwise.
inline constexpr std::size_t kEventRingCapacity = 4096;

/// `Order` is a comparator type for snapshot(), or void to keep shard
/// order.
template <typename T, typename Order = void>
class EventRing {
 public:
  static constexpr std::size_t kMaxShards = 16;  // power of two

  explicit EventRing(std::size_t capacity = kEventRingCapacity, EventRing* mirror = nullptr)
      : capacity_(capacity), mirror_(mirror) {}

  ~EventRing() {
    for (std::atomic<Shard*>& shard : shards_) delete shard.load(std::memory_order_relaxed);
  }

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// False when constructed with capacity 0 (the ring is off).
  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  /// Events each shard keeps (the per-thread bound).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void add(const T& event) {
    add(event, [](std::size_t, std::size_t, const T*) {});
  }

  /// Adds `event` to the calling thread's shard, overwriting the shard's
  /// oldest event once it is full.  Before the write, under the shard's
  /// mutex, calls on_write(shard, slot, evicted): the shard's index, the
  /// slot the event goes to and the event it overwrites (nullptr while the
  /// shard is still filling).
  template <typename OnWrite>
  void add(const T& event, OnWrite&& on_write) {
    if (capacity_ == 0) return;
    const std::size_t index = own_shard_index();
    Shard& shard = own_shard(index);
    {
      const std::lock_guard lock(shard.mutex);
      if (shard.events.size() < capacity_) {
        on_write(index, shard.events.size(), static_cast<const T*>(nullptr));
        shard.events.push_back(event);
      } else {
        on_write(index, shard.next, static_cast<const T*>(&shard.events[shard.next]));
        shard.events[shard.next] = event;
        shard.next = (shard.next + 1) % capacity_;
      }
      ++shard.recorded;
    }
    if (mirror_ != nullptr) mirror_->add(event);
  }

  /// Calls fn(shard, events) on each created shard under its mutex, the
  /// calling thread's own shard first, until fn returns true.  `events`
  /// are the shard's slots as on_write numbered them.
  template <typename Fn>
  void visit_own_first(Fn&& fn) {
    const std::size_t own = own_shard_index();
    for (std::size_t i = 0; i < kMaxShards; ++i) {
      const std::size_t index = (own + i) & (kMaxShards - 1);
      Shard* shard = shards_[index].load(std::memory_order_acquire);
      if (shard == nullptr) continue;
      const std::lock_guard lock(shard->mutex);
      if (fn(index, std::span<T>(shard->events))) return;
    }
  }

  /// Resident events: shard by shard, each oldest first, then sorted by
  /// `Order` when one is given.
  [[nodiscard]] std::vector<T> snapshot() const {
    std::vector<T> out;
    for_each_shard([&](const Shard& shard) {
      const auto split = shard.events.begin() + static_cast<std::ptrdiff_t>(shard.next);
      out.insert(out.end(), split, shard.events.end());
      out.insert(out.end(), shard.events.begin(), split);
    });
    if constexpr (!std::is_void_v<Order>) std::sort(out.begin(), out.end(), Order{});
    return out;
  }

  /// Writes the resident events as JSONL (T::to_jsonl per line), in
  /// snapshot() order.
  void export_jsonl(std::ostream& os) const {
    for (const T& event : snapshot()) os << event.to_jsonl() << '\n';
  }

  /// Total ever added.
  [[nodiscard]] std::int64_t recorded() const {
    std::int64_t total = 0;
    for_each_shard([&](const Shard& shard) { total += shard.recorded; });
    return total;
  }

  /// Added but no longer resident (overwritten or cleared):
  /// recorded() == snapshot().size() + dropped().
  [[nodiscard]] std::int64_t dropped() const {
    std::int64_t total = 0;
    for_each_shard([&](const Shard& shard) {
      total += shard.recorded - static_cast<std::int64_t>(shard.events.size());
    });
    return total;
  }

  /// Drops every resident event; shards keep their reserved slots.
  void clear() {
    for (std::atomic<Shard*>& cell : shards_) {
      Shard* shard = cell.load(std::memory_order_acquire);
      if (shard == nullptr) continue;
      const std::lock_guard lock(shard->mutex);
      shard->events.clear();
      shard->next = 0;
    }
  }

  /// The process-wide ring for this payload, the mirror of every Tracer
  /// or FlightRecorder.
  [[nodiscard]] static EventRing& process() {
    static EventRing instance;
    return instance;
  }

 private:
  struct alignas(kDestructiveInterferenceSize) Shard {
    explicit Shard(std::size_t capacity) { events.reserve(capacity); }

    mutable std::mutex mutex;
    std::vector<T> events;  ///< fills to capacity, then wraps at `next`
    std::size_t next = 0;   ///< slot the next event overwrites once full
    std::int64_t recorded = 0;
  };

  [[nodiscard]] static std::size_t own_shard_index() noexcept {
    return tls_counter_slot() & (kMaxShards - 1);
  }

  [[nodiscard]] Shard& own_shard(std::size_t index) {
    std::atomic<Shard*>& cell = shards_[index];
    if (Shard* shard = cell.load(std::memory_order_acquire)) return *shard;
    const std::lock_guard lock(create_mutex_);
    Shard* shard = cell.load(std::memory_order_relaxed);
    if (shard == nullptr) {
      shard = new Shard(capacity_);
      cell.store(shard, std::memory_order_release);
    }
    return *shard;
  }

  /// Runs fn(const Shard&) on every created shard, each under its mutex.
  template <typename Fn>
  void for_each_shard(Fn&& fn) const {
    for (const std::atomic<Shard*>& cell : shards_) {
      const Shard* shard = cell.load(std::memory_order_acquire);
      if (shard == nullptr) continue;
      const std::lock_guard lock(shard->mutex);
      fn(*shard);
    }
  }

  const std::size_t capacity_;
  EventRing* const mirror_;
  std::atomic<Shard*> shards_[kMaxShards] = {};  ///< created once, freed by ~EventRing
  std::mutex create_mutex_;                      ///< serializes shard creation
};

}  // namespace via::obs
