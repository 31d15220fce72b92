// Process-wide metrics substrate for the telemetry subsystem.
//
// Three primitive instruments, all safe to update concurrently and designed
// so the hot path is a handful of relaxed atomics:
//   - Counter:          monotonically increasing int64 (decisions, bytes, ...),
//                       sharded per thread so concurrent increments do not
//                       share a cache line
//   - Gauge:            last-written double (coverage, segment counts, ...)
//   - LatencyHistogram: fixed cumulative-bucket histogram ("le" semantics,
//                       like Prometheus) with an atomic count/sum
//
// Instruments live inside a MetricsRegistry, which owns them at stable
// addresses: callers look a name up once (mutex-protected) and cache the
// returned reference for the hot path.  snapshot() produces a plain-data
// copy that exporters (table / JSON / Prometheus, see obs/export.h) render
// and that RunResult can carry by value.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/cacheline.h"

namespace via::obs {

/// Monotonic counter sharded across cache-line-padded cells, one per
/// recording thread (tls_counter_slot(); threads past kCells share).
/// inc() touches only the calling thread's cell, so serving threads that
/// all bump the same counter per decision do not bounce one line between
/// them; value() folds the cells and is approximate under concurrent
/// increments, exactly like a single relaxed atomic read would be.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::int64_t delta = 1) noexcept {
    cells_[tls_counter_slot() & (kCells - 1)].v.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const Cell& cell : cells_) sum += cell.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr std::size_t kCells = 16;  // power of two; covers typical core counts
  struct alignas(kDestructiveInterferenceSize) Cell {
    std::atomic<std::int64_t> v{0};
  };
  Cell cells_[kCells];
};

class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

struct HistogramSample;

/// Histogram over fixed upper bounds (a value lands in the first bucket
/// whose bound is >= it; values beyond the last bound land in an implicit
/// overflow bucket).  Bucket counts, total count, and sum are atomics, so
/// observe() is lock-free.
class LatencyHistogram {
 public:
  /// `upper_bounds` must be sorted ascending and non-empty.
  explicit LatencyHistogram(std::span<const double> upper_bounds);

  void observe(double v) noexcept;

  /// Folds a snapshot of a same-shaped histogram into this one (exact
  /// bucket/count/sum addition).  No-op on bucket-layout mismatch.
  void merge(const HistogramSample& sample) noexcept;

  /// Bucket count including the overflow bucket.
  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::span<const double> upper_bounds() const noexcept { return bounds_; }
  [[nodiscard]] std::int64_t bucket(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Convenience boundary generators for registry callers.
  [[nodiscard]] static std::vector<double> exponential_bounds(double first, double factor,
                                                              std::size_t n);
  [[nodiscard]] static std::vector<double> linear_bounds(double first, double step,
                                                         std::size_t n);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  ///< bounds_.size() + 1 (overflow)
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ------------------------------------------------------------- snapshots

struct CounterSample {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> upper_bounds;    ///< finite bounds; +inf overflow implied
  std::vector<std::int64_t> counts;    ///< per-bucket, upper_bounds.size() + 1
  std::int64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Approximate quantile (upper bound of the bucket holding rank q*count).
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Plain-data copy of a registry at one point in time.  Copyable, cheap to
/// pass around, and the unit every exporter consumes.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Counter value by exact name; 0 when absent (absent == never touched).
  [[nodiscard]] std::int64_t counter_value(std::string_view name) const noexcept;
  [[nodiscard]] double gauge_value(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramSample* find_histogram(std::string_view name) const noexcept;
};

// -------------------------------------------------------------- registry

/// Thread-safe instrument directory.  Registration takes a mutex; returned
/// references stay valid for the registry's lifetime, so hot paths cache
/// them and touch only atomics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `upper_bounds` is used only on first registration of `name`.
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name,
                                            std::span<const double> upper_bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Folds this registry into `target`: counters and histogram buckets add,
  /// gauges overwrite.  Used to accumulate per-run registries into the
  /// process-wide one that bench binaries report from.
  void merge_into(MetricsRegistry& target) const;

  /// The process-wide registry (bench/CLI session aggregate).
  [[nodiscard]] static MetricsRegistry& process();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_;
};

}  // namespace via::obs
