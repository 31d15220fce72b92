// ScopedTimer: RAII span helper that measures a scope's wall time and
// records it into a LatencyHistogram (in microseconds unless a finer unit
// is named) on destruction.
//
//   obs::ScopedTimer timer(registry.histogram("rpc.server.request_us",
//                                             obs::kLatencyBoundsUs));
//
// A null-histogram constructor exists so call sites can time conditionally
// ("telemetry attached or not") without branching around the scope.
#pragma once

#include <array>
#include <chrono>
#include <ratio>

#include "obs/metrics.h"

namespace via::obs {

/// Default microsecond latency buckets: 1us .. ~32ms, powers of two.
inline constexpr std::array<double, 16> kLatencyBoundsUs{
    1,   2,   4,    8,    16,   32,   64,    128,
    256, 512, 1024, 2048, 4096, 8192, 16384, 32768};

/// Nanosecond latency buckets: 32ns .. ~1ms, powers of two.  For in-memory
/// hot paths (the ~179ns ViaPolicy::choose) that the microsecond preset
/// would collapse into its first bucket.
inline constexpr std::array<double, 16> kLatencyBoundsNs{
    32,   64,   128,   256,   512,   1024,   2048,   4096,
    8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576};

/// Observes the scope's wall time into `hist` on destruction, in `Unit`s
/// of a second: microseconds by default (kLatencyBoundsUs histograms),
/// ScopedTimer<std::nano> for hot paths recorded against
/// kLatencyBoundsNs-shaped histograms.
template <typename Unit = std::micro>
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& hist) noexcept
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  /// No-op timer when `hist` is null (telemetry disabled).
  explicit ScopedTimer(LatencyHistogram* hist) noexcept
      : hist_(hist),
        start_(hist != nullptr ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{}) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->observe(elapsed());
  }

  [[nodiscard]] double elapsed() const noexcept {
    return std::chrono::duration<double, Unit>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace via::obs
