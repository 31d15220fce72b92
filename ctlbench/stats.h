// Statistics the controller benchmark reports with: exact quantiles of
// small sample sets (setup repetitions, replay passes, refresh round
// trips), the log-bucketed latency histogram the load generators record
// into, and the tail rule that decides which percentile a sample count can
// support.  Header-only so the self-test (`ctl_bench --self-test`) checks
// exactly the code the workloads run.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ctlbench {

/// Quantile `q` in [0, 1] of ascending `sorted`, interpolating linearly
/// between the two closest ranks.  Empty input reads as 0.
inline double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), which is how run-to-run spread is
/// judged: (q3 - q1) / median.  Needs at least two values.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<std::int64_t>(values.size());
  const std::int64_t m = ld + 1;
  std::array<double, 3> out{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that leaves at least ten of `samples` beyond it; nullopt when even the
/// median does not.  A tail read from fewer than ten samples is one or two
/// outliers, not a percentile.
inline std::optional<double> tail_percentile(std::int64_t samples) {
  static constexpr std::array<double, 6> kLadder = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};
  std::optional<double> best;
  for (const double p : kLadder) {
    // Integer test of samples * (1 - p/100) >= 10, with p in thousandths.
    const auto p_milli = static_cast<std::int64_t>(std::llround(p * 1000.0));
    if (samples * (100'000 - p_milli) >= 10 * 100'000) best = p;
  }
  return best;
}

/// Whether `samples` support percentile `p` under the same ten-beyond rule.
inline bool supports_percentile(std::int64_t samples, double p) {
  const std::optional<double> tail = tail_percentile(samples);
  return tail.has_value() && *tail >= p;
}

/// The time each `stretch`-call stretch of a pass took.  `samples` are
/// (time, calls so far) readings of the pass in time order, the last being
/// its end; `t0` is when it started.  The time the count crossed each
/// stretch boundary is interpolated between the readings around it.  The
/// last stretch holds the remainder.
inline std::vector<double> stretch_times(
    std::int64_t t0, std::span<const std::pair<std::int64_t, std::int64_t>> samples,
    std::int64_t stretch) {
  std::vector<double> out;
  double last = static_cast<double>(t0);
  std::size_t i = 0;
  for (std::int64_t mark = stretch; mark < samples.back().second; mark += stretch) {
    while (samples[i].second < mark) ++i;
    double at = static_cast<double>(samples[i].first);
    if (i > 0 && samples[i].second > samples[i - 1].second) {
      const auto [t_lo, n_lo] = samples[i - 1];
      const double frac = static_cast<double>(mark - n_lo) /
                          static_cast<double>(samples[i].second - n_lo);
      at = static_cast<double>(t_lo) + frac * static_cast<double>(samples[i].first - t_lo);
    }
    out.push_back(at - last);
    last = at;
  }
  out.push_back(static_cast<double>(samples.back().first) - last);
  return out;
}

/// For passes of identical work cut into the same stretches: the sum over
/// stretches of the least time any pass took over that stretch.
inline double fastest_stretches_ns(const std::vector<std::vector<double>>& passes) {
  double sum = 0.0;
  for (std::size_t k = 0; k < passes.front().size(); ++k) {
    double best = passes.front()[k];
    for (const std::vector<double>& pass : passes) best = std::min(best, pass.at(k));
    sum += best;
  }
  return sum;
}

/// Log-linear histogram of non-negative integers (nanoseconds here): exact
/// below 64, then 64 sub-buckets per power of two up to 2^40 (18 minutes),
/// so any reported value below that is within 1.6% of a recorded one.
/// Fixed 9 KB, so a long run at a million requests a second costs the
/// process no more memory than a short one (the benchmark reports peak RSS).
class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kMaxBits = 40;  ///< values >= 2^40 share the last bucket
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  void add(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++count_;
  }
  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

  /// Nearest-rank quantile: the midpoint of the bucket holding rank
  /// ceil(q * count).  0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::int64_t>(std::ceil(std::clamp(q, 0.0, 1.0) *
                                                    static_cast<double>(count_)));
    rank = std::max<std::int64_t>(rank, 1);
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += static_cast<std::int64_t>(counts_[i]);
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    if (v >= (std::uint64_t{1} << kMaxBits)) return kBuckets - 1;
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    const int shift = e - kSubBits;
    const auto mant = static_cast<std::size_t>((v >> shift) & (kSub - 1));
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub + mant;
  }
  [[nodiscard]] static double midpoint(std::size_t idx) noexcept {
    if (idx < kSub) return static_cast<double>(idx);
    const auto e = static_cast<int>(idx / kSub) + kSubBits - 1;
    const int shift = e - kSubBits;
    const std::uint64_t lower = (kSub + idx % kSub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lower) + static_cast<double>(width - 1) / 2.0;
  }

 private:
  std::array<std::uint32_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
};

/// A LogHistogram per fixed time window.  A percentile of a whole run on a
/// shared machine is decided by how much of the run the host's slow spells
/// covered; a quantile over windows of each window's percentile picks
/// windows by how the host treated them.  The whole-run histogram stays
/// available for the ten-beyond tail.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(std::int64_t width) : width_(width) {}

  /// Records `v` in the window holding time `since_start`.
  void add(std::int64_t since_start, std::uint64_t v) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(since_start, 0) / width_);
    if (w >= windows_.size()) windows_.resize(w + 1);
    windows_[w].add(v);
  }
  void merge(const WindowedHistogram& other) {
    if (other.windows_.size() > windows_.size()) windows_.resize(other.windows_.size());
    for (std::size_t w = 0; w < other.windows_.size(); ++w) windows_[w].merge(other.windows_[w]);
  }
  [[nodiscard]] LogHistogram total() const {
    LogHistogram out;
    for (const LogHistogram& h : windows_) out.merge(h);
    return out;
  }
  /// Quantile `over` across windows of each window's quantile `q`, taken
  /// over the windows whose samples support percentile 100*q under the
  /// ten-beyond rule; 0 when none does.
  [[nodiscard]] double quantile_over_windows(double q, double over) const {
    std::vector<double> per;
    for (const LogHistogram& h : windows_) {
      if (supports_percentile(h.count(), 100.0 * q)) per.push_back(h.quantile(q));
    }
    std::sort(per.begin(), per.end());
    return quantile_sorted(per, over);
  }
  /// Each window's percentile 100*q, 0 where its samples do not support it.
  [[nodiscard]] std::vector<double> window_quantiles(double q) const {
    std::vector<double> out;
    for (const LogHistogram& h : windows_) {
      out.push_back(supports_percentile(h.count(), 100.0 * q) ? h.quantile(q) : 0.0);
    }
    return out;
  }
  /// Quantile `over` across the first `n` windows of each window's sample
  /// count.
  [[nodiscard]] double quantile_count(std::size_t n, double over) const {
    std::vector<double> per;
    for (std::size_t w = 0; w < n; ++w) {
      per.push_back(w < windows_.size() ? static_cast<double>(windows_[w].count()) : 0.0);
    }
    std::sort(per.begin(), per.end());
    return quantile_sorted(per, over);
  }
  [[nodiscard]] std::vector<std::int64_t> window_counts() const {
    std::vector<std::int64_t> out;
    for (const LogHistogram& h : windows_) out.push_back(h.count());
    return out;
  }
  /// Windows whose samples support percentile 100*q.
  [[nodiscard]] std::size_t windows_supporting(double q) const {
    return static_cast<std::size_t>(std::count_if(
        windows_.begin(), windows_.end(),
        [q](const LogHistogram& h) { return supports_percentile(h.count(), 100.0 * q); }));
  }

 private:
  std::int64_t width_;
  std::vector<LogHistogram> windows_;
};

}  // namespace ctlbench
