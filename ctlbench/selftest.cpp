// `ctl_bench --self-test`: checks the benchmark's own statistics (stats.h)
// against hand-computed values.  Exit 0 when every case passes.
#include <cmath>
#include <iostream>
#include <string>

#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& name) {
  std::cout << "selftest " << name << ' ' << (ok ? "ok" : "FAIL") << '\n';
  if (!ok) ++g_failures;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

}  // namespace

int self_test() {
  using namespace ctlbench;

  // Median and quartiles; quartiles match statistics.quantiles(x, n=4).
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median_odd");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median_even");
  {
    const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    expect(q[0] == 2.75 && q[1] == 5.5 && q[2] == 8.25, "quartiles_ten");
  }
  {
    const auto q = quartiles({1.0, 2.0});  // python: [0.75, 1.5, 2.25]
    expect(q[0] == 0.75 && q[1] == 1.5 && q[2] == 2.25, "quartiles_two_clamped");
  }
  expect(near(quantile_sorted(std::vector<double>{0, 10, 20, 30, 40}, 0.99), 39.6, 1e-9),
         "quantile_interpolates");

  // Highest percentile with at least ten samples beyond it.
  expect(!tail_percentile(19).has_value(), "tail_19_none");
  expect(tail_percentile(20) == 50.0, "tail_20_p50");
  expect(tail_percentile(99) == 50.0, "tail_99_p50");
  expect(tail_percentile(100) == 90.0, "tail_100_p90");
  expect(tail_percentile(999) == 90.0, "tail_999_p90");
  expect(tail_percentile(1000) == 99.0, "tail_1000_p99");
  expect(tail_percentile(10'000) == 99.9, "tail_10k_p99.9");
  expect(tail_percentile(999'999) == 99.99, "tail_999999_p99.99");
  expect(tail_percentile(1'000'000) == 99.999, "tail_1m_p99.999");
  expect(supports_percentile(1000, 99.0) && !supports_percentile(999, 99.0),
         "supports_p99_needs_1000");

  // Histogram: exact below 64, within 1/64 relative above.
  {
    LogHistogram h;
    for (std::uint64_t v = 0; v < 64; ++v) h.add(v);
    expect(h.count() == 64 && h.quantile(0.5) == 31.0 && h.quantile(1.0) == 63.0,
           "hist_exact_small");
  }
  {
    bool ok = true;
    for (std::uint64_t v = 1; v < (1ULL << 40); v = v * 3 + 1) {
      const double mid = LogHistogram::midpoint(LogHistogram::index(v));
      ok = ok && near(mid, static_cast<double>(v), static_cast<double>(v) / 64.0);
    }
    expect(ok, "hist_bucket_error_bound");
    expect(LogHistogram::index(~std::uint64_t{0}) == LogHistogram::kBuckets - 1 &&
               LogHistogram::index(std::uint64_t{1} << 40) == LogHistogram::kBuckets - 1,
           "hist_clamps_huge");
  }
  {
    LogHistogram a;
    LogHistogram b;
    for (std::uint64_t v = 1; v <= 1000; ++v) (v % 2 == 0 ? a : b).add(v * 1000);
    a.merge(b);
    expect(a.count() == 1000 && near(a.quantile(0.5), 500'000, 500'000 / 64.0) &&
               near(a.quantile(0.99), 990'000, 990'000 / 64.0),
           "hist_merge_quantiles");
  }
  expect(LogHistogram().quantile(0.5) == 0.0, "hist_empty");

  // Windowed p99: a quantile over windows, each window held to the
  // ten-beyond rule; one stalled window does not move the median, and the
  // top fifth of windows is the stalled one.
  {
    WindowedHistogram w(100);
    for (std::int64_t window = 0; window < 5; ++window) {
      const std::uint64_t tail = window == 2 ? 50'000 : 60;
      for (int i = 0; i < 1000; ++i) w.add(window * 100 + 7, i < 985 ? 40 : tail);
    }
    w.add(999, 1);  // a sixth window with one sample supports no p99
    expect(w.windows_supporting(0.99) == 5 && w.quantile_over_windows(0.99, 0.5) == 60.0 &&
               w.total().count() == 5001 && w.total().quantile(0.999) > 1000.0,
           "windowed_median_p99");
    expect(near(w.quantile_over_windows(0.99, 1.0), 50'000.0, 50'000.0 / 64.0) &&
               w.quantile_over_windows(0.99, 0.5) == 60.0,
           "windowed_high_quantile_sees_stall");
    // Counts per window: 1000 in windows 0-4, none in 5-8, 1 in window 9,
    // and windows past the last recorded one count as empty.
    expect(w.quantile_count(5, 0.5) == 1000.0 && w.quantile_count(10, 0.5) == 500.5 &&
               w.quantile_count(12, 0.5) == 0.5 && w.quantile_count(10, 0.75) == 1000.0 &&
               w.quantile_count(10, 0.25) == 0.0 &&
               WindowedHistogram(100).quantile_over_windows(0.99, 0.9) == 0.0,
           "windowed_quantile_count");
  }

  // Replay stretches: 25 calls read at four instants, cut every 10 calls;
  // the 10th call fell a third of the way from the reading at 5 to the one
  // at 20.  The composite pass takes each stretch's fastest time.
  {
    const std::vector<std::pair<std::int64_t, std::int64_t>> readings = {
        {0, 0}, {90, 5}, {180, 20}, {300, 25}};
    const std::vector<double> t = stretch_times(0, readings, 10);
    expect(t.size() == 3 && near(t[0], 120.0, 1e-9) && near(t[1], 60.0, 1e-9) &&
               near(t[2], 120.0, 1e-9),
           "stretch_times");
    expect(fastest_stretches_ns({{10.0, 30.0, 5.0}, {20.0, 10.0, 5.0}}) == 25.0,
           "fastest_stretches");
  }

  std::cout << "selftest " << (g_failures == 0 ? "passed" : "FAILED") << '\n';
  return g_failures == 0 ? 0 : 1;
}
