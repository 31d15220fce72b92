// Figure 9: how long the oracle's best relaying option lasts per AS pair.
// Paper: for 30% of AS pairs the optimal option changes within 2 days, and
// only 20% keep the same optimum for over 20 days — selection must be
// dynamic.
#include "bench_common.h"

#include <algorithm>

#include "util/percentile.h"

int main() {
  using namespace via;
  using namespace via::bench;
  const Stopwatch sw;

  auto setup = default_setup();
  Experiment exp(setup);
  print_header("Figure 9 — duration of the oracle's best relaying option", setup);

  const auto& pairs = exp.generator().traffic_matrix().pairs;
  // Cap the pair count so the bench stays fast at large scales.
  const std::size_t max_pairs = 600;
  const std::span<const TrafficMatrix::Pair> sample(
      pairs.data(), std::min(pairs.size(), max_pairs));

  for (const Metric m : kAllMetrics) {
    auto durations =
        best_option_durations(exp.ground_truth(), sample, setup.trace.days, m);
    if (durations.empty()) continue;
    std::sort(durations.begin(), durations.end());
    print_banner(std::cout, std::string("metric: ") + std::string(metric_name(m)) + " (" +
                                std::to_string(durations.size()) + " AS pairs, " +
                                std::to_string(setup.trace.days) + "-day horizon)");
    TextTable table({"CDF point", "median best-option duration (days)"});
    for (const double pct : {10.0, 25.0, 50.0, 75.0, 90.0}) {
      table.row()
          .cell(std::string("p").append(format_double(pct, 0)))
          .cell(percentile_sorted(durations, pct), 1);
    }
    table.print(std::cout);
    const double n = static_cast<double>(durations.size());
    const auto short_lived = static_cast<double>(std::count_if(
        durations.begin(), durations.end(), [](double d) { return d < 2.0; }));
    const auto long_lived = static_cast<double>(std::count_if(
        durations.begin(), durations.end(), [](double d) { return d > 20.0; }));
    std::cout << "pairs whose best option lasts < 2 days:  "
              << format_double(100.0 * short_lived / n, 1) << "%   (paper: ~30%)\n"
              << "pairs whose best option lasts > 20 days: "
              << format_double(100.0 * long_lived / n, 1) << "%   (paper: ~20%)\n";
  }

  print_paper_note(
      "the best option churns for a large share of pairs: static relay "
      "assignment would quickly go stale (motivates Via's periodic refresh).");
  print_elapsed(sw);
  return 0;
}
