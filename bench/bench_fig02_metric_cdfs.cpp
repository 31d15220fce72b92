// Figure 2: CDFs of RTT, loss and jitter over default-routed calls.  The
// paper picks the poor-performance thresholds (RTT 320 ms, loss 1.2%,
// jitter 12 ms) at roughly the 85th percentile of these distributions.
#include "bench_common.h"

#include "analysis/section2.h"
#include "util/percentile.h"

int main() {
  using namespace via;
  using namespace via::bench;
  const Stopwatch sw;

  auto setup = default_setup();
  Experiment exp(setup);
  print_header("Figure 2 — CDFs of network metrics (default-routed calls)", setup);

  const auto records = exp.generator().generate_default_routed();
  const auto cdfs = metric_cdfs(records, 200);
  const PoorThresholds thresholds;

  for (const Metric m : kAllMetrics) {
    const auto& cdf = cdfs[metric_index(m)];
    print_banner(std::cout, std::string("CDF of ") + std::string(metric_name(m)));
    TextTable table({"percentile", std::string(metric_name(m)) + " (" +
                                       std::string(metric_unit(m)) + ")"});
    for (const double pct : {10.0, 25.0, 50.0, 75.0, 85.0, 90.0, 95.0, 99.0}) {
      // Find the CDF value at this percentile.
      double value = cdf.back().value;
      for (const auto& point : cdf) {
        if (point.cum_fraction >= pct / 100.0) {
          value = point.value;
          break;
        }
      }
      table.row().cell(std::string("p").append(format_double(pct, 0))).cell(value, 2);
    }
    table.print(std::cout);
    const double frac_poor = 1.0 - cdf_fraction_at(cdf, thresholds.get(m));
    std::cout << "fraction of calls beyond the poor threshold (" +
                     format_double(thresholds.get(m), 1) + " " +
                     std::string(metric_unit(m)) + "): "
              << format_double(100.0 * frac_poor, 1) << "%   (paper: ~15%)\n";
  }

  print_paper_note(
      "over 15% of calls exceed RTT 320 ms, loss 1.2% or jitter 12 ms — the "
      "thresholds used for the Poor Network Rate throughout.");
  print_elapsed(sw);
  return 0;
}
