// Figure 18: the controlled deployment — a real TCP controller and client
// pairs making back-to-back calls over many relaying options, then letting
// Via choose.  Reports the CDF of per-call sub-optimality vs the oracle.
// Paper: ~1000 calls over 18 pairs; Via within 20% of the oracle for 70% of
// calls while picking the exact best option for no more than 30%.
//
//   bench_fig18_deployment [--fault-plan SPEC]
//
// --fault-plan SPEC applies deterministic ground-truth faults to every
// testbed sample, e.g. "outage:relay=2,start=0,end=86400" (grammar:
// FaultPlan::parse), and prints how many samples the plan impaired.
#include "bench_common.h"

#include <algorithm>
#include <string>

#include "rpc/testbed.h"
#include "sim/faults.h"
#include "util/percentile.h"

int main(int argc, char** argv) {
  using namespace via;
  using namespace via::bench;
  const Stopwatch sw;

  TestbedConfig config;  // defaults mirror the paper's testbed shape
  FaultPlan plan;
  if (argc == 3 && std::string(argv[1]) == "--fault-plan") {
    try {
      plan = FaultPlan::parse(argv[2]);
    } catch (const std::exception& e) {
      std::cerr << "bench_fig18_deployment: bad --fault-plan: " << e.what() << "\n";
      return 2;
    }
    config.faults = &plan;
  } else if (argc != 1) {
    std::cerr << "usage: bench_fig18_deployment [--fault-plan SPEC]\n";
    return 2;
  }
  std::cout << "=====================================================================\n"
            << "Figure 18 — controlled deployment (real TCP controller + clients)\n"
            << "testbed: " << config.client_pairs << " client pairs, "
            << config.measurement_rounds << " measurement rounds per option, "
            << config.eval_calls_per_pair << " evaluation calls per pair\n"
            << "=====================================================================\n";

  const TestbedResult result = run_testbed(config);

  std::cout << "measurement calls: " << result.measurement_calls
            << " (paper: ~1000, 9-20 options x 4-5 rounds)\n"
            << "evaluation calls:  " << result.eval_calls << "\n\n";

  TextTable table({"sub-optimality x", "fraction of calls within x", "paper"});
  const struct {
    double x;
    const char* paper;
  } rows[] = {{0.0, "<= 30% pick the exact best"},
              {0.05, "-"},
              {0.10, "-"},
              {0.20, "~70%"},
              {0.50, "-"},
              {1.00, "-"}};
  for (const auto& row : rows) {
    table.row()
        .cell(format_double(row.x, 2))
        .cell_pct(result.fraction_within(row.x))
        .cell(row.paper);
  }
  table.print(std::cout);

  if (config.faults != nullptr) {
    std::cout << "fault-impaired samples: " << result.fault_impaired_samples << "\n";
  }
  std::cout << "\nexact-best picks: " << format_double(100.0 * result.fraction_best(), 1)
            << "%   (paper: <= 30%)\n";

  auto sorted = result.suboptimality;
  std::sort(sorted.begin(), sorted.end());
  std::cout << "sub-optimality percentiles: p50="
            << format_double(percentile_sorted(sorted, 50), 3)
            << " p90=" << format_double(percentile_sorted(sorted, 90), 3)
            << " p99=" << format_double(percentile_sorted(sorted, 99), 3) << "\n";

  print_paper_note(
      "Via rarely picks the single best option but almost always one close "
      "to it — fluctuations blur near-ties, not the decision quality.");
  print_elapsed(sw);
  return 0;
}
