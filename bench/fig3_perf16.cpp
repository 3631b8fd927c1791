// Figure 3: latency vs. accepted traffic for the 16-switch network — the
// scheduled mapping (OP) against randomly generated mappings (R1..), each
// swept from low load (S1) to saturation (S9), with the clustering
// coefficient attached to every curve. Paper: OP throughput ≈ 85 % above
// the best random mapping.
#include "bench_util.h"

int main() {
  using namespace commsched;
  bench::PrintHeader("Fig. 3 — simulation results, 16-switch network", "paper Figure 3");

  const topo::SwitchGraph network = bench::PaperNetwork16();
  core::ExperimentOptions options;
  options.random_mappings = 9;  // the paper generated 9 random mappings
  options.sweep = bench::PaperSweep();
  const core::ExperimentResult result = core::RunPaperExperiment(network, options);

  for (const core::MappingEvaluation& eval : result.mappings) {
    std::cout << "\n-- mapping " << eval.label << "  (C_c = " << eval.cc << ")\n";
    std::cout << "   partition " << eval.partition.ToString() << "\n";
    TextTable table({"point", "offered", "accepted", "latency(cycles)", "saturated"});
    table.set_precision(3);
    for (std::size_t k = 0; k < eval.sweep.points.size(); ++k) {
      const sim::SweepPoint& p = eval.sweep.points[k];
      table.AddRow({std::string("S") + std::to_string(k + 1), p.offered_rate,
                    p.metrics.accepted_flits_per_switch_cycle, p.metrics.avg_latency_cycles,
                    std::string(p.metrics.Saturated() ? "yes" : "no")});
    }
    std::cout << table;
    std::cout << "   throughput = " << eval.Throughput() << " flits/switch/cycle\n";
  }

  std::cout << "\n== summary ==\n";
  std::cout << "OP throughput:          " << result.Scheduled().Throughput() << "\n";
  std::cout << "best random throughput: " << result.BestRandomThroughput() << "\n";
  std::cout << "improvement:            "
            << (result.ThroughputImprovement() - 1.0) * 100.0 << " % (paper: ~85 %)\n";
  std::cout << "OP C_c "
            << result.Scheduled().cc << " vs random C_c range [";
  double cc_min = 1e300;
  double cc_max = -1e300;
  for (std::size_t k = 1; k < result.mappings.size(); ++k) {
    cc_min = std::min(cc_min, result.mappings[k].cc);
    cc_max = std::max(cc_max, result.mappings[k].cc);
  }
  std::cout << cc_min << ", " << cc_max << "] (paper: OP clearly higher)\n";
  return 0;
}
