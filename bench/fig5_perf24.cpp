// Figure 5: latency vs. accepted traffic for the specially designed
// 24-switch network (four rings of six) — OP vs three random mappings.
// Paper: OP throughput ≈ 5x the random mappings', and the OP clustering
// coefficient is higher than on the 16-switch network.
#include "bench_util.h"

int main() {
  using namespace commsched;
  bench::PrintHeader("Fig. 5 — simulation results, designed 24-switch network",
                     "paper Figure 5");

  const topo::SwitchGraph network = bench::PaperNetwork24();
  core::ExperimentOptions options;
  options.random_mappings = 3;  // the paper uses 3 random mappings here
  options.sweep = bench::PaperSweep();
  options.tabu.max_iterations_per_seed = 60;
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
  std::cout << "ratio:                  " << result.ThroughputImprovement()
            << "x (paper: ~5x)\n";
  return 0;
}
