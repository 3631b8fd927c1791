// Ablation / extension: heterogeneous communication requirements (the
// paper's future work). One application is 8x hotter than the rest; the
// measure → schedule loop (simulate, estimate per-application intensities,
// intensity-weighted Tabu) should place the hot application on the
// tightest network region and beat the requirement-blind mapping.
#include "bench_util.h"

int main() {
  using namespace commsched;
  bench::PrintHeader("Extension — measured communication requirements & weighted F_G",
                     "paper §1/§6 future work");

  // The mixed-density 16-switch network: one dense K4 region, three sparse
  // path regions — a machine where placement of the hot application truly
  // matters. (On uniformly random degree-3 nets all 4-switch regions are
  // nearly equivalent and the weighted search can only relabel clusters.)
  const topo::SwitchGraph network = topo::MakeMixedDensity16();
  const route::UpDownRouting routing(network);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);

  std::vector<work::ApplicationSpec> apps = work::Workload::Uniform(4, 16).applications();
  apps[0].traffic_weight = 8.0;  // the hot application
  const work::Workload workload(apps);

  // Step 1: requirement-blind mapping (the paper's base technique).
  const sched::SearchResult plain = sched::TabuSearch(table, {4, 4, 4, 4});
  const auto plain_mapping = work::ProcessMapping::FromPartition(network, workload, plain.best);

  // Step 2: run it, measure the traffic, estimate per-app intensities.
  const sim::TrafficPattern plain_traffic(network, workload, plain_mapping);
  sim::SimConfig measure_config;
  measure_config.warmup_cycles = 2000;
  measure_config.measure_cycles = 15000;
  measure_config.collect_traffic_matrix = true;
  sim::NetworkSimulator monitor(network, routing, plain_traffic, measure_config);
  const sim::SimMetrics measured = monitor.Run(0.2);
  const std::vector<double> intensity =
      sim::EstimateAppIntensities(measured.switch_pair_flit_rate, plain.best);
  std::cout << "estimated per-application intensities (true ratio 8:1:1:1): ";
  for (double v : intensity) std::cout << v << ' ';
  std::cout << "\n";

  // Step 3: re-schedule with the measured requirements.
  sched::TabuOptions informed;
  informed.cluster_intensity = intensity;
  const sched::SearchResult weighted = sched::TabuSearch(table, {4, 4, 4, 4}, informed);
  const auto weighted_mapping =
      work::ProcessMapping::FromPartition(network, workload, weighted.best);

  std::cout << "\nhot application's switches: blind ("
            << Join(plain.best.Members(0), ",") << ") vs weighted ("
            << Join(weighted.best.Members(0), ",") << ")\n";
  std::cout << "hot cluster intra cost (sum T², lower is tighter): blind "
            << qual::ClusterSimilarity(table, plain.best, 0) << " vs weighted "
            << qual::ClusterSimilarity(table, weighted.best, 0) << "\n";

  // Step 4: confirm by simulation across a load sweep.
  sim::SweepOptions sweep = bench::PaperSweep();
  sweep.points = 7;
  const sim::TrafficPattern weighted_traffic(network, workload, weighted_mapping);
  const sim::SweepResult r_plain = sim::RunLoadSweep(network, routing, plain_traffic, sweep);
  const sim::SweepResult r_weighted =
      sim::RunLoadSweep(network, routing, weighted_traffic, sweep);

  TextTable out({"offered", "accepted(blind)", "accepted(weighted)", "latency(blind)",
                 "latency(weighted)"});
  out.set_precision(3);
  for (std::size_t k = 0; k < r_plain.points.size(); ++k) {
    out.AddRow({r_plain.points[k].offered_rate,
                r_plain.points[k].metrics.accepted_flits_per_switch_cycle,
                r_weighted.points[k].metrics.accepted_flits_per_switch_cycle,
                r_plain.points[k].metrics.avg_latency_cycles,
                r_weighted.points[k].metrics.avg_latency_cycles});
  }
  std::cout << '\n' << out;
  std::cout << "\nthroughput: blind " << r_plain.Throughput() << " vs weighted "
            << r_weighted.Throughput() << " flits/switch/cycle ("
            << (r_weighted.Throughput() / r_plain.Throughput() - 1.0) * 100.0 << " %)\n";
  return 0;
}
