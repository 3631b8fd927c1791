// Measure-and-reschedule: the closed loop the paper sketches as future work.
//
//   1. Place four applications blindly (all assumed equal).
//   2. Run the machine; the traffic monitor measures per-switch-pair flits.
//   3. Estimate each application's communication intensity from the matrix.
//   4. Re-place with the intensity-weighted Tabu search: the hottest
//      application gets the densest network region.
//   5. Verify the gain in simulation.
//
// Uses the designed mixed-density network (one K4 region, three sparse
// paths), where placement of the hot application genuinely matters.
#include <iostream>

#include "core/commsched.h"

int main() {
  using namespace commsched;

  const topo::SwitchGraph network = topo::MakeMixedDensity16();
  const route::UpDownRouting routing(network);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);

  // Ground truth the scheduler does NOT know: app "render" is 8x hotter.
  std::vector<work::ApplicationSpec> apps = work::Workload::Uniform(4, 16).applications();
  apps[0].name = "render";
  apps[0].traffic_weight = 8.0;
  apps[1].name = "ocean";
  apps[2].name = "chem";
  apps[3].name = "web";
  const work::Workload workload(apps);

  // --- 1. blind placement -------------------------------------------------
  const sched::SearchResult blind = sched::TabuSearch(table, {4, 4, 4, 4});
  const auto blind_mapping = work::ProcessMapping::FromPartition(network, workload, blind.best);
  std::cout << "blind placement:\n";
  for (std::size_t a = 0; a < 4; ++a) {
    std::cout << "  " << workload.applications()[a].name << " -> ("
              << Join(blind.best.Members(a), ",") << ")\n";
  }

  // --- 2./3. run, monitor, estimate ---------------------------------------
  const sim::TrafficPattern blind_traffic(network, workload, blind_mapping);
  sim::SimConfig monitor_config;
  monitor_config.warmup_cycles = 2000;
  monitor_config.measure_cycles = 15000;
  monitor_config.collect_traffic_matrix = true;
  sim::NetworkSimulator monitor(network, routing, blind_traffic, monitor_config);
  const sim::SimMetrics observed = monitor.Run(0.2);
  const std::vector<double> intensity =
      sim::EstimateAppIntensities(observed.switch_pair_flit_rate, blind.best);
  std::cout << "\nmeasured intensities (normalized):\n";
  for (std::size_t a = 0; a < 4; ++a) {
    std::cout << "  " << workload.applications()[a].name << ": " << intensity[a] << "\n";
  }

  // --- 4. weighted re-placement -------------------------------------------
  sched::TabuOptions measured;
  measured.cluster_intensity = intensity;
  const sched::SearchResult informed = sched::TabuSearch(table, {4, 4, 4, 4}, measured);
  std::cout << "\ninformed placement:\n";
  for (std::size_t a = 0; a < 4; ++a) {
    std::cout << "  " << workload.applications()[a].name << " -> ("
              << Join(informed.best.Members(a), ",") << ")\n";
  }

  // --- 5. verify -----------------------------------------------------------
  const auto informed_mapping =
      work::ProcessMapping::FromPartition(network, workload, informed.best);
  const sim::TrafficPattern informed_traffic(network, workload, informed_mapping);
  sim::SimConfig config;
  config.warmup_cycles = 3000;
  config.measure_cycles = 10000;
  const double load = 0.6;
  sim::NetworkSimulator sim_blind(network, routing, blind_traffic, config);
  sim::NetworkSimulator sim_informed(network, routing, informed_traffic, config);
  const sim::SimMetrics m_blind = sim_blind.Run(load);
  const sim::SimMetrics m_informed = sim_informed.Run(load);

  std::cout << "\nat offered load " << load << " flits/switch/cycle:\n";
  std::cout << "  blind:    accepted " << m_blind.accepted_flits_per_switch_cycle
            << ", render latency " << m_blind.per_app[0].avg_latency_cycles << " cycles\n";
  std::cout << "  informed: accepted " << m_informed.accepted_flits_per_switch_cycle
            << ", render latency " << m_informed.per_app[0].avg_latency_cycles
            << " cycles\n";
  return 0;
}
