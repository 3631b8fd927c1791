// Micro-benchmarks: flit-level simulator cycle throughput. The obs-registry
// deltas add flits_per_cycle / cycles_per_sec columns to the perf JSON.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/commsched.h"

namespace {

using namespace commsched;

struct SimFixture {
  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  work::Workload workload;
  work::ProcessMapping mapping;
  sim::TrafficPattern pattern;

  explicit SimFixture(std::size_t switches)
      : graph(topo::GenerateIrregularTopology({switches, 4, 3, 1, 1000})),
        routing(graph),
        workload(work::Workload::Uniform(4, switches)),
        mapping(Make(graph, workload)),
        pattern(graph, workload, mapping) {}

  static work::ProcessMapping Make(const topo::SwitchGraph& g, const work::Workload& w) {
    Rng rng(1);
    return work::ProcessMapping::RandomAligned(g, w, rng);
  }
};

void BM_SimulateModerateLoad(benchmark::State& state) {
  SimFixture f(static_cast<std::size_t>(state.range(0)));
  sim::SimConfig config;
  config.warmup_cycles = 1000;
  config.measure_cycles = 4000;
  sim::NetworkSimulator simulator(f.graph, f.routing, f.pattern, config);
  const bench::ObsDelta obs_delta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.Run(0.3));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(config.warmup_cycles + config.measure_cycles));
  state.counters["flits_per_cycle"] =
      benchmark::Counter(obs_delta.Rate("sim.flits_delivered", "sim.measured_cycles"));
  state.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(obs_delta.Delta("sim.cycles")), benchmark::Counter::kIsRate);
  state.counters["lat_p50"] = benchmark::Counter(bench::HistogramPercentile("net.latency", 0.50));
  state.counters["lat_p99"] = benchmark::Counter(bench::HistogramPercentile("net.latency", 0.99));
}
BENCHMARK(BM_SimulateModerateLoad)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_SimulateSaturation(benchmark::State& state) {
  SimFixture f(16);
  sim::SimConfig config;
  config.warmup_cycles = 1000;
  config.measure_cycles = 4000;
  sim::NetworkSimulator simulator(f.graph, f.routing, f.pattern, config);
  const bench::ObsDelta obs_delta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.Run(1.4));
  }
  state.counters["flits_per_cycle"] =
      benchmark::Counter(obs_delta.Rate("sim.flits_delivered", "sim.measured_cycles"));
}
BENCHMARK(BM_SimulateSaturation)->Unit(benchmark::kMillisecond);

void BM_LoadSweepParallel(benchmark::State& state) {
  SimFixture f(16);
  sim::SweepOptions sweep;
  sweep.points = 5;
  sweep.min_rate = 0.1;
  sweep.max_rate = 1.0;
  sweep.config.warmup_cycles = 500;
  sweep.config.measure_cycles = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::RunLoadSweep(f.graph, f.routing, f.pattern, sweep));
  }
}
BENCHMARK(BM_LoadSweepParallel)->Unit(benchmark::kMillisecond);

// Low load (fig5's lowest sweep points, at the fig5 sweep's 24-switch
// scale): long idle spans between arrivals, which the simulator skips in
// O(1) instead of stepping through them.
void BM_SimulateLowLoad(benchmark::State& state) {
  SimFixture f(24);
  sim::SimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 10000;
  sim::NetworkSimulator simulator(f.graph, f.routing, f.pattern, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.Run(0.02));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(config.warmup_cycles + config.measure_cycles));
}
BENCHMARK(BM_SimulateLowLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
