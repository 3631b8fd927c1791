// Micro-benchmarks: equivalent-distance table construction.
#include <benchmark/benchmark.h>

#include "core/commsched.h"

namespace {

using namespace commsched;

topo::SwitchGraph Net(std::size_t switches, std::uint64_t seed = 1) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  return topo::GenerateIrregularTopology(options);
}

void BM_DistanceTableBuild(benchmark::State& state) {
  const topo::SwitchGraph g = Net(static_cast<std::size_t>(state.range(0)));
  const route::UpDownRouting routing(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::DistanceTable::Build(routing, /*parallel=*/false));
  }
}
BENCHMARK(BM_DistanceTableBuild)->Arg(8)->Arg(16)->Arg(24)->Arg(128);

void BM_DistanceTableBuildParallel(benchmark::State& state) {
  const topo::SwitchGraph g = Net(static_cast<std::size_t>(state.range(0)));
  const route::UpDownRouting routing(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::DistanceTable::Build(routing, /*parallel=*/true));
  }
}
BENCHMARK(BM_DistanceTableBuildParallel)->Arg(16)->Arg(32)->Arg(128);

void BM_EffectiveResistance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::ResistorNetwork net(n);
  for (std::size_t i = 0; i < n; ++i) {
    net.Add(i, (i + 1) % n);
    net.Add(i, (i + 2) % n);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.EffectiveResistance(0, n / 2));
  }
}
BENCHMARK(BM_EffectiveResistance)->Arg(8)->Arg(16)->Arg(32);

void BM_UpDownRoutingBuild(benchmark::State& state) {
  const topo::SwitchGraph g = Net(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    route::UpDownRouting routing(g);
    benchmark::DoNotOptimize(routing.MinimalDistance(0, g.switch_count() - 1));
  }
}
BENCHMARK(BM_UpDownRoutingBuild)->Arg(16)->Arg(24)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
