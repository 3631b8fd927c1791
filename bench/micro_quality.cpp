// Micro-benchmarks: quality functions and the incremental swap evaluator —
// the inner loop of every searcher.
#include <benchmark/benchmark.h>

#include "core/commsched.h"

namespace {

using namespace commsched;

dist::DistanceTable Table(std::size_t switches) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = 1;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return dist::DistanceTable::Build(routing);
}

void BM_GlobalSimilarityDirect(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  const qual::Partition p = qual::Partition::Random(sizes, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qual::GlobalSimilarity(table, p));
  }
}
BENCHMARK(BM_GlobalSimilarityDirect)->Arg(16)->Arg(24)->Arg(128);

void BM_SwapDelta(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng));
  // Pre-pick an inter-cluster pair.
  std::size_t a = 0;
  std::size_t b = 1;
  while (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b)) ++b;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.SwapDelta(a, b));
  }
}
BENCHMARK(BM_SwapDelta)->Arg(16)->Arg(24);

void BM_FullNeighborhoodScan(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng));
  const std::size_t n = table.size();
  for (auto _ : state) {
    double best = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b)) continue;
        best = std::min(best, eval.SwapDelta(a, b));
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FullNeighborhoodScan)->Arg(16)->Arg(24);

void BM_ClusteringCoefficient(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  const qual::Partition p = qual::Partition::Random(sizes, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qual::ClusteringCoefficient(table, p));
  }
}
BENCHMARK(BM_ClusteringCoefficient)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
