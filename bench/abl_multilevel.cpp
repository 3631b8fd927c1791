// Multilevel mapping ablation (DESIGN.md §13): what the sparse-QAP path
// buys over the dense evaluator, and what the full coarsen/map/uncoarsen
// pipeline costs at the 100k-process scale the paper's dense searchers
// cannot touch.
//
//   * SwapDelta micro: dense O(1) gain-table read vs sparse O(deg) edge
//     walk on comparable instances. Both are flat in N; what the sparse
//     path buys is O(E) memory and O(deg) swaps instead of the dense
//     evaluator's N x N table, N x M gain table and O(N) swap update.
//   * End-to-end: 100k processes (grid stencil) onto a 1000-switch 3-D
//     torus with hop-count distances, the acceptance scenario (single-digit
//     seconds wall-clock).
#include <benchmark/benchmark.h>

#include "core/commsched.h"

namespace {

using namespace commsched;

/// Random symmetric table (the evaluators only need symmetry).
dist::DistanceTable RandomTable(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  dist::DistanceTable table(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      table.Set(i, j, 0.5 + 3.0 * rng.NextDouble());
    }
  }
  return table;
}

/// Dense SwapEvaluator delta on a 4-cluster partition: O(1), four reads of
/// the per-switch cluster gain table plus one distance.
void BM_DenseSwapDelta(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const dist::DistanceTable table = RandomTable(n, 1);
  Rng rng(2);
  const qual::SwapEvaluator eval(table,
                                 qual::Partition::Random(std::vector<std::size_t>(4, n / 4), rng));
  std::uint64_t deltas = 0;
  for (auto _ : state) {
    const std::size_t a = rng.NextIndex(n);
    const std::size_t b = rng.NextIndex(n);
    if (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b)) continue;
    benchmark::DoNotOptimize(eval.SwapDelta(a, b));
    ++deltas;
  }
  state.counters["deltas_per_sec"] =
      benchmark::Counter(static_cast<double>(deltas), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseSwapDelta)->Arg(256)->Arg(1024);

/// Sparse evaluator delta on a grid stencil (degree <= 4): O(deg), flat in
/// the process count.
void BM_SparseSwapDelta(benchmark::State& state) {
  const std::size_t procs = static_cast<std::size_t>(state.range(0));
  const std::size_t switches = 256;
  const dist::DistanceTable table = RandomTable(switches, 1);
  const qual::CommGraph graph = work::MakeGridComm(procs);
  Rng rng(3);
  std::vector<std::size_t> placement(procs);
  for (std::size_t v = 0; v < procs; ++v) placement[v] = rng.NextIndex(switches);
  const qual::SparseQapEvaluator eval(graph, table, std::move(placement));
  std::uint64_t deltas = 0;
  for (auto _ : state) {
    const std::size_t a = rng.NextIndex(procs);
    const std::size_t b = rng.NextIndex(procs);
    if (a == b) continue;
    benchmark::DoNotOptimize(eval.SwapDelta(a, b));
    ++deltas;
  }
  state.counters["deltas_per_sec"] =
      benchmark::Counter(static_cast<double>(deltas), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseSwapDelta)->Arg(1024)->Arg(100000);

/// The acceptance scenario end to end: 100k-process grid onto a 10x10x10
/// torus (1000 switches, 104 hosts each) over BFS hop distances.
void BM_Multilevel100k(benchmark::State& state) {
  const topo::SwitchGraph fabric = topo::MakeTorus3D(10, 10, 10, 104);
  const dist::DistanceTable table = dist::DistanceTable::BuildGraphHops(fabric);
  const qual::CommGraph processes = work::MakeGridComm(100000);
  double normalized = 0.0;
  for (auto _ : state) {
    const sched::ml::MultilevelResult result =
        sched::ml::MapMultilevel(processes, table, 104, {});
    normalized = result.normalized;
    benchmark::DoNotOptimize(result.cost);
  }
  state.counters["normalized_cost"] = benchmark::Counter(normalized);
}
BENCHMARK(BM_Multilevel100k)->Unit(benchmark::kMillisecond);

/// The same pipeline at a mid scale, engine refinement included (the
/// coarsest graph fits the SearchEngine here).
void BM_Multilevel10k(benchmark::State& state) {
  const topo::SwitchGraph fabric = topo::MakeTorus3D(6, 6, 6, 64);
  const dist::DistanceTable table = dist::DistanceTable::BuildGraphHops(fabric);
  const qual::CommGraph processes = work::MakeGridComm(10000);
  for (auto _ : state) {
    const sched::ml::MultilevelResult result =
        sched::ml::MapMultilevel(processes, table, 64, {});
    benchmark::DoNotOptimize(result.cost);
  }
}
BENCHMARK(BM_Multilevel10k)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
