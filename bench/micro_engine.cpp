// Micro-benchmarks for the unified search engine (sched/engine.h): what the
// Objective virtual dispatch + span/trace machinery costs against a
// hand-inlined copy of the legacy scan loop, and what the multi-start
// driver's thread pool buys. Identical walks run on both sides (same starts,
// same comparison rule), so the wall-clock delta IS the engine overhead.
// BM_EngineTabuSeed times one 128-switch Tabu restart, the unit of the
// perfbench `schedule` workload.
#include <benchmark/benchmark.h>

#include "bench_util.h"
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

/// Steepest descent through the engine: IntraSumObjective with
/// local_min_repeats = 1 (the walk stops at its first local minimum), one
/// seed per bench iteration.
void BM_EngineDescentSeed(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  sched::EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = 1000;
  options.local_min_repeats = 1;
  const sched::SearchEngine engine("sd", options);
  std::uint64_t seed = 0;
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    const qual::Partition start = qual::Partition::Random(sizes, rng);
    qual::SwapEvaluator eval(table, start);
    sched::IntraSumObjective objective(table, eval);
    const sched::SeedRun run = engine.RunSeed(objective, 0);
    evaluations += run.result.evaluations;
    benchmark::DoNotOptimize(run.result.best_fg);
  }
  state.counters["evals_per_sec"] =
      benchmark::Counter(static_cast<double>(evaluations), benchmark::Counter::kIsRate);
  state.counters["seed_iters_p50"] =
      benchmark::Counter(bench::HistogramPercentile("search.sd.seed_iters", 0.50));
  state.counters["seed_iters_p99"] =
      benchmark::Counter(bench::HistogramPercentile("search.sd.seed_iters", 0.99));
}
BENCHMARK(BM_EngineDescentSeed)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

/// The same walk with the scan loop inlined by hand — the shape of the
/// pre-engine searcher loops. No virtual dispatch, no spans, no events.
void BM_RawDescentLoop(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  constexpr double kEps = 1e-12;
  std::uint64_t seed = 0;
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng));
    const std::size_t n = table.size();
    for (std::size_t it = 0; it < 1000; ++it) {
      double best_delta = 0.0;
      std::size_t best_a = 0;
      std::size_t best_b = 0;
      bool found = false;
      for (std::size_t a = 0; a + 1 < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          if (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b)) continue;
          const double delta = eval.SwapDelta(a, b);
          ++evaluations;
          if (delta < best_delta - kEps) {
            best_delta = delta;
            best_a = a;
            best_b = b;
            found = true;
          }
        }
      }
      if (!found) break;
      eval.ApplySwap(best_a, best_b);
    }
    benchmark::DoNotOptimize(eval.Fg());
  }
  state.counters["evals_per_sec"] =
      benchmark::Counter(static_cast<double>(evaluations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RawDescentLoop)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

/// Multi-start driver, sequential vs. thread pool (identical results; the
/// ratio of these two rows is the parallel-restart speedup).
void BM_EngineMultiStart(benchmark::State& state) {
  const dist::DistanceTable table = Table(24);
  const std::vector<std::size_t> sizes(4, 6);
  std::uint64_t seed = 0;
  const bench::ObsDelta obs_delta;
  for (auto _ : state) {
    sched::TabuOptions options;
    options.seeds = 8;
    options.max_iterations_per_seed = 60;
    options.rng_seed = ++seed;
    options.parallel_seeds = state.range(0) != 0;
    benchmark::DoNotOptimize(sched::TabuSearch(table, sizes, options));
  }
  state.counters["evals_per_sec"] =
      benchmark::Counter(static_cast<double>(obs_delta.Delta("search.tabu.evaluations")),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineMultiStart)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("parallel")
    ->Unit(benchmark::kMillisecond);

}  // namespace

/// One Tabu seed on a 128-switch network in four clusters: 60 iterations
/// with the repeat stop off, so every bench iteration scans the same 60
/// neighbourhoods of 6144 swaps — the per-restart unit of perfbench's
/// `schedule` workload, without its thread pool.
void BM_EngineTabuSeed(benchmark::State& state) {
  const dist::DistanceTable table = Table(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::size_t> sizes(4, table.size() / 4);
  sched::EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = 60;
  options.local_min_repeats = 61;
  const sched::SearchEngine engine("tabu", options);
  std::uint64_t seed = 0;
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    sched::TabuObjective objective(table, qual::Partition::Random(sizes, rng), nullptr, 0.0);
    const sched::SeedRun run = engine.RunSeed(objective, 0);
    evaluations += run.result.evaluations;
    benchmark::DoNotOptimize(run.result.best_fg);
  }
  state.counters["evals_per_sec"] =
      benchmark::Counter(static_cast<double>(evaluations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineTabuSeed)->Arg(12)->Arg(16)->Arg(24)->Arg(128)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
