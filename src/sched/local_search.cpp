#include "sched/local_search.h"

#include "common/rng.h"
#include "obs/obs.h"
#include "sched/engine.h"

namespace commsched::sched {

SearchResult SteepestDescent(const DistanceTable& table,
                             const std::vector<std::size_t>& cluster_sizes,
                             const SteepestDescentOptions& options) {
  Rng rng(options.rng_seed);

  MultiStartSpec spec;
  spec.algo = "sd";
  spec.options.seeds = options.restarts;
  spec.options.max_iterations_per_seed = options.max_iterations_per_restart;
  spec.options.local_min_repeats = 1;  // steepest descent: stop at the first minimum
  spec.options.parallel_seeds = options.parallel_seeds;
  std::vector<Partition> starts;
  starts.reserve(options.restarts);
  for (std::size_t s = 0; s < options.restarts; ++s) {
    starts.push_back(Partition::Random(cluster_sizes, rng));
  }

  const SearchEngine engine("sd", spec.options);
  spec.run_seed = [&table, &engine, &starts](std::size_t seed) {
    qual::SwapEvaluator eval =
        engine.SetUpSeed(seed, [&] { return qual::SwapEvaluator(table, starts[seed]); });
    IntraSumObjective objective(table, eval);
    return engine.RunSeed(objective, seed);
  };
  // Restarts are compared on the raw intra-cluster sum, like the walk.
  spec.combine_key = [](const SeedRun& run) { return run.best_value; };
  // IntraSumObjective::FinalizeSeed already filled the winner's values.
  spec.finalize_combined = false;
  return RunMultiStart(table, spec);
}

SearchResult RandomSearch(const DistanceTable& table,
                          const std::vector<std::size_t>& cluster_sizes,
                          const RandomSearchOptions& options) {
  CS_CHECK(options.samples >= 1, "need at least one sample");
  Rng rng(options.rng_seed);

  MultiStartSpec spec;
  spec.algo = "random";
  spec.options.seeds = options.samples;
  spec.options.parallel_seeds = options.parallel_seeds;
  std::vector<Partition> starts;
  starts.reserve(options.samples);
  for (std::size_t s = 0; s < options.samples; ++s) {
    starts.push_back(Partition::Random(cluster_sizes, rng));
  }

  // A sample is a zero-move "seed": one evaluation, no walk. The engine's
  // combiner then keeps the best by intra-cluster sum, exactly like the
  // multi-start searchers.
  spec.run_seed = [&table, &starts](std::size_t sample) {
    const qual::SwapEvaluator eval(table, starts[sample]);
    SeedRun run;
    run.result.best = starts[sample];
    run.result.iterations = 1;
    run.result.evaluations = 1;
    run.best_value = eval.IntraSum();
    run.trace_span = 1;
    return run;
  };
  spec.combine_key = [](const SeedRun& run) { return run.best_value; };

  obs::Registry::Global().GetCounter("search.random.samples").Add(options.samples);
  return RunMultiStart(table, spec);
}

}  // namespace commsched::sched
