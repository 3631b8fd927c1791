#include "sched/weighted_tabu.h"

#include "common/check.h"
#include "common/rng.h"
#include "sched/engine.h"
#include "sched/tabu.h"

namespace commsched::sched {

namespace {

/// Shared driver of the weighted variants: seeds differ only in objective
/// construction; everything else (starts, parallelism,
/// combining by finalized F_G) is the engine's multi-start machinery.
template <typename MakeObjective>
SearchResult WeightedFamilySearch(const DistanceTable& table,
                                  const std::vector<std::size_t>& cluster_sizes,
                                  const TabuOptions& options, const char* algo,
                                  MakeObjective make_objective) {
  CS_CHECK(options.seeds >= 1, "need at least one seed");
  Rng rng(options.rng_seed);

  MultiStartSpec spec;
  spec.algo = algo;
  spec.options = ToEngineOptions(options);
  spec.starts.reserve(options.seeds);
  for (std::size_t s = 0; s < options.seeds; ++s) {
    spec.starts.push_back(Partition::Random(cluster_sizes, rng));
  }

  const SearchEngine engine(algo, spec.options);
  spec.run_seed = [&make_objective, &engine](const Partition& start, std::size_t seed) {
    auto objective = make_objective(start);
    SeedRun run = engine.RunSeed(objective, seed);
    engine.FlushSeedObservability(run, seed);
    return run;
  };
  // The per-seed finalized F_G already lives in its weighted space, so the
  // combined result keeps the winning seed's values instead of recomputing
  // them unweighted.
  spec.combine_key = [](const SeedRun& run) { return run.result.best_fg; };
  spec.finalize_combined = false;
  return RunMultiStart(table, spec);
}

}  // namespace

SearchResult WeightedTabuSearch(const DistanceTable& table, const qual::WeightMatrix& weights,
                                const std::vector<std::size_t>& cluster_sizes,
                                const TabuOptions& options) {
  return WeightedFamilySearch(table, cluster_sizes, options, "wtabu",
                              [&](const Partition& start) {
                                return WeightedFgObjective(table, weights, start);
                              });
}

SearchResult IntensityTabuSearch(const DistanceTable& table,
                                 const std::vector<std::size_t>& cluster_sizes,
                                 const std::vector<double>& cluster_intensity,
                                 const TabuOptions& options) {
  CS_CHECK(cluster_intensity.size() == cluster_sizes.size(), "one intensity per cluster");
  return WeightedFamilySearch(table, cluster_sizes, options, "itabu",
                              [&](const Partition& start) {
                                return TabuObjective(table, start, nullptr, 0.0, SIZE_MAX,
                                                     cluster_intensity);
                              });
}

}  // namespace commsched::sched
