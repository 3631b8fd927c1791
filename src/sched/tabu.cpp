#include "sched/tabu.h"

#include "common/check.h"
#include "common/rng.h"
#include "sched/engine.h"

namespace commsched::sched {

SearchResult TabuSearchFrom(const DistanceTable& table, const Partition& start,
                            const TabuOptions& options) {
  const SearchEngine engine("tabu", ToEngineOptions(options));
  TabuObjective objective = engine.SetUpSeed(0, [&] {
    return TabuObjective(table, start, options.anchor, options.migration_penalty, SIZE_MAX,
                         options.cluster_intensity);
  });
  return engine.RunSeed(objective, 0).result;
}

SearchResult TabuSearch(const DistanceTable& table, const std::vector<std::size_t>& cluster_sizes,
                        const TabuOptions& options) {
  CS_CHECK(options.seeds >= 1, "need at least one seed");
  Rng rng(options.rng_seed);

  MultiStartSpec spec;
  spec.algo = "tabu";
  spec.options = ToEngineOptions(options);

  // Derive every seed's start up front so parallel and sequential execution
  // explore identical walks. A configured anchor is always the first start
  // (warm start for re-scheduling).
  std::vector<Partition> starts;
  starts.reserve(options.seeds);
  if (options.anchor != nullptr) {
    CS_CHECK(options.anchor->cluster_count() == cluster_sizes.size(),
             "anchor cluster count mismatch");
    for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
      CS_CHECK(options.anchor->ClusterSize(c) == cluster_sizes[c],
               "anchor cluster ", c, " size mismatch");
    }
    starts.push_back(*options.anchor);
  }
  while (starts.size() < options.seeds) {
    starts.push_back(Partition::Random(cluster_sizes, rng));
  }

  const SearchEngine engine("tabu", spec.options);
  spec.run_seed = [&table, &options, &engine, &starts](std::size_t seed) {
    TabuObjective objective = engine.SetUpSeed(seed, [&] {
      return TabuObjective(table, starts[seed], options.anchor, options.migration_penalty,
                           SIZE_MAX, options.cluster_intensity);
    });
    return engine.RunSeed(objective, seed);
  };

  // Seeds are compared by the full objective (F_G plus migration term).
  const double move_cost = options.anchor != nullptr && !cluster_sizes.empty()
                               ? options.migration_penalty / static_cast<double>(table.size())
                               : 0.0;
  spec.combine_key = [move_cost](const SeedRun& run) {
    return run.result.best_fg + move_cost * static_cast<double>(run.result.moved_from_anchor);
  };
  // Each seed's best_fg is already F_G^λ (F_G's bits when λ ≡ 1).
  spec.finalize_combined = false;
  return RunMultiStart(table, spec);
}

}  // namespace commsched::sched
