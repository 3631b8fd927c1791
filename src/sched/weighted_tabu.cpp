#include "sched/weighted_tabu.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "sched/engine.h"
#include "sched/tabu.h"

namespace commsched::sched {

namespace {

/// A start with no intracluster weight (F_G^w undefined) gets the first
/// weighted pair (i, j) into i's cluster, else j's, else the next one of
/// two or more, by swaps with its lowest-numbered other members. No RNG.
void GiveIntraWeight(const qual::WeightMatrix& weights, Partition& start) {
  const std::size_t n = weights.size();
  std::size_t i = n;
  std::size_t j = n;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (weights(u, v) <= 0.0) continue;
      if (start.ClusterOf(u) == start.ClusterOf(v)) return;
      if (i == n) std::tie(i, j) = std::tuple(u, v);
    }
  }
  std::size_t target = start.ClusterSize(start.ClusterOf(i)) >= 2 ? start.ClusterOf(i)
                                                                   : start.ClusterOf(j);
  while (start.ClusterSize(target) < 2) target = (target + 1) % start.cluster_count();
  for (const std::size_t v : {i, j}) {
    if (start.ClusterOf(v) == target) continue;
    const std::vector<std::size_t> members = start.Members(target);
    start.Swap(v, *std::ranges::find_if(members, [&](std::size_t m) { return m != i && m != j; }));
  }
}

/// Shared driver of the weighted variants: seeds differ only in objective
/// construction; everything else (starts, parallelism,
/// combining by finalized F_G) is the engine's multi-start machinery.
/// With F_G^w's `weights`, each start goes through GiveIntraWeight.
template <typename MakeObjective>
SearchResult WeightedFamilySearch(const DistanceTable& table,
                                  const std::vector<std::size_t>& cluster_sizes,
                                  const TabuOptions& options, const char* algo,
                                  const qual::WeightMatrix* weights,
                                  MakeObjective make_objective) {
  CS_CHECK(options.seeds >= 1, "need at least one seed");
  Rng rng(options.rng_seed);

  MultiStartSpec spec;
  spec.algo = algo;
  spec.options = ToEngineOptions(options);
  std::vector<Partition> starts;
  starts.reserve(options.seeds);
  for (std::size_t s = 0; s < options.seeds; ++s) {
    starts.push_back(Partition::Random(cluster_sizes, rng));
    if (weights != nullptr) GiveIntraWeight(*weights, starts.back());
  }

  const SearchEngine engine(algo, spec.options);
  spec.run_seed = [&make_objective, &engine, &starts](std::size_t seed) {
    auto objective = make_objective(starts[seed]);
    return engine.RunSeed(objective, seed);
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
  // Some mapping has intracluster weight iff a pair is weighted and a cluster holds two.
  const bool holds_two = std::ranges::any_of(cluster_sizes, [](std::size_t s) { return s >= 2; });
  if (weights.TotalWeight() <= 0.0 || !holds_two) {
    throw ConfigError("weighted tabu: no mapping of these cluster sizes keeps weight in a cluster");
  }
  return WeightedFamilySearch(table, cluster_sizes, options, "wtabu", &weights,
                              [&](const Partition& start) {
                                return WeightedFgObjective(table, weights, start);
                              });
}

SearchResult IntensityTabuSearch(const DistanceTable& table,
                                 const std::vector<std::size_t>& cluster_sizes,
                                 const std::vector<double>& cluster_intensity,
                                 const TabuOptions& options) {
  CS_CHECK(cluster_intensity.size() == cluster_sizes.size(), "one intensity per cluster");
  return WeightedFamilySearch(table, cluster_sizes, options, "itabu", nullptr,
                              [&](const Partition& start) {
                                return TabuObjective(table, start, nullptr, 0.0, SIZE_MAX,
                                                     cluster_intensity);
                              });
}

}  // namespace commsched::sched
