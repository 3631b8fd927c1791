// The paper's scheduling technique (§4.2): Tabu search over mappings.
//
// Per random seed:
//   * apply the inter-cluster swap with the greatest decrease of F_G;
//   * at a local minimum apply the swap with the smallest increase and
//     forbid the inverse swap for `tenure` iterations ("tabu movements");
//   * stop the seed when the same local minimum has been reached
//     `local_min_repeats` times or after `max_iterations_per_seed` moves.
// The search restarts from `seeds` random mappings and keeps the best
// mapping seen anywhere (the paper uses 10 seeds, 3 repeats, 20 iterations).
//
// With per-cluster intensities the same search minimizes F_G^λ
// (qual::IntensityGlobalSimilarity): the applications with higher measured
// requirements get the highest-bandwidth network regions, the measure →
// schedule loop of the paper's future work.
#pragma once

#include "sched/engine.h"
#include "sched/search.h"

namespace commsched::sched {

struct TabuOptions {
  std::size_t seeds = 10;                    // random restarts (paper: 10)
  std::size_t max_iterations_per_seed = 20;  // iteration budget (paper: 20)
  std::size_t local_min_repeats = 3;         // same-minimum stop (paper: 3)
  std::size_t tenure = 4;                    // h: iterations a reverse swap is tabu
  bool aspiration = true;                    // allow tabu move if it beats the global best
  std::uint64_t rng_seed = 1;
  bool record_trace = false;
  bool parallel_seeds = false;  // run restarts on a thread pool

  /// Migration-aware re-scheduling: if `anchor` is set (same switch count
  /// and cluster sizes as the search space), every switch whose cluster
  /// differs from the anchor's adds migration_penalty / N to the objective
  /// (objective = F_G + migration_penalty * moved/N). The anchor itself is
  /// used as the first seed. With penalty 0 the anchor only warm-starts.
  const qual::Partition* anchor = nullptr;
  double migration_penalty = 0.0;

  /// λ_c per cluster (e.g. from sim::EstimateAppIntensities): the walk
  /// minimizes F_G^λ and best_fg reports it; best_dg and best_cc stay the
  /// unweighted eq. (5) values. Empty means all ones, plain F_G.
  std::vector<double> cluster_intensity;
};

/// The paper's iteration budget: 60 on its 24-switch network, 20 on the
/// 16-switch ones. The CLI, the service and the benches default to it.
[[nodiscard]] constexpr std::size_t DefaultTabuIterations(std::size_t switch_count) {
  return switch_count >= 20 ? 60 : 20;
}

/// Engine-level view of the tabu-family knobs.
[[nodiscard]] inline EngineOptions ToEngineOptions(const TabuOptions& options) {
  EngineOptions engine;
  engine.seeds = options.seeds;
  engine.max_iterations_per_seed = options.max_iterations_per_seed;
  engine.local_min_repeats = options.local_min_repeats;
  engine.tenure = options.tenure;
  engine.aspiration = options.aspiration;
  engine.record_trace = options.record_trace;
  engine.parallel_seeds = options.parallel_seeds;
  return engine;
}

/// Runs the Tabu search for partitions with the given cluster sizes.
[[nodiscard]] SearchResult TabuSearch(const DistanceTable& table,
                                      const std::vector<std::size_t>& cluster_sizes,
                                      const TabuOptions& options = {});

/// Runs the Tabu search from one explicit starting partition (single seed;
/// exposed for tests and for warm-starting).
[[nodiscard]] SearchResult TabuSearchFrom(const DistanceTable& table, const Partition& start,
                                          const TabuOptions& options = {});

}  // namespace commsched::sched
