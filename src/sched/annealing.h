// Simulated annealing and Genetic Simulated Annealing baselines (§2).
//
// The paper studied these against the Tabu variant and reports Tabu gave
// equal-or-better clustering coefficients at lower computational cost; these
// implementations exist to reproduce that comparison (bench/tab_heuristic_compare).
#pragma once

#include "sched/search.h"

namespace commsched::sched {

struct AnnealingOptions {
  std::size_t iterations = 20000;   // proposed moves
  double initial_temperature = 0.0; // 0 = auto-calibrate from random moves
  double cooling = 0.999;           // geometric factor per move
  double final_temperature_ratio = 1e-4;  // floor relative to initial T
  std::uint64_t rng_seed = 1;
  bool record_trace = false;
  /// Independent annealing walks, run and combined as the engine's seeds
  /// (engine.h RunMultiStart): the walk whose best mapping has the least
  /// intra-cluster sum wins, a tie keeping the earlier walk. Restart 0
  /// reproduces the single-walk search bit-for-bit; extra restarts draw
  /// from derived RNG streams (engine.h DeriveSeedStream).
  std::size_t restarts = 1;
  bool parallel_seeds = false;  // run restarts on a thread pool
};

/// Classic single-walk simulated annealing over inter-cluster swaps.
[[nodiscard]] SearchResult SimulatedAnnealing(const DistanceTable& table,
                                              const std::vector<std::size_t>& cluster_sizes,
                                              const AnnealingOptions& options = {});

struct GeneticAnnealingOptions {
  std::size_t population = 20;
  std::size_t generations = 200;
  std::size_t moves_per_individual = 4;  // SA moves each individual tries per generation
  double initial_temperature = 0.0;      // 0 = auto-calibrate
  double cooling = 0.97;                 // per generation
  double elite_fraction = 0.25;          // survivors copied over the worst
  double crossover_probability = 0.5;    // chance a replacement is a crossover child
  std::uint64_t rng_seed = 1;
  /// Independent population runs, run and combined as SA's restarts are;
  /// the best mapping over all runs wins. Run 0 reproduces the single-run
  /// search bit-for-bit.
  std::size_t restarts = 1;
  bool parallel_seeds = false;  // run restarts on a thread pool
};

/// Genetic Simulated Annealing: a population of mappings, each mutated with
/// SA acceptance; each generation the worst individuals are replaced by
/// copies/crossovers of the best ("chromosome" = mapping, as in [7, 22]).
[[nodiscard]] SearchResult GeneticSimulatedAnnealing(const DistanceTable& table,
                                                     const std::vector<std::size_t>& cluster_sizes,
                                                     const GeneticAnnealingOptions& options = {});

}  // namespace commsched::sched
