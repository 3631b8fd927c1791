// The paper's end-to-end evaluation experiment (§5), reusable by benches and
// examples: given a topology, build up*/down* routing and the distance
// table, run the Tabu scheduler (mapping "OP"), draw random mappings
// ("R1".."Rk"), and simulate every mapping across a load sweep (all
// mappings' load points in one parallel work list, sim::RunLoadSweeps).
#pragma once

#include <string>
#include <vector>

#include "quality/partition.h"
#include "sched/tabu.h"
#include "simnet/sweep.h"
#include "topology/graph.h"

namespace commsched::core {

struct ExperimentOptions {
  std::size_t applications = 4;  // logical clusters (paper: 4)
  sched::TabuOptions tabu;
  sim::SweepOptions sweep;
  std::size_t random_mappings = 9;  // the paper compares against up to 9 R_i
  std::uint64_t rng_seed = 2000;    // seed for the random mappings
};

/// One mapping's evaluation: quality coefficients plus its load sweep.
struct MappingEvaluation {
  std::string label;        // "OP" or "R1".."Rk"
  qual::Partition partition;
  double fg = 0.0;
  double dg = 0.0;
  double cc = 0.0;
  sim::SweepResult sweep;

  [[nodiscard]] double Throughput() const { return sweep.Throughput(); }
};

struct ExperimentResult {
  std::vector<MappingEvaluation> mappings;  // mappings[0] is the scheduler's OP

  [[nodiscard]] const MappingEvaluation& Scheduled() const { return mappings.front(); }

  /// Best random-mapping throughput (the paper compares OP against this).
  [[nodiscard]] double BestRandomThroughput() const;

  /// OP throughput / best random throughput.
  [[nodiscard]] double ThroughputImprovement() const;
};

/// Runs the full experiment. The graph must satisfy the paper's assumptions
/// for the chosen number of applications (switch count divisible by
/// `applications`).
[[nodiscard]] ExperimentResult RunPaperExperiment(const topo::SwitchGraph& graph,
                                                  const ExperimentOptions& options = {});

}  // namespace commsched::core
