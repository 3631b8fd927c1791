// CommAwareScheduler — the library's main entry point.
//
// Ties the pipeline together: topology + routing -> table of equivalent
// distances -> Tabu search for the best network partition -> process
// mapping. This is the "communication-aware task scheduling strategy" the
// paper proposes for situations where the interconnect, not the CPUs, is
// the system bottleneck.
#pragma once

#include <memory>

#include "distance/distance_table.h"
#include "routing/routing.h"
#include "sched/tabu.h"
#include "workload/workload.h"

namespace commsched::sched {

using work::ProcessMapping;
using work::Workload;

/// Everything a caller needs to know about a scheduling decision.
struct ScheduleOutcome {
  ProcessMapping mapping;   // process -> host assignment
  Partition partition;      // induced network partition
  double fg = 0.0;          // global similarity (eq. 2)
  double dg = 0.0;          // global dissimilarity (eq. 5)
  double cc = 0.0;          // clustering coefficient D_G / F_G
  SearchResult search;      // raw search diagnostics (iterations, trace, ...)
};

class CommAwareScheduler {
 public:
  /// Builds the distance table from the routing function (the graph and
  /// routing must outlive the scheduler).
  CommAwareScheduler(const topo::SwitchGraph& graph, const route::Routing& routing);

  /// Uses a precomputed table (must match the graph's switch count).
  CommAwareScheduler(const topo::SwitchGraph& graph, DistanceTable table);

  [[nodiscard]] const DistanceTable& distance_table() const { return table_; }
  [[nodiscard]] const topo::SwitchGraph& graph() const { return *graph_; }

  /// Finds a near-optimal mapping for the workload via Tabu search.
  /// The workload must satisfy the paper's assumptions (ValidateFor).
  /// options.parallel_seeds runs the search's restarts on a thread pool via
  /// the shared engine (sched/engine.h) — results are identical either way.
  [[nodiscard]] ScheduleOutcome Schedule(const Workload& workload,
                                         const TabuOptions& options = {}) const;

  /// Evaluates an existing switch-aligned mapping (F_G, D_G, C_c) — used to
  /// score random baselines the same way the scheduler's result is scored.
  [[nodiscard]] ScheduleOutcome Evaluate(const Workload& workload,
                                         const ProcessMapping& mapping) const;

 private:
  const topo::SwitchGraph* graph_;
  DistanceTable table_;
};

}  // namespace commsched::sched
