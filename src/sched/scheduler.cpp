#include "sched/scheduler.h"

namespace commsched::sched {

CommAwareScheduler::CommAwareScheduler(const topo::SwitchGraph& graph,
                                       const route::Routing& routing)
    : graph_(&graph), table_(DistanceTable::Build(routing)) {
  CS_CHECK(&routing.graph() == &graph, "routing was built for a different graph");
}

CommAwareScheduler::CommAwareScheduler(const topo::SwitchGraph& graph, DistanceTable table)
    : graph_(&graph), table_(std::move(table)) {
  CS_CHECK(table_.size() == graph.switch_count(), "table size does not match the graph");
}

ScheduleOutcome CommAwareScheduler::Schedule(const Workload& workload,
                                             const TabuOptions& options) const {
  workload.ValidateFor(*graph_);
  const auto sizes = workload.ClusterSwitchSizes(*graph_);
  SearchResult search = TabuSearch(table_, sizes, options);
  ProcessMapping mapping = ProcessMapping::FromPartition(*graph_, workload, search.best);
  ScheduleOutcome outcome{std::move(mapping), search.best, search.best_fg, search.best_dg,
                          search.best_cc, std::move(search)};
  return outcome;
}

ScheduleOutcome CommAwareScheduler::Evaluate(const Workload& workload,
                                             const ProcessMapping& mapping) const {
  workload.ValidateFor(*graph_);
  Partition partition = mapping.InducedPartition(*graph_);
  SearchResult search;
  search.best = partition;
  FinalizeResult(table_, search);
  ScheduleOutcome outcome{mapping, std::move(partition), search.best_fg, search.best_dg,
                          search.best_cc, std::move(search)};
  return outcome;
}

}  // namespace commsched::sched
