#include "core/experiment.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "routing/updown.h"
#include "sched/scheduler.h"
#include "simnet/traffic.h"
#include "workload/workload.h"

namespace commsched::core {

double ExperimentResult::BestRandomThroughput() const {
  CS_CHECK(mappings.size() >= 2, "experiment has no random mappings");
  double best = 0.0;
  for (std::size_t k = 1; k < mappings.size(); ++k) {
    best = std::max(best, mappings[k].Throughput());
  }
  return best;
}

double ExperimentResult::ThroughputImprovement() const {
  const double random_best = BestRandomThroughput();
  CS_CHECK(random_best > 0.0, "random mappings delivered nothing");
  return Scheduled().Throughput() / random_best;
}

ExperimentResult RunPaperExperiment(const topo::SwitchGraph& graph,
                                    const ExperimentOptions& options) {
  CS_CHECK(options.applications >= 2, "need at least two applications");
  CS_CHECK(graph.switch_count() % options.applications == 0,
           "switch count must divide evenly into the applications");

  const route::UpDownRouting routing(graph);
  const sched::CommAwareScheduler scheduler(graph, routing);
  const work::Workload workload = work::Workload::Uniform(
      options.applications,
      graph.host_count() / options.applications);

  ExperimentResult result;

  // The scheduler's mapping (OP).
  const sched::ScheduleOutcome op = scheduler.Schedule(workload, options.tabu);
  result.mappings.push_back({"OP", op.partition, op.fg, op.dg, op.cc, {}});

  // Random mappings (R1..Rk).
  Rng rng(options.rng_seed);
  for (std::size_t k = 0; k < options.random_mappings; ++k) {
    const work::ProcessMapping mapping = work::ProcessMapping::RandomAligned(graph, workload, rng);
    const sched::ScheduleOutcome eval = scheduler.Evaluate(workload, mapping);
    result.mappings.push_back(
        {"R" + std::to_string(k + 1), eval.partition, eval.fg, eval.dg, eval.cc, {}});
  }

  // Every mapping's load points go into one parallel work list.
  std::vector<sim::TrafficPattern> patterns;
  patterns.reserve(result.mappings.size());
  for (const MappingEvaluation& eval : result.mappings) {
    const work::ProcessMapping mapping =
        work::ProcessMapping::FromPartition(graph, workload, eval.partition);
    patterns.emplace_back(graph, workload, mapping);
  }
  std::vector<sim::SweepResult> sweeps =
      sim::RunLoadSweeps(graph, routing, patterns, options.sweep);
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    result.mappings[k].sweep = std::move(sweeps[k]);
  }
  return result;
}

}  // namespace commsched::core
