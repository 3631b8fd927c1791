#include "service/exec.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "faults/fault_plan.h"
#include "common/table.h"
#include "sched/annealing.h"
#include "sched/local_search.h"
#include "sched/tabu.h"
#include "workload/procgen.h"

namespace commsched::svc {
namespace {

/// The values a search runs with: `seeds` are tabu/sd seeds or sa/gsa
/// restarts, `iterations` are per-seed iterations, sa proposals or gsa
/// generations, and `samples` are random's draws (the one sampler).
struct EffectiveKnobs {
  std::size_t seeds = 0;
  std::size_t iterations = 0;
  std::size_t samples = 0;
};

/// Each searcher's CLI defaults, written once for the protocol's key check,
/// the cache key and the dispatch. Tabu's 0 iterations stand for
/// sched::DefaultTabuIterations of the network.
constexpr std::pair<std::string_view, EffectiveKnobs> kSearchers[] = {
    {"tabu", {10, 0, 0}}, {"sd", {10, 1000, 0}}, {"random", {0, 0, 1000}},
    {"sa", {1, 20000, 0}}, {"gsa", {1, 200, 0}},
};

const EffectiveKnobs* SearcherDefaults(std::string_view algo) {
  for (const auto& [name, defaults] : kSearchers) {
    if (name == algo) return &defaults;
  }
  return nullptr;
}

/// Throws ConfigError for an unknown algorithm.
EffectiveKnobs ResolveSearchKnobs(const SearchKnobs& knobs, std::size_t switch_count) {
  const EffectiveKnobs* defaults = SearcherDefaults(knobs.algo);
  if (defaults == nullptr) {
    throw ConfigError("unknown algo '" + knobs.algo + "' (tabu|sd|random|sa|gsa)");
  }
  if (defaults->samples != 0) return {0, 0, knobs.samples.value_or(defaults->samples)};
  const std::size_t iterations = defaults->iterations != 0
                                     ? defaults->iterations
                                     : sched::DefaultTabuIterations(switch_count);
  return {knobs.seeds.value_or(defaults->seeds), knobs.iterations.value_or(iterations), 0};
}

/// The multilevel options a request runs with; unset knobs keep the
/// MultilevelOptions defaults.
sched::ml::MultilevelOptions ResolveMultilevelKnobs(const MultilevelKnobs& knobs) {
  sched::ml::MultilevelOptions options;
  options.coarsen_target = knobs.coarsen_target;
  options.refine_budget = knobs.refine_budget;
  options.seeds = knobs.seeds.value_or(options.seeds);
  options.engine_iterations = knobs.iterations.value_or(options.engine_iterations);
  options.rng_seed = knobs.rng_seed;
  return options;
}

}  // namespace

SearchBudget SearchBudgetOf(std::string_view algo) {
  const EffectiveKnobs* defaults = SearcherDefaults(algo);
  if (defaults == nullptr) return SearchBudget::kUnknownAlgo;
  return defaults->samples != 0 ? SearchBudget::kSamples : SearchBudget::kWalk;
}

std::vector<std::size_t> EvenClusterSizes(std::size_t switch_count, std::size_t apps) {
  if (apps == 0) throw ConfigError("application count must be positive");
  if (switch_count % apps != 0) {
    throw ConfigError("switch count " + std::to_string(switch_count) +
                      " not divisible by " + std::to_string(apps) + " applications");
  }
  if (switch_count / apps < 2) {
    // The quality functions need intracluster pairs (eq. 3's x_i(x_i-1)/2).
    throw ConfigError("each application needs at least two switches (" +
                      std::to_string(switch_count) + " switches, " + std::to_string(apps) +
                      " applications)");
  }
  return std::vector<std::size_t>(apps, switch_count / apps);
}

void ValidateSearchKnobs(const SearchKnobs& knobs) {
  if (knobs.seeds == std::size_t{0}) {
    throw ConfigError("search seeds must be >= 1 (got 0)");
  }
  if (knobs.iterations == std::size_t{0}) {
    throw ConfigError("search iterations must be >= 1 (got 0)");
  }
  if (knobs.samples == std::size_t{0}) {
    throw ConfigError("search samples must be >= 1 (got 0)");
  }
}

std::string CanonicalSearchKnobs(const SearchKnobs& knobs, std::size_t switch_count) {
  ValidateSearchKnobs(knobs);
  const EffectiveKnobs effective = ResolveSearchKnobs(knobs, switch_count);
  std::string key = "algo=" + knobs.algo;
  if (effective.samples != 0) {
    key += ";samples=" + std::to_string(effective.samples);
  } else {
    key += ";seeds=" + std::to_string(effective.seeds) +
           ";iters=" + std::to_string(effective.iterations);
  }
  key += ";rng=" + std::to_string(knobs.rng_seed);
  return key;
}

sched::SearchResult RunMappingSearch(const dist::DistanceTable& table,
                                     const std::vector<std::size_t>& cluster_sizes,
                                     const SearchKnobs& knobs) {
  ValidateSearchKnobs(knobs);
  if (cluster_sizes.size() < 2) {
    throw ConfigError("a mapping search needs at least two applications");
  }
  const EffectiveKnobs effective = ResolveSearchKnobs(knobs, table.size());
  if (knobs.algo == "tabu") {
    sched::TabuOptions options;
    options.seeds = effective.seeds;
    options.max_iterations_per_seed = effective.iterations;
    options.rng_seed = knobs.rng_seed;
    options.parallel_seeds = knobs.parallel_seeds;
    return sched::TabuSearch(table, cluster_sizes, options);
  }
  if (knobs.algo == "sd") {
    sched::SteepestDescentOptions options;
    options.restarts = effective.seeds;
    options.max_iterations_per_restart = effective.iterations;
    options.rng_seed = knobs.rng_seed;
    options.parallel_seeds = knobs.parallel_seeds;
    return sched::SteepestDescent(table, cluster_sizes, options);
  }
  if (knobs.algo == "random") {
    sched::RandomSearchOptions options;
    options.samples = effective.samples;
    options.rng_seed = knobs.rng_seed;
    options.parallel_seeds = knobs.parallel_seeds;
    return sched::RandomSearch(table, cluster_sizes, options);
  }
  if (knobs.algo == "sa") {
    sched::AnnealingOptions options;
    options.iterations = effective.iterations;
    options.restarts = effective.seeds;
    options.rng_seed = knobs.rng_seed;
    options.parallel_seeds = knobs.parallel_seeds;
    return sched::SimulatedAnnealing(table, cluster_sizes, options);
  }
  sched::GeneticAnnealingOptions options;  // gsa: ResolveSearchKnobs rejected any other name
  options.generations = effective.iterations;
  options.restarts = effective.seeds;
  options.rng_seed = knobs.rng_seed;
  options.parallel_seeds = knobs.parallel_seeds;
  return sched::GeneticSimulatedAnnealing(table, cluster_sizes, options);
}

qual::Partition ChooseMappingPartition(const std::string& mapping,
                                       const std::vector<std::size_t>& cluster_sizes,
                                       std::uint64_t mapping_seed) {
  if (mapping == "random") {
    Rng rng(mapping_seed);
    return qual::Partition::Random(cluster_sizes, rng);
  }
  if (mapping == "blocked") {
    return qual::Partition::Blocked(cluster_sizes);
  }
  throw ConfigError("unknown mapping '" + mapping + "' (op|random|blocked)");
}

std::string FormatSimulateText(const qual::Partition& partition, const sim::SweepResult& result,
                               const faults::FaultPlan* plan) {
  std::ostringstream out;
  out << "mapping: " << partition.ToString() << "\n";
  TextTable table({"offered", "accepted", "latency", "saturated"});
  table.set_precision(4);
  for (const sim::SweepPoint& p : result.points) {
    table.AddRow({p.offered_rate, p.metrics.accepted_flits_per_switch_cycle,
                  p.metrics.avg_latency_cycles,
                  std::string(p.metrics.Saturated() ? "yes" : "no")});
  }
  out << table;
  out << "throughput: " << result.Throughput() << " flits/switch/cycle\n";
  if (plan != nullptr) {
    std::size_t dropped = 0;
    std::size_t lost = 0;
    std::size_t reconfig = 0;
    for (const sim::SweepPoint& p : result.points) {
      dropped += p.metrics.dropped_flits;
      lost += p.metrics.messages_lost;
      reconfig = std::max(reconfig, p.metrics.reconfig_cycles);
    }
    out << "faults: " << plan->events().size() << " planned events, dropped flits " << dropped
        << ", messages lost " << lost << ", reconfig cycles/run " << reconfig << "\n";
  }
  return out.str();
}

std::string FormatExperimentText(const core::ExperimentResult& result) {
  std::ostringstream out;
  TextTable table({"mapping", "C_c", "throughput", "partition"});
  table.set_precision(4);
  for (const core::MappingEvaluation& eval : result.mappings) {
    table.AddRow({eval.label, eval.cc, eval.Throughput(), eval.partition.ToString()});
  }
  out << table;
  out << "OP / best random throughput: ";
  if (result.BestRandomThroughput() > 0.0) {
    out << result.ThroughputImprovement() << "x\n";
  } else {
    out << "n/a (no random mapping delivered traffic)\n";
  }
  return out.str();
}

void ValidateMultilevelKnobs(const MultilevelKnobs& knobs) {
  if (knobs.processes == 0) throw ConfigError("multilevel requires a process count >= 1");
  if (knobs.seeds == std::size_t{0}) {
    throw ConfigError("search seeds must be >= 1 (got 0)");
  }
  if (knobs.iterations == std::size_t{0}) {
    throw ConfigError("search iterations must be >= 1 (got 0)");
  }
  if (knobs.pattern != "ring" && knobs.pattern != "grid" && knobs.pattern != "random") {
    throw ConfigError("unknown comm pattern '" + knobs.pattern + "' (ring|grid|random)");
  }
  if (knobs.distance != "resistance" && knobs.distance != "hops") {
    throw ConfigError("unknown distance kind '" + knobs.distance + "' (resistance|hops)");
  }
}

std::string CanonicalMultilevelKnobs(const MultilevelKnobs& knobs) {
  ValidateMultilevelKnobs(knobs);
  const sched::ml::MultilevelOptions options = ResolveMultilevelKnobs(knobs);
  std::ostringstream key;
  key << "ml=1;procs=" << knobs.processes << ";pattern=" << knobs.pattern
      << ";pattern_seed=" << knobs.pattern_seed << ";coarsen=" << options.coarsen_target
      << ";budget=" << options.refine_budget << ";seeds=" << options.seeds
      << ";iters=" << options.engine_iterations << ";rng=" << options.rng_seed
      << ";distance=" << knobs.distance;
  return key.str();
}

sched::ml::MultilevelResult RunMultilevelSchedule(const dist::DistanceTable& table,
                                                  std::size_t hosts_per_switch,
                                                  const MultilevelKnobs& knobs) {
  ValidateMultilevelKnobs(knobs);
  const qual::CommGraph graph =
      work::MakePatternComm(knobs.pattern, knobs.processes, knobs.pattern_seed);
  return sched::ml::MapMultilevel(graph, table, hosts_per_switch, ResolveMultilevelKnobs(knobs));
}

std::string FormatMultilevelText(const sched::ml::MultilevelResult& result,
                                 std::size_t switch_count, std::size_t hosts_per_switch) {
  std::ostringstream out;
  out << "multilevel: procs=" << result.switch_of_process.size()
      << " switches=" << switch_count << " hosts=" << hosts_per_switch
      << " levels=" << result.levels << " coarsest=" << result.coarsest_vertices << "\n";
  out << "level vertices edges before after moves\n";
  for (std::size_t i = 0; i < result.level_stats.size(); ++i) {
    const sched::ml::LevelStats& stats = result.level_stats[i];
    out << i << " " << stats.vertices << " " << stats.edges << " " << stats.cost_before
        << " " << stats.cost_after << " " << stats.moves << "\n";
  }
  out << "final: cost=" << result.cost << " normalized=" << result.normalized
      << " max_load=" << result.max_load << "\n";
  if (result.switch_of_process.size() <= 64) {
    out << "assignment:";
    for (std::size_t s : result.switch_of_process) out << " " << s;
    out << "\n";
  }
  return out.str();
}

}  // namespace commsched::svc
