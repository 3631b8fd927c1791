// The execution steps behind the scheduling service's ops (service.h).
//
// The one-shot CLI's schedule, simulate and experiment run as service
// requests, so the algorithm dispatch, default resolution (e.g. the tabu
// iteration budget) and result rendering here serve both front ends exactly
// once. The end-to-end benchmark calls RunMappingSearch directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "distance/distance_table.h"
#include "quality/partition.h"
#include "sched/multilevel/multilevel.h"
#include "sched/search.h"
#include "simnet/sweep.h"
#include "topology/graph.h"

namespace commsched::faults {
class FaultPlan;
}  // namespace commsched::faults

namespace commsched::svc {

/// Even cluster sizes for `apps` applications over `switch_count` switches;
/// throws ConfigError when `apps` is 0, the counts do not divide, or a
/// cluster would hold fewer than two switches.
[[nodiscard]] std::vector<std::size_t> EvenClusterSizes(std::size_t switch_count,
                                                        std::size_t apps);

/// Mapping-search knobs, normalized across the five searchers. nullopt
/// fields resolve to the CLI defaults (seeds 10 for tabu/sd, tabu iteration
/// budget sched::DefaultTabuIterations, ...).
struct SearchKnobs {
  std::string algo = "tabu";  // tabu|sd|random|sa|gsa
  std::optional<std::size_t> seeds;
  std::optional<std::size_t> iterations;
  std::optional<std::size_t> samples;
  std::uint64_t rng_seed = 1;
  /// Runs restarts on a thread pool. By the engine's determinism contract
  /// (sched/engine.h) this never changes the result, so cached results are
  /// shared across the flag.
  bool parallel_seeds = false;
};

/// Whether `algo` walks `seeds` x `iters` (tabu, sd, sa, gsa) or draws
/// `samples` (random), read from the table of its defaults.
enum class SearchBudget { kWalk, kSamples, kUnknownAlgo };
[[nodiscard]] SearchBudget SearchBudgetOf(std::string_view algo);

/// Throws ConfigError when an explicitly-set knob is degenerate (seeds,
/// iterations, or samples == 0 — formerly a silent no-op search). Called by
/// the protocol parser and again by RunMappingSearch.
void ValidateSearchKnobs(const SearchKnobs& knobs);

/// A stable, human-readable encoding of the knobs that affect the result —
/// the mapping-memo cache key component. parallel_seeds is deliberately
/// excluded (see above).
[[nodiscard]] std::string CanonicalSearchKnobs(const SearchKnobs& knobs,
                                               std::size_t switch_count);

/// Dispatches to the searcher named by knobs.algo with the CLI's defaults.
/// Throws ConfigError for unknown algorithms and for fewer than two
/// clusters (there is no swap to search).
[[nodiscard]] sched::SearchResult RunMappingSearch(const dist::DistanceTable& table,
                                                   const std::vector<std::size_t>& cluster_sizes,
                                                   const SearchKnobs& knobs);

/// The partition a simulate request's search-free "mapping" names:
/// "random" draws from `mapping_seed`, "blocked" packs clusters by switch
/// id. ("op" is the service's memoized default search.) Throws ConfigError
/// for any other name.
[[nodiscard]] qual::Partition ChooseMappingPartition(
    const std::string& mapping, const std::vector<std::size_t>& cluster_sizes,
    std::uint64_t mapping_seed);

/// The canonical rendering of a simulate run: the mapping line, the
/// per-point sweep table, the throughput line and, when the sweep replayed
/// a fault plan (`plan` non-null), a `faults:` summary line.
[[nodiscard]] std::string FormatSimulateText(const qual::Partition& partition,
                                             const sim::SweepResult& result,
                                             const faults::FaultPlan* plan);

/// The canonical rendering of an experiment: one row per mapping (label,
/// C_c, throughput, partition), then OP's throughput over the best random
/// mapping's, or "n/a" when no random mapping delivered traffic.
[[nodiscard]] std::string FormatExperimentText(const core::ExperimentResult& result);

// ---------------------------------------------------------------------------
// Multilevel mapping (the schedule op's "multilevel": true; DESIGN.md §13).
// ---------------------------------------------------------------------------

/// Knobs of a multilevel schedule request.
struct MultilevelKnobs {
  std::size_t processes = 0;        // process count (pattern generators)
  std::string pattern = "grid";     // ring|grid|random
  std::uint64_t pattern_seed = 1;
  std::size_t coarsen_target = 0;   // 0 = auto
  std::size_t refine_budget = 0;    // 0 = auto
  std::optional<std::size_t> seeds;       // coarsest engine seeds (default 4)
  std::optional<std::size_t> iterations;  // coarsest engine iterations (0 = auto)
  std::uint64_t rng_seed = 1;
  std::string distance = "resistance";  // resistance|hops
};

/// Throws ConfigError on degenerate knobs (processes == 0, explicit zero
/// seeds/iterations, unknown pattern or distance kind).
void ValidateMultilevelKnobs(const MultilevelKnobs& knobs);

/// Memo-key component of a multilevel schedule (see CanonicalSearchKnobs).
[[nodiscard]] std::string CanonicalMultilevelKnobs(const MultilevelKnobs& knobs);

/// Builds the process communication graph named by knobs.pattern
/// (work::MakePatternComm) and maps it onto `table`'s switches.
[[nodiscard]] sched::ml::MultilevelResult RunMultilevelSchedule(const dist::DistanceTable& table,
                                                                std::size_t hosts_per_switch,
                                                                const MultilevelKnobs& knobs);

/// The canonical rendering of a multilevel schedule — the service's "text"
/// field, which the CLI prints. The full assignment is
/// listed only for <= 64 processes (byte-identity stays cheap at scale).
[[nodiscard]] std::string FormatMultilevelText(const sched::ml::MultilevelResult& result,
                                               std::size_t switch_count,
                                               std::size_t hosts_per_switch);

}  // namespace commsched::svc
