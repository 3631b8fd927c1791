// Anchored repair scheduling after component failure (ISSUE 3 tentpole,
// part 3).
//
// When switches die or are evicted by a network partition, the live mapping
// must be repaired *in place*: processes stranded on lost hardware are
// migrated first (forced moves), then a bounded swap refinement recovers the
// clustering coefficient — restarting from the current mapping rather than
// from random seeds, because every additional changed assignment is a
// process migration with real cost (cf. Bender et al.'s processor-allocation
// repair and Schulz et al.'s mapping-under-change setting).
//
// AnchoredRepair works in the *surviving* switch index space: the caller
// restricts the pre-fault partition to the survivors (e.g. via
// faults::Reconfiguration::to_compact) and supplies the distance table built
// on the degraded routing.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "distance/distance_table.h"
#include "quality/partition.h"

namespace commsched::sched {

struct RepairOptions {
  /// Maximum number of switches the refinement phase may leave displaced
  /// relative to the post-forced-move anchor. Forced moves (drafting spares
  /// into damaged clusters) do not count — they are unavoidable.
  std::size_t migration_budget = SIZE_MAX;

  /// Soft bias: a refinement swap's F_G gain must exceed
  /// migration_penalty * (added displaced switches) / N to be taken.
  /// 0 = pure quality refinement within the hard budget.
  double migration_penalty = 0.0;

  /// Hard cap on refinement swaps (each swap displaces at most 2 switches).
  std::size_t max_refinement_rounds = 100;

  /// Refinement restarts. Seed 0 always refines straight from the
  /// post-forced-move anchor (bit-identical to the single-seed repair);
  /// extra seeds perturb the anchor with a few random admissible swaps
  /// before refining. The seeds run and combine through the engine's
  /// RunSeeds + BestSeed: within the migration budget the least
  /// F_G + penalty * displaced / N wins, a tie keeping the earlier seed,
  /// and the outcome reports that seed's own swaps and displacement.
  /// (Appended after the original fields so designated initializers keep
  /// working.)
  std::size_t seeds = 1;
  std::uint64_t rng_seed = 1;
  bool parallel_seeds = false;  // run refinement seeds on a thread pool
};

struct RepairOutcome {
  qual::Partition repaired;

  std::size_t forced_moves = 0;       // spares drafted into damaged clusters
  std::size_t refinement_swaps = 0;   // swaps applied by refinement
  std::size_t displaced = 0;          // switches whose final cluster differs
                                      // from the post-forced-move anchor
  double anchor_fg = 0.0;    // F_G right after forced moves (refinement start)
  double repaired_fg = 0.0;  // final F_G
  double repaired_cc = 0.0;  // final C_c
};

/// Repairs `anchor` (a valid partition of the surviving switches).
///
/// Phase 1 — forced migration: for each cluster c, draft
/// `deficit_per_cluster[c]` switches out of `spare_cluster` (the free pool,
/// if any), greedily choosing the spare with the smallest added quadratic
/// intracluster distance. Drafting stops when the pool is down to one switch
/// (a Partition cluster can never be emptied); damaged clusters then simply
/// stay smaller.
///
/// Phase 2 — bounded refinement: steepest descent over a TabuObjective
/// anchored at the post-forced-move partition, with
/// options.migration_penalty as its migration term and
/// options.migration_budget as its hard budget.
/// Note the spare cluster (when present) takes part in the objective like
/// any other cluster; callers that want free switches ignored should not
/// pass a spare cluster and handle the pool outside.
///
/// `deficit_per_cluster` may be empty (no forced phase) or must have one
/// entry per cluster of `anchor`.
[[nodiscard]] RepairOutcome AnchoredRepair(const dist::DistanceTable& table,
                                           const qual::Partition& anchor,
                                           const std::vector<std::size_t>& deficit_per_cluster,
                                           std::optional<std::size_t> spare_cluster,
                                           const RepairOptions& options = {});

}  // namespace commsched::sched
