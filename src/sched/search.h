// Common types for the mapping searchers (§4.2).
//
// Every searcher minimizes the global similarity function F_G over the space
// of network partitions with fixed cluster sizes (the space Ω of mappings of
// processes to processors). Since cluster sizes are fixed, minimizing F_G
// simultaneously maximizes the clustering coefficient C_c = D_G / F_G.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "distance/distance_table.h"
#include "quality/partition.h"
#include "quality/quality.h"

namespace commsched::sched {

using dist::DistanceTable;
using qual::Partition;

/// One point of a search trace (Fig. 1 plots these).
struct TracePoint {
  std::size_t iteration = 0;  // global iteration number across restarts
  double fg = 0.0;            // F_G after this iteration's move
  bool is_restart = false;    // true for the random starting point of a seed
};

/// Outcome of a mapping search.
struct SearchResult {
  Partition best;
  double best_fg = 0.0;
  double best_dg = 0.0;
  double best_cc = 0.0;
  std::size_t iterations = 0;        // moves applied (all restarts combined)
  std::size_t evaluations = 0;       // candidate F_G evaluations
  std::vector<TracePoint> trace;     // filled only when tracing is enabled
  /// Switches whose cluster differs from the anchor's (migration-aware
  /// searches only; 0 otherwise).
  std::size_t moved_from_anchor = 0;
};

/// Fills best_fg / best_dg / best_cc of a result from its partition: one
/// O(N²/M) F_G pass and one O(N²) D_G pass. A caller that already holds
/// qual::ClusterSimilarities of result.best passes them in and skips the
/// F_G pass.
void FinalizeResult(const DistanceTable& table, SearchResult& result,
                    std::span<const double> cluster_similarity = {});

/// The canonical human-readable rendering of a search result — exactly what
/// `commsched_cli schedule` prints. Shared with the scheduling service so a
/// served request is byte-identical to the one-shot CLI run (the service
/// e2e test diffs the two).
[[nodiscard]] std::string FormatSearchResult(const SearchResult& result);

}  // namespace commsched::sched
