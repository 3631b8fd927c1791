// Tabu search driven by the *weighted* global similarity F_G^w
// (quality/weighted.h) — the scheduling technique with measured or
// estimated communication requirements instead of the paper's
// all-equal assumption.
//
// Note: unlike the unweighted case, fixed cluster sizes do NOT make
// minimizing F_G^w equivalent to maximizing C_c^w (the intracluster weight
// mass moves with the mapping), but F_G^w remains the natural target: it is
// the weighted mean squared distance actually experienced by the traffic.
#pragma once

#include "quality/weighted.h"
#include "sched/tabu.h"

namespace commsched::sched {

/// Same schedule as TabuSearch (seeds / iteration budget / tenure / repeat
/// stop), with F_G^w as the target. The returned best_fg/best_dg/best_cc are
/// the *weighted* coefficients of the best mapping (D_G^w, C_c^w NaN if it
/// keeps all weight inside clusters). Throws ConfigError when no mapping of
/// these sizes can keep any weight inside a cluster.
[[nodiscard]] SearchResult WeightedTabuSearch(const DistanceTable& table,
                                              const qual::WeightMatrix& weights,
                                              const std::vector<std::size_t>& cluster_sizes,
                                              const TabuOptions& options = {});

/// Tabu search on the application-intensity similarity F_G^λ: cluster c's
/// intracluster distances count with weight cluster_intensity[c]. This is
/// the placement search for workloads whose applications have *different*
/// communication intensities (estimated e.g. by sim::EstimateAppIntensities)
/// — the applications with higher requirements get the
/// highest-bandwidth network regions, exactly the paper's motivation.
/// best_fg is F_G^λ; best_dg/best_cc are the unweighted eq. (5) values of
/// the winning mapping (for comparability with the paper's tables).
[[nodiscard]] SearchResult IntensityTabuSearch(const DistanceTable& table,
                                               const std::vector<std::size_t>& cluster_sizes,
                                               const std::vector<double>& cluster_intensity,
                                               const TabuOptions& options = {});

}  // namespace commsched::sched
