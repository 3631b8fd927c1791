// Estimating communication requirements — the paper's future work #1:
// "the communication requirements of the applications running on the
// machine must be measured or estimated".
//
// The simulator measures them (SimConfig::collect_traffic_matrix fills
// SimMetrics::switch_pair_flit_rate); EstimateAppIntensities turns that
// ordered rate matrix into one intensity per application for an
// intensity-weighted TabuSearch (TabuOptions::cluster_intensity).
// AnalyticSwitchWeights is the reference model the measurement is checked
// against: the workload model's expected rates, exact in expectation.
#pragma once

#include "quality/partition.h"
#include "simnet/simulator.h"

namespace commsched::sim {

/// Expected ordered switch-pair message rates implied by the workload
/// model: rates[i][j] sums, over the processes on switch i, what they send
/// to processes on switch j. Every process of application a emits messages
/// at rate ∝ traffic_weight, to a uniform same-application peer with
/// probability 1 - intercluster_fraction and a uniform other-application
/// host otherwise. Same-switch traffic stays on the diagonal.
[[nodiscard]] std::vector<std::vector<double>> AnalyticSwitchWeights(
    const SwitchGraph& graph, const work::Workload& workload,
    const work::ProcessMapping& mapping);

/// Per-application communication intensities from a measured ordered rate
/// matrix and the current (switch-aligned) placement: λ_c is the mean flit
/// rate per intracluster switch pair of cluster c, normalized so the mean
/// intensity is 1. Feed into TabuOptions::cluster_intensity to re-place the
/// applications with their measured requirements — the paper's envisioned
/// measure → schedule loop.
[[nodiscard]] std::vector<double> EstimateAppIntensities(
    const std::vector<std::vector<double>>& rates, const qual::Partition& partition);

}  // namespace commsched::sim
