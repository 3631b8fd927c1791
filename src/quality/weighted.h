// Weighted quality functions — lifting the paper's "all the processes have
// the same communication requirements" assumption (listed as future work).
//
// A symmetric non-negative weight w(i,j) models the communication intensity
// between the processes mapped on switches i and j. The weighted global
// similarity generalizes eq. (2):
//
//   F_G^w = ( Σ_intra w T² / Σ_intra w ) / ( Σ_all w T² / Σ_all w )
//
// and reduces exactly to F_G when every weight is equal. D_G^w and C_c^w
// follow the same pattern over intercluster pairs.
#pragma once

#include "distance/distance_table.h"
#include "quality/partition.h"
#include "quality/quality.h"

namespace commsched::qual {

using dist::DistanceTable;

/// Symmetric N x N non-negative weights with zero diagonal.
class WeightMatrix {
 public:
  WeightMatrix() = default;

  /// All off-diagonal weights `fill`.
  WeightMatrix(std::size_t n, double fill);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    CS_DCHECK(i < n_ && j < n_, "weight index out of range");
    return values_[i * n_ + j];
  }
  void Set(std::size_t i, std::size_t j, double weight);

  /// Sum of all unordered pair weights.
  [[nodiscard]] double TotalWeight() const;

  /// Scales so TotalWeight() == number of unordered pairs (i.e. the uniform
  /// matrix maps to all-ones); requires a non-zero matrix.
  void Normalize();

 private:
  std::size_t n_ = 0;
  std::vector<double> values_;
};

/// Weighted eq. (2). Requires positive total intracluster weight.
[[nodiscard]] double WeightedGlobalSimilarity(const DistanceTable& table,
                                              const WeightMatrix& weights,
                                              const Partition& partition);

/// Weighted eq. (5); NaN when no weight is intercluster (D_G^w undefined).
[[nodiscard]] double WeightedGlobalDissimilarity(const DistanceTable& table,
                                                 const WeightMatrix& weights,
                                                 const Partition& partition);

/// C_c^w = D_G^w / F_G^w (NaN with D_G^w).
[[nodiscard]] double WeightedClusteringCoefficient(const DistanceTable& table,
                                                   const WeightMatrix& weights,
                                                   const Partition& partition);

// ---------------------------------------------------------------------------
// Application-intensity weighting.
//
// When the heterogeneity is *per application* (application c's processes all
// communicate with intensity λ_c — what a traffic monitor reports under the
// paper's uniform-within-application model), the weight of a switch pair
// depends on which cluster currently hosts it, not on the switches
// themselves. The intensity similarity generalizes eq. (2) as
//
//   F_G^λ = ( Σ_c λ_c F_Ac / Σ_c λ_c m_c ) / ( Σ_all T² / m_all )
//
// with m_c the intracluster pair count of cluster c. All λ equal recovers
// F_G exactly, and the denominator is invariant under swaps (sizes fixed),
// so F_G^λ needs no evaluator of its own: qual::SwapEvaluator takes the λ
// vector and prices a swap by the same scaled sum delta as F_G.
// ---------------------------------------------------------------------------

/// F_G^λ; `cluster_intensity` must have one positive-or-zero entry per
/// cluster with a positive weighted pair count overall.
[[nodiscard]] double IntensityGlobalSimilarity(const DistanceTable& table,
                                               const Partition& partition,
                                               const std::vector<double>& cluster_intensity);

/// Incremental evaluator for swap-based search on F_G^w. Mirrors
/// qual::SwapEvaluator; additionally maintains the running intracluster
/// weight (the weighted pair count is no longer invariant under swaps, which
/// is why F_G^w, unlike F_G^λ, has no scaled-delta form).
class WeightedSwapEvaluator {
 public:
  /// table/weights must outlive the evaluator and share the same size.
  WeightedSwapEvaluator(const DistanceTable& table, const WeightMatrix& weights,
                        Partition partition);

  [[nodiscard]] const Partition& partition() const { return partition_; }

  [[nodiscard]] double Fg() const;
  /// D_G^w (NaN without intercluster weight, as WeightedGlobalDissimilarity).
  [[nodiscard]] double Dg() const;
  /// C_c^w = D_G^w / F_G^w (NaN with D_G^w).
  [[nodiscard]] double Cc() const;

  /// F_G^w if switches a and b (different clusters) were exchanged. Unlike
  /// the unweighted case this is not a simple scaled sum delta, so the full
  /// resulting F_G^w is returned. A swap that would leave no intracluster
  /// weight has no F_G^w and returns +infinity (inadmissible).
  [[nodiscard]] double FgAfterSwap(std::size_t a, std::size_t b) const;

  void ApplySwap(std::size_t a, std::size_t b);

  void Reset(Partition partition);

 private:
  struct Sums {
    double intra_wsq = 0.0;  // Σ_intra w T²
    double intra_w = 0.0;    // Σ_intra w
  };
  [[nodiscard]] Sums ComputeSums() const;
  [[nodiscard]] Sums SwapDeltas(std::size_t a, std::size_t b) const;
  [[nodiscard]] double FgFromSums(const Sums& sums) const;

  const DistanceTable* table_;
  const WeightMatrix* weights_;
  Partition partition_;
  Sums sums_;
  double all_wsq_ = 0.0;  // Σ_all w T²
  double all_w_ = 0.0;    // Σ_all w
};

}  // namespace commsched::qual
