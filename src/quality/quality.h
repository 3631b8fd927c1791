// The paper's quality functions (§4.1, eqs. 1-5).
//
//   F_Ai (eq. 1): quadratic sum of intracluster equivalent distances.
//   F_G  (eq. 2): mean squared intracluster distance, normalized by the
//                 network-wide mean squared distance. F_G ≈ 1 for a random
//                 mapping; F_G → 0 for tightly packed clusters.
//   D_Ai (eq. 4): quadratic sum of distances from a cluster to all others.
//   D_G  (eq. 5): mean squared intercluster distance, same normalization.
//   C_c = D_G / F_G: the clustering coefficient — the intracluster /
//                 intercluster bandwidth relationship the scheduler maximizes.
#pragma once

#include <limits>
#include <vector>

#include "common/check.h"
#include "distance/distance_table.h"
#include "quality/partition.h"

namespace commsched::qual {

using dist::DistanceTable;

/// Eq. (1): F_Ai for one cluster.
[[nodiscard]] double ClusterSimilarity(const DistanceTable& table, const Partition& partition,
                                       std::size_t cluster);

/// Eq. (4): D_Ai for one cluster.
[[nodiscard]] double ClusterDissimilarity(const DistanceTable& table, const Partition& partition,
                                          std::size_t cluster);

/// Eq. (2): F_G. Requires at least one cluster with >= 2 switches.
[[nodiscard]] double GlobalSimilarity(const DistanceTable& table, const Partition& partition);

/// Eq. (5): D_G. Requires at least two clusters.
[[nodiscard]] double GlobalDissimilarity(const DistanceTable& table, const Partition& partition);

/// C_c = D_G / F_G.
[[nodiscard]] double ClusteringCoefficient(const DistanceTable& table, const Partition& partition);

/// Eq. (2) under per-application intensities: when application c's
/// processes all communicate with intensity λ_c (what a traffic monitor
/// reports under the paper's uniform-within-application model),
///
///   F_G^λ = ( Σ_c λ_c F_Ac / Σ_c λ_c m_c ) / ( Σ_all T² / m_all )
///
/// with m_c the intracluster pair count of cluster c. The denominator is
/// invariant under swaps, so SwapEvaluator prices F_G^λ by the same scaled
/// sum delta as F_G. `cluster_intensity` has one non-negative entry per
/// cluster and a positive weighted pair count overall. With λ ≡ 1 the same
/// ClusterSimilarity terms are summed in the same order over an integer
/// pair count, so the result has the bits of GlobalSimilarity.
[[nodiscard]] double IntensityGlobalSimilarity(const DistanceTable& table,
                                               const Partition& partition,
                                               const std::vector<double>& cluster_intensity);

/// Per-switch cluster gains of the dense swap evaluator:
///   G[v][c] = sum over u in cluster c of T_vu^2
/// (N x M, row-major; the table's zero diagonal keeps v out of its own
/// cluster's sum). A swap delta is then four reads and a swap an O(N)
/// update of the two affected columns, in the manner of the per-vertex gain
/// caches of Schulz & Traeff's sparse QAP mapping (quality/sparse.h).
class ClusterGainTable {
 public:
  ClusterGainTable() = default;

  /// Builds the table from scratch in O(N^2).
  ClusterGainTable(const DistanceTable& table, const Partition& partition);

  [[nodiscard]] double operator()(std::size_t v, std::size_t cluster) const {
    return gains_[v * clusters_ + cluster];
  }
  [[nodiscard]] const double* Row(std::size_t v) const { return &gains_[v * clusters_]; }

  /// Moves a from cluster ca to cb and b from cb to ca: O(N).
  void ApplySwap(const DistanceTable& table, std::size_t a, std::size_t ca, std::size_t b,
                 std::size_t cb);

 private:
  std::size_t clusters_ = 0;
  std::vector<double> gains_;
};

/// Incremental evaluator for swap-based search, over the per-cluster
/// intensity-weighted sum Σ_c λ_c F_Ac (IntensityGlobalSimilarity's F_G^λ;
/// all λ = 1, the default, is eq. (2) itself). Maintains that running sum and a
/// ClusterGainTable, so that evaluating a candidate swap is O(1), applying
/// one is O(N), and F_G is O(1).
///
/// The running sum is advanced by the exact O(N) re-summed delta, not by
/// the gain-table delta: the two differ in the last bits, and the running
/// sum decides which mapping wins a tie between seeds and walks. Each term
/// is multiplied by its λ in place, and multiplying by 1.0 is exact, so
/// with λ ≡ 1 the sum and F_G carry the bits of the unweighted eq. (2).
class SwapEvaluator {
 public:
  /// Both `table` and an initial partition; the table must outlive this.
  /// `cluster_intensity` has one non-negative λ per cluster; empty means
  /// all ones.
  SwapEvaluator(const DistanceTable& table, Partition partition,
                std::vector<double> cluster_intensity = {});

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] const DistanceTable& table() const { return *table_; }
  [[nodiscard]] const std::vector<double>& cluster_intensity() const { return intensity_; }

  /// Current weighted intracluster quadratic sum (Σ_c λ_c F_Ac).
  [[nodiscard]] double IntraSum() const { return intra_sum_; }

  /// F_G (F_G^λ under non-unit intensities).
  [[nodiscard]] double Fg() const;

  /// Change of the intracluster sum if switches a and b (in different
  /// clusters) were exchanged. F_G scales by the same constant, so ordering
  /// moves by delta orders them by F_G. Requires different clusters. O(1);
  /// defined here so the scan loops inline it.
  [[nodiscard]] double SwapDelta(std::size_t a, std::size_t b) const {
    const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
    CS_CHECK(a < cluster_of.size() && b < cluster_of.size(), "switch out of range");
    const std::size_t ca = cluster_of[a];
    const std::size_t cb = cluster_of[b];
    CS_CHECK(ca != cb, "SwapDelta requires switches in different clusters");
    const double dab = (*table_)(a, b);
    return Delta(intensity_[ca], intensity_[cb], gains_.Row(a), gains_.Row(b), ca, cb, dab * dab);
  }

  /// out[b] = SwapDelta(a, b) * scale for every b > a in another cluster,
  /// +infinity for b in a's cluster: the same Delta expression (same bits)
  /// over raw table and gain rows, with one range check per row.
  void SwapDeltaRow(std::size_t a, double scale, double* out) const {
    const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
    const std::size_t n = cluster_of.size();
    CS_CHECK(a < n, "switch out of range");
    const std::size_t ca = cluster_of[a];
    const double lambda_a = intensity_[ca];
    const double* dist_a = table_->values().data() + a * n;
    const double* gain_a = gains_.Row(a);
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::size_t cb = cluster_of[b];
      out[b] = cb == ca ? std::numeric_limits<double>::infinity()
                        : Delta(lambda_a, intensity_[cb], gain_a, gains_.Row(b), ca, cb,
                                dist_a[b] * dist_a[b]) * scale;
    }
  }

  /// Applies the swap and updates the running sum and gain table in O(N).
  void ApplySwap(std::size_t a, std::size_t b);

  /// Replaces the partition (full O(N^2) recompute of sum and gain table).
  void Reset(Partition partition);

  /// F_G that would result from applying delta to the current intra sum.
  [[nodiscard]] double FgAfterDelta(double delta) const;

 private:
  /// SwapDelta and SwapDeltaRow's one expression. Cluster ca trades a's
  /// partner sum for b's, less the (a,b) pair, which stays intercluster
  /// (G[b][ca] counts it); cb the reverse. Each side scales by its λ.
  [[nodiscard]] static double Delta(double lambda_a, double lambda_b, const double* gain_a,
                                    const double* gain_b, std::size_t ca, std::size_t cb,
                                    double sq_ab) {
    return lambda_a * (gain_b[ca] - gain_a[ca] - sq_ab) +
           lambda_b * (gain_a[cb] - gain_b[cb] - sq_ab);
  }
  /// Recomputes the pair count, gain table and running sum for partition_.
  void Rebuild();
  [[nodiscard]] double ComputeIntraSum() const;
  /// The swap delta re-summed over all N switches; keeps intra_sum_ exact.
  [[nodiscard]] double SummedSwapDelta(std::size_t a, std::size_t b) const;

  const DistanceTable* table_;
  Partition partition_;
  ClusterGainTable gains_;
  std::vector<double> intensity_;   // λ_c, one per cluster
  double intra_sum_ = 0.0;          // Σ_c λ_c F_Ac
  double pair_count_ = 0.0;         // Σ_c λ_c m_c (swap-invariant)
  double mean_sq_distance_ = 0.0;   // normalizer of eqs. (2)/(5)
};

}  // namespace commsched::qual
