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

#include <vector>

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

/// Per-switch cluster gains of the dense swap evaluators:
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

  /// Moves a from cluster ca to cb and b from cb to ca: O(N).
  void ApplySwap(const DistanceTable& table, std::size_t a, std::size_t ca, std::size_t b,
                 std::size_t cb);

 private:
  std::size_t clusters_ = 0;
  std::vector<double> gains_;
};

/// Incremental evaluator for swap-based search. Maintains the intracluster
/// quadratic sum and a ClusterGainTable, so that evaluating a candidate swap
/// is O(1), applying one is O(N), and the full F_G / D_G / C_c are O(1).
///
/// The key identity: the ordered intercluster sum equals
///   2 * (sum over all pairs - intracluster sum),
/// so D_G is derivable from the same running intracluster sum as F_G.
///
/// The running sum is advanced by the exact O(N) re-summed delta, not by
/// the gain-table delta: the two differ in the last bits, and the running
/// sum decides which mapping wins a tie between seeds and walks.
class SwapEvaluator {
 public:
  /// Both `table` and an initial partition; the table must outlive this.
  SwapEvaluator(const DistanceTable& table, Partition partition);

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] const DistanceTable& table() const { return *table_; }

  /// Current intracluster quadratic sum (sum of F_Ai).
  [[nodiscard]] double IntraSum() const { return intra_sum_; }

  [[nodiscard]] double Fg() const;
  [[nodiscard]] double Dg() const;
  [[nodiscard]] double Cc() const;

  /// Change of the intracluster sum if switches a and b (in different
  /// clusters) were exchanged. F_G scales by the same constant, so ordering
  /// moves by delta orders them by F_G. Requires different clusters. O(1).
  [[nodiscard]] double SwapDelta(std::size_t a, std::size_t b) const;

  /// Applies the swap and updates the running sum and gain table in O(N).
  void ApplySwap(std::size_t a, std::size_t b);

  /// Replaces the partition (full O(N^2) recompute of sum and gain table).
  void Reset(Partition partition);

  /// F_G that would result from applying delta to the current intra sum.
  [[nodiscard]] double FgAfterDelta(double delta) const;

 private:
  [[nodiscard]] double ComputeIntraSum() const;
  /// The swap delta re-summed over all N switches; keeps intra_sum_ exact.
  [[nodiscard]] double SummedSwapDelta(std::size_t a, std::size_t b) const;

  const DistanceTable* table_;
  Partition partition_;
  ClusterGainTable gains_;
  double intra_sum_ = 0.0;
  double sum_all_pairs_sq_ = 0.0;   // sum_{i<j} T_ij^2
  double mean_sq_distance_ = 0.0;   // normalizer of eqs. (2)/(5)
};

}  // namespace commsched::qual
