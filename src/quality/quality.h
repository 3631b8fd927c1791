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

#include <span>
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

/// ClusterSimilarity of every cluster, index c, bit for bit: one counting
/// sort, then each cluster's pairs in ClusterSimilarity's order. O(N²/M)
/// reads for M clusters of N/M switches.
[[nodiscard]] std::vector<double> ClusterSimilarities(const DistanceTable& table,
                                                      const Partition& partition);

/// ClusterDissimilarity of every cluster, index c, bit for bit: one
/// branch-free pass over the table's rows in ascending order, where a
/// same-cluster entry adds +0.0 (which leaves a non-negative sum unchanged).
[[nodiscard]] std::vector<double> ClusterDissimilarities(const DistanceTable& table,
                                                         const Partition& partition);

/// Eq. (2): F_G. Requires at least one cluster with >= 2 switches.
[[nodiscard]] double GlobalSimilarity(const DistanceTable& table, const Partition& partition);

/// F_G from ClusterSimilarities(table, partition), for callers that reuse
/// the per-cluster sums (F_G and F_G^λ of one mapping).
[[nodiscard]] double GlobalSimilarity(const DistanceTable& table, const Partition& partition,
                                      std::span<const double> cluster_similarity);

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

/// F_G^λ from ClusterSimilarities(table, partition).
[[nodiscard]] double IntensityGlobalSimilarity(const DistanceTable& table,
                                               const Partition& partition,
                                               const std::vector<double>& cluster_intensity,
                                               std::span<const double> cluster_similarity);

/// Incremental evaluator for swap-based search, over the per-cluster
/// intensity-weighted sum Σ_c λ_c F_Ac (IntensityGlobalSimilarity's F_G^λ;
/// all λ = 1, the default, is eq. (2) itself). Maintains that running sum and
/// the per-switch cluster gains G[v][c] = Σ_{u ∈ c} T²_vu (N × M; the
/// table's zero diagonal keeps v out of its own cluster's sum), the gain
/// caches of Schulz & Traeff's sparse QAP mapping (quality/sparse.h). So
/// evaluating a candidate swap is four reads, applying one is an O(N)
/// update of two gain columns, and F_G is O(1).
///
/// Set-up (constructor, Reset) counting-sorts the members, then sums each
/// G[v][c] in a register over Members(c), ascending: N² reads of cached
/// rows and no scattered writes. The running sum walks each switch's later
/// cluster mates, O(N²/M); the normalizer is the table's cached one, O(1).
/// Each sum makes the same additions, in the same order, as a pass over
/// row v and the all-pairs loop would, so every bit is theirs.
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
    return Delta(intensity_[ca], intensity_[cb], GainRow(a), GainRow(b), ca, cb, dab * dab);
  }

  /// Members of cluster c, ascending; ApplySwap keeps them in order.
  [[nodiscard]] std::span<const std::size_t> Members(std::size_t c) const {
    return {members_.data() + member_begin_[c], member_begin_[c + 1] - member_begin_[c]};
  }
  /// Members of clusters c, c+1, ..., cluster by cluster (empty for c = M).
  [[nodiscard]] std::span<const std::size_t> MembersFrom(std::size_t c) const {
    return {members_.data() + member_begin_[c], members_.size() - member_begin_[c]};
  }

  /// Computes every RowBound for the current mapping in O(N·M).
  void PrepareRowBounds();
  /// A lower bound, until the next ApplySwap, on SwapDelta(min(a, b),
  /// max(a, b)) over the members b of a cluster q > c(a), bit for bit. With
  /// p = c(a) and U[s][c] = λ_c G[s][c] − λ_{c(s)} G[s][c(s)], SwapDelta is
  /// U[a][q] + U[b][p] − (λ_p + λ_q) T²_ab and T²_ab ≤ min(max T²_a, max T²_b):
  /// the bound is U[a][q] + max(min_b U[b][p] − (λ_p + λ_q) max T²_a,
  /// min_b (U[b][p] − (λ_p + λ_q) max T²_b)) less the slack.
  [[nodiscard]] double RowBound(std::size_t a, std::size_t q) const {
    return row_bound_[a * intensity_.size() + q];
  }

  /// out[i] = SwapDelta(min(a, b), max(a, b)) * scale for b = others[i],
  /// every one outside a's cluster: the per-pair expression and operand
  /// order, so each entry has the bits of the per-pair call.
  void SwapDeltaRow(std::size_t a, std::span<const std::size_t> others, double scale,
                    double* out) const {
    const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
    const std::size_t n = cluster_of.size();
    CS_CHECK(a < n, "switch out of range");
    const std::size_t ca = cluster_of[a];
    const double lambda_a = intensity_[ca];
    const double* dist_a = table_->values().data() + a * n;
    const double* gain_a = GainRow(a);
    for (std::size_t i = 0; i < others.size(); ++i) {
      const std::size_t b = others[i];
      const std::size_t cb = cluster_of[b];
      const double sq_ab = dist_a[b] * dist_a[b];
      out[i] = (b < a ? Delta(intensity_[cb], lambda_a, GainRow(b), gain_a, cb, ca, sq_ab)
                      : Delta(lambda_a, intensity_[cb], gain_a, GainRow(b), ca, cb, sq_ab)) *
               scale;
    }
  }

  /// Applies the swap and updates the running sum and gain table in O(N).
  void ApplySwap(std::size_t a, std::size_t b);

  /// Replaces the partition (recomputes the sum and gain table, as set-up).
  void Reset(Partition partition);

  /// F_G that would result from applying delta to the current intra sum.
  [[nodiscard]] double FgAfterDelta(double delta) const;

 private:
  /// RowBound's slack, relative to max λ · N · max T², which bounds every
  /// term; the rounding of a delta or a bound stays below 1e-14 of it.
  static constexpr double kRowBoundSlack = 1e-11;
  /// SwapDelta and SwapDeltaRow's one expression. Cluster ca trades a's
  /// partner sum for b's, less the (a,b) pair, which stays intercluster
  /// (G[b][ca] counts it); cb the reverse. Each side scales by its λ.
  [[nodiscard]] static double Delta(double lambda_a, double lambda_b, const double* gain_a,
                                    const double* gain_b, std::size_t ca, std::size_t cb,
                                    double sq_ab) {
    return lambda_a * (gain_b[ca] - gain_a[ca] - sq_ab) +
           lambda_b * (gain_a[cb] - gain_b[cb] - sq_ab);
  }
  [[nodiscard]] const double* GainRow(std::size_t v) const {
    return &gains_[v * intensity_.size()];
  }
  /// Recomputes the members, pair count, gain table and running sum for
  /// partition_.
  void Rebuild();
  /// Σ λ_c T² over intracluster pairs in all-pairs order; needs members_.
  [[nodiscard]] double ComputeIntraSum() const;
  /// The swap delta re-summed over all N switches; keeps intra_sum_ exact.
  [[nodiscard]] double SummedSwapDelta(std::size_t a, std::size_t b) const;

  const DistanceTable* table_;
  Partition partition_;
  std::vector<double> intensity_;          // λ_c, one per cluster
  std::vector<double> gains_;              // G, row-major
  std::vector<double> max_squared_;        // max_u T²_vu per switch; no swap changes it
  std::vector<std::size_t> members_;       // cluster by cluster, each ascending
  std::vector<std::size_t> member_begin_;  // cluster c is [begin[c], begin[c+1])
  std::vector<double> least_gains_;  // PrepareRowBounds' two minima per [q][p], p < q
  std::vector<double> row_bound_;    // [a][q], for q > c(a)
  double bound_slack_ = 0.0;
  double intra_sum_ = 0.0;          // Σ_c λ_c F_Ac
  double pair_count_ = 0.0;         // Σ_c λ_c m_c (swap-invariant)
  double mean_sq_distance_ = 0.0;   // normalizer of eqs. (2)/(5)
};

}  // namespace commsched::qual
