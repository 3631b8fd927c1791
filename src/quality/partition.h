// Network partitions: the assignment of switches to clusters induced by a
// mapping of logical process clusters onto the network (§4).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"

namespace commsched::qual {

/// A partition of switches 0..N-1 into M disjoint clusters covering all
/// switches. Cluster ids are 0..M-1.
class Partition {
 public:
  Partition() = default;

  /// From a cluster id per switch; ids must form a contiguous range 0..M-1.
  explicit Partition(std::vector<std::size_t> cluster_of_switch);

  /// From explicit clusters; they must be disjoint and cover 0..N-1.
  [[nodiscard]] static Partition FromClusters(const std::vector<std::vector<std::size_t>>& clusters);

  /// Random partition with the given cluster sizes (sum = N), uniform over
  /// assignments. Deterministic in `rng`.
  [[nodiscard]] static Partition Random(const std::vector<std::size_t>& cluster_sizes, Rng& rng);

  /// Blocked partition: cluster c takes switches [offset_c, offset_c+size_c).
  [[nodiscard]] static Partition Blocked(const std::vector<std::size_t>& cluster_sizes);

  [[nodiscard]] std::size_t switch_count() const { return cluster_of_.size(); }
  [[nodiscard]] std::size_t cluster_count() const { return sizes_.size(); }

  [[nodiscard]] std::size_t ClusterOf(std::size_t s) const;
  [[nodiscard]] std::size_t ClusterSize(std::size_t cluster) const;
  [[nodiscard]] const std::vector<std::size_t>& cluster_of_switch() const { return cluster_of_; }

  /// Switches of one cluster, ascending.
  [[nodiscard]] std::vector<std::size_t> Members(std::size_t cluster) const;

  /// Every cluster's members at once, by one counting sort into the
  /// caller's buffers: cluster c is members[begin[c], begin[c + 1]),
  /// ascending, clusters in id order. O(N + M).
  void SortMembers(std::vector<std::size_t>& members, std::vector<std::size_t>& begin) const;

  /// Moves switch s into `cluster` (changes cluster sizes).
  void Move(std::size_t s, std::size_t cluster);

  /// Exchanges the clusters of switches a and b (sizes preserved).
  void Swap(std::size_t a, std::size_t b);

  /// Number of unordered intracluster pairs: sum_i x_i (x_i - 1) / 2 (eq. 3).
  [[nodiscard]] std::size_t IntraPairCount() const;

  /// Ordered intercluster pair count: sum_i x_i (N - x_i).
  [[nodiscard]] std::size_t InterPairCountOrdered() const;

  /// "(a,b,c) (d,e) ..." rendering, clusters sorted by smallest member —
  /// the same shape the paper uses in Figs. 2 and 4.
  [[nodiscard]] std::string ToString() const;

  /// Canonical form: relabels clusters by order of first appearance, so that
  /// partitions equal up to cluster renaming compare equal. Only valid for
  /// comparing partitions with equal-size clusters (relabeling preserves the
  /// grouping, not the ids).
  [[nodiscard]] std::vector<std::size_t> CanonicalLabels() const;

  /// True if the two partitions induce the same grouping (ignoring cluster
  /// ids).
  [[nodiscard]] bool SameGrouping(const Partition& other) const;

  friend bool operator==(const Partition&, const Partition&) = default;

 private:
  std::vector<std::size_t> cluster_of_;
  std::vector<std::size_t> sizes_;
};

}  // namespace commsched::qual
