// Sparse process communication graphs (the sparse-QAP view of §4).
//
// The dense quality functions treat every switch pair as communicating; at
// 10^5+ processes that all-pairs view is both wrong (real exchanges are
// sparse — halo exchanges, rings, near-neighbour stencils) and unaffordable
// (O(N^2) per objective evaluation). CommGraph is the sparse alternative: an
// immutable weighted undirected graph over process vertices, stored both as
// a canonical edge list (u < v, sorted) and in CSR form for O(deg) swap
// deltas. Each vertex carries an integral size — 1 for a plain process,
// larger for the merged super-vertices produced by multilevel coarsening
// (sched/multilevel/coarsen.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"

namespace commsched::qual {

/// One weighted undirected edge; FromEdges canonicalizes to u < v.
struct CommEdge {
  std::size_t u = 0;
  std::size_t v = 0;
  double weight = 1.0;

  friend bool operator==(const CommEdge&, const CommEdge&) = default;
};

class CommGraph {
 public:
  /// One CSR adjacency entry.
  struct Neighbor {
    std::size_t vertex = 0;
    double weight = 0.0;
  };

  CommGraph() = default;

  /// Builds from an edge list. Parallel edges (including (u,v)/(v,u)
  /// duplicates) merge by summing weights; self-loops, out-of-range
  /// endpoints and non-positive weights throw ConfigError. All vertex
  /// sizes are 1.
  [[nodiscard]] static CommGraph FromEdges(std::size_t vertex_count,
                                           std::vector<CommEdge> edges);

  /// Same, with explicit per-vertex sizes (multilevel super-vertices).
  [[nodiscard]] static CommGraph FromEdges(std::size_t vertex_count, std::vector<CommEdge> edges,
                                           std::vector<std::size_t> vertex_sizes);

  /// The dense model as a sparse graph: vertices in the same group form a
  /// clique of weight-`weight` edges. This is the bridge the parity tests
  /// use — on a clique-per-cluster graph the sparse cost equals the dense
  /// intracluster quadratic sum exactly.
  [[nodiscard]] static CommGraph CliqueGroups(const std::vector<std::size_t>& group_of_vertex,
                                              double weight = 1.0);

  [[nodiscard]] std::size_t vertex_count() const { return sizes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] std::size_t vertex_size(std::size_t v) const {
    CS_DCHECK(v < sizes_.size(), "vertex id out of range");
    return sizes_[v];
  }
  /// Sum of vertex sizes (the number of finest-level processes represented).
  [[nodiscard]] std::size_t total_vertex_size() const { return total_size_; }

  /// Sum of edge weights over unordered edges. Coarsening conserves
  /// TotalEdgeWeight() + absorbed weight (the multilevel invariant test).
  [[nodiscard]] double TotalEdgeWeight() const { return total_weight_; }

  [[nodiscard]] std::size_t Degree(std::size_t v) const {
    CS_DCHECK(v < sizes_.size(), "vertex id out of range");
    return offsets_[v + 1] - offsets_[v];
  }

  /// CSR neighbors of v (both directions of every incident edge).
  [[nodiscard]] const Neighbor* NeighborsBegin(std::size_t v) const {
    CS_DCHECK(v < sizes_.size(), "vertex id out of range");
    return neighbors_.data() + offsets_[v];
  }
  [[nodiscard]] const Neighbor* NeighborsEnd(std::size_t v) const {
    CS_DCHECK(v < sizes_.size(), "vertex id out of range");
    return neighbors_.data() + offsets_[v + 1];
  }

  /// Canonical merged edge list: u < v, sorted lexicographically.
  [[nodiscard]] const std::vector<CommEdge>& edges() const { return edges_; }

 private:
  std::vector<CommEdge> edges_;        // canonical u < v, sorted
  std::vector<std::size_t> offsets_;   // CSR, vertex_count()+1 entries
  std::vector<Neighbor> neighbors_;    // 2 * edge_count() entries
  std::vector<std::size_t> sizes_;     // per-vertex size (>= 1)
  double total_weight_ = 0.0;
  std::size_t total_size_ = 0;
};

}  // namespace commsched::qual
