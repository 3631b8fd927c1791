// Sparse-QAP objective over a communication graph (the scalable ΔF_G path).
//
// The dense SwapEvaluator implicitly assumes every intracluster pair
// communicates, so its cost is Σ_{i<j intra} T_ij²: it needs the full
// N x N table plus an N x M cluster gain table, and while a swap delta is
// O(1), applying a swap is an O(N) update. SparseQapEvaluator keeps the
// quadratic-distance form of the paper's F_G but sums only over the
// communication graph's edges:
//
//   cost = Σ_{(u,v) ∈ E}  w_uv · T[sw(u)][sw(v)]²
//
// where sw(v) is the switch hosting vertex v. With a clique-per-cluster
// graph of unit weights and one vertex per switch this reduces to the dense
// intracluster sum exactly (the parity property test), but its memory and
// its swap/move updates are O(E) and O(deg) rather than O(N^2) and O(N) —
// the enabler of the multilevel pipeline's 10^5-process refinement passes.
//
// A per-vertex gain cache (contrib_) holds each vertex's share of the cost
// (Σ over its incident edges), so refinement heuristics can rank vertices by
// how much they currently pay without rescanning edges.
#pragma once

#include <cstddef>
#include <vector>

#include "distance/distance_table.h"
#include "quality/comm_graph.h"

namespace commsched::qual {

class SparseQapEvaluator {
 public:
  /// `switch_of_vertex` assigns every vertex a switch in
  /// [0, table.size()). Both graph and table must outlive the evaluator.
  SparseQapEvaluator(const CommGraph& graph, const dist::DistanceTable& table,
                     std::vector<std::size_t> switch_of_vertex);

  [[nodiscard]] const CommGraph& graph() const { return *graph_; }
  [[nodiscard]] const dist::DistanceTable& table() const { return *table_; }

  [[nodiscard]] const std::vector<std::size_t>& switch_of_vertex() const { return switch_of_; }
  [[nodiscard]] std::size_t SwitchOf(std::size_t v) const {
    CS_DCHECK(v < switch_of_.size(), "vertex id out of range");
    return switch_of_[v];
  }

  /// Current cost Σ w·T², maintained incrementally.
  [[nodiscard]] double Cost() const { return cost_; }

  /// Cost normalized like F_G (eq. 2): (cost / total edge weight) divided by
  /// the network-wide mean squared distance. ≈ 1 for a random placement,
  /// → 0 when communicating vertices share close switches. Equals the dense
  /// F_G on the clique-per-cluster configuration.
  [[nodiscard]] double NormalizedCost() const;

  /// Gain cache: vertex v's share of the cost (sum over incident edges; the
  /// caches of both endpoints count each edge, so Σ_v VertexCost(v) == 2·Cost).
  [[nodiscard]] double VertexCost(std::size_t v) const {
    CS_DCHECK(v < contrib_.size(), "vertex id out of range");
    return contrib_[v];
  }

  /// Per-switch load: sum of vertex sizes assigned to each switch.
  [[nodiscard]] const std::vector<std::size_t>& load() const { return load_; }

  /// Cost change if vertices a and b exchanged switches. O(deg a + deg b).
  /// Zero when they share a switch.
  [[nodiscard]] double SwapDelta(std::size_t a, std::size_t b) const;

  /// Applies the exchange and updates cost, gain caches, and loads.
  void ApplySwap(std::size_t a, std::size_t b);

  /// Cost change if vertex v moved to switch s. O(deg v).
  [[nodiscard]] double MoveDelta(std::size_t v, std::size_t s) const;

  /// Moves v to s and updates cost, gain caches, and loads.
  void ApplyMove(std::size_t v, std::size_t s);

  /// O(E) reference recompute — tests assert the incremental state drifts
  /// no further than accumulated rounding from this.
  [[nodiscard]] double RecomputeCost() const;

 private:
  [[nodiscard]] double EdgeCost(double weight, std::size_t sa, std::size_t sb) const {
    const double d = (*table_)(sa, sb);
    return weight * d * d;
  }
  /// Detaches/attaches every edge of v from the running sums.
  void RemoveVertex(std::size_t v);
  void InsertVertex(std::size_t v);

  const CommGraph* graph_;
  const dist::DistanceTable* table_;
  std::vector<std::size_t> switch_of_;
  std::vector<double> contrib_;      // per-vertex gain cache
  std::vector<std::size_t> load_;    // per-switch size load
  double cost_ = 0.0;
};

}  // namespace commsched::qual
