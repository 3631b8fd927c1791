// The table of equivalent distances (paper §3, originally [2]).
//
// For each switch pair (i, j): take the union of links on every minimal path
// supplied by the routing algorithm, replace each link by a 1 Ω resistor, and
// define T[i][j] as the effective resistance between i and j. The table
// captures both topology and routing, is traffic-independent, does not
// satisfy the triangle inequality (so it is not a metric), and is the basis
// of the scheduling quality functions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "routing/routing.h"

namespace commsched::dist {

using route::Routing;
using topo::SwitchId;

/// Symmetric N x N table of equivalent distances; T[i][i] == 0.
class DistanceTable {
 public:
  DistanceTable() = default;

  /// Table with all off-diagonal entries `fill` (mostly for tests).
  DistanceTable(std::size_t n, double fill);

  /// Builds the equivalent-distance table for a routing function, optionally
  /// parallelizing across destination columns (inline below
  /// route::kParallelSetupMinSwitches switches). Both ways give the same
  /// bytes.
  [[nodiscard]] static DistanceTable Build(const Routing& routing, bool parallel = true);

  /// Hop-count table (ablation baseline): T[i][j] = minimal legal hops.
  [[nodiscard]] static DistanceTable BuildHopCount(const Routing& routing);

  /// BFS hop-count table straight from the graph, no routing function — the
  /// large-fabric path (DESIGN.md §13). Build()'s per-pair effective-
  /// resistance solves are infeasible at 10^3 switches; one BFS per source
  /// is O(N(N+L)) total. Requires a connected graph.
  [[nodiscard]] static DistanceTable BuildGraphHops(const topo::SwitchGraph& graph);

  /// Reconstructs a table from its raw row-major values (the artifact-store
  /// warm-boot path, DESIGN.md §14); `values` must hold n*n entries. Throws
  /// ConfigError on a size mismatch.
  [[nodiscard]] static DistanceTable FromValues(std::size_t n, std::vector<double> values);

  /// The raw row-major values (n*n entries) — the persisted representation.
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    CS_DCHECK(i < n_ && j < n_, "distance index out of range");
    return values_[i * n_ + j];
  }

  /// Sets T[i][j] = T[j][i]; the cached normalizer goes stale.
  void Set(std::size_t i, std::size_t j, double value);

  /// Sum of squared distances over unordered pairs, sum_{i<j} T[i][j]^2,
  /// summed row by row. O(N^2) on every call.
  [[nodiscard]] double SumSquaredAllPairs() const;

  /// Quadratic mean normalizer of eq. (2)/(5): SumSquaredAllPairs() divided
  /// by N(N-1)/2. Every factory caches the sum, so this is O(1) until a Set;
  /// a table changed by Set (or made by the fill constructor) sums on each
  /// call. Never writes the cache, so tables stay safe to share.
  [[nodiscard]] double MeanSquaredDistance() const;

  /// True if T[i][j] <= T[i][k] + T[k][j] for all triples (the equivalent
  /// distance generally violates this; exposed so tests/benches can report
  /// how non-metric a table is).
  [[nodiscard]] bool SatisfiesTriangleInequality(double tolerance = 1e-9) const;

  /// Max |T - other| entry.
  [[nodiscard]] double MaxAbsDiff(const DistanceTable& other) const;

  /// CSV rendering (switch ids as header).
  [[nodiscard]] std::string ToCsv() const;

 private:
  /// Caches SumSquaredAllPairs(); every factory ends with it.
  void CacheSumSquared();

  std::size_t n_ = 0;
  std::vector<double> values_;
  double sum_squared_ = 0.0;        // SumSquaredAllPairs(), when fresh
  bool sum_squared_fresh_ = false;
};

/// Pearson correlation between the equivalent-distance and hop-count tables
/// (upper triangle); the paper reports the equivalent distance tracks
/// congestion better than hops, but the two are strongly related.
[[nodiscard]] double CorrelateTables(const DistanceTable& a, const DistanceTable& b);

}  // namespace commsched::dist
