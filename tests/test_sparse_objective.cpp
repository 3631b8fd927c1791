// Sparse-QAP evaluator properties (quality/sparse.h, DESIGN.md §13).
//
// The load-bearing guarantee is sparse-vs-dense parity: on a clique-per-
// cluster communication graph with one unit-size vertex per switch, the
// sparse cost must equal the dense SwapEvaluator's intracluster sum and
// every SwapDelta must agree, across random tables and random partitions.
// The rest are incremental-maintenance properties: deltas predict observed
// differences, the running cost matches an O(E) recompute, and the
// per-vertex gain cache stays consistent (Σ VertexCost == 2·Cost).
#include "quality/sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/comm_graph.h"
#include "quality/partition.h"
#include "quality/quality.h"
#include "workload/procgen.h"

namespace commsched {
namespace {

constexpr double kTol = 1e-9;

dist::DistanceTable RandomTable(std::size_t n, Rng& rng) {
  dist::DistanceTable table(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      table.Set(i, j, 0.5 + 3.0 * rng.NextDouble());
    }
  }
  return table;
}

std::vector<std::size_t> RandomClusterSizes(std::size_t n, std::size_t clusters, Rng& rng) {
  std::vector<std::size_t> sizes(clusters, 1);
  for (std::size_t extra = n - clusters; extra > 0; --extra) {
    ++sizes[rng.NextIndex(clusters)];
  }
  return sizes;
}

/// Identity placement: vertex v on switch v (the parity bridge puts one
/// clique vertex per switch).
std::vector<std::size_t> Identity(std::size_t n) {
  std::vector<std::size_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = v;
  return ids;
}

TEST(SparseObjective, CostMatchesHandComputedExample) {
  // Path 0-1-2 on a 3-switch line with hop distances.
  dist::DistanceTable table(3, 0.0);
  table.Set(0, 1, 1.0);
  table.Set(1, 2, 1.0);
  table.Set(0, 2, 2.0);
  const qual::CommGraph graph =
      qual::CommGraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  const qual::SparseQapEvaluator eval(graph, table, {0, 2, 1});
  // Edge (0,1): w=1, T(0,2)=2 -> 4. Edge (1,2): w=2, T(2,1)=1 -> 2.
  EXPECT_NEAR(eval.Cost(), 6.0, kTol);
}

TEST(SparseObjective, CliqueCostEqualsDenseIntraSum) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 6 + rng.NextIndex(15);
    const std::size_t clusters = 2 + rng.NextIndex(3);
    const dist::DistanceTable table = RandomTable(n, rng);
    const qual::Partition partition =
        qual::Partition::Random(RandomClusterSizes(n, clusters, rng), rng);

    const qual::CommGraph graph = qual::CommGraph::CliqueGroups(partition.cluster_of_switch());
    const qual::SparseQapEvaluator sparse(graph, table, Identity(n));
    const qual::SwapEvaluator dense(table, partition);

    EXPECT_NEAR(sparse.Cost(), dense.IntraSum(), kTol) << "seed=" << seed;
    EXPECT_NEAR(sparse.NormalizedCost(), qual::GlobalSimilarity(table, partition), kTol)
        << "seed=" << seed;
  }
}

TEST(SparseObjective, CliqueSwapDeltaMatchesDenseSwapEvaluator) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 6 + rng.NextIndex(15);
    const std::size_t clusters = 2 + rng.NextIndex(3);
    const dist::DistanceTable table = RandomTable(n, rng);
    qual::Partition partition =
        qual::Partition::Random(RandomClusterSizes(n, clusters, rng), rng);

    const qual::CommGraph graph = qual::CommGraph::CliqueGroups(partition.cluster_of_switch());
    qual::SparseQapEvaluator sparse(graph, table, Identity(n));
    qual::SwapEvaluator dense(table, partition);
    // Dense swaps exchange *switches* between clusters; the sparse
    // equivalent exchanges the vertices currently hosted on those switches.
    std::vector<std::size_t> vertex_on = Identity(n);

    for (int step = 0; step < 10; ++step) {
      std::size_t a = rng.NextIndex(n);
      std::size_t b = rng.NextIndex(n);
      if (a == b || dense.partition().ClusterOf(a) == dense.partition().ClusterOf(b)) {
        continue;
      }
      const std::size_t va = vertex_on[a];
      const std::size_t vb = vertex_on[b];
      EXPECT_NEAR(sparse.SwapDelta(va, vb), dense.SwapDelta(a, b), kTol)
          << "seed=" << seed << " step=" << step;
      sparse.ApplySwap(va, vb);
      dense.ApplySwap(a, b);
      std::swap(vertex_on[a], vertex_on[b]);
      EXPECT_NEAR(sparse.Cost(), dense.IntraSum(), kTol) << "seed=" << seed;
    }
  }
}

TEST(SparseObjective, DeltasPredictObservedDifferences) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(100 + seed);
    const std::size_t n = 12 + rng.NextIndex(20);
    const std::size_t switches = 4 + rng.NextIndex(4);
    const dist::DistanceTable table = RandomTable(switches, rng);
    const qual::CommGraph graph = work::MakeRandomComm(n, 4, seed);

    std::vector<std::size_t> placement(n);
    for (std::size_t v = 0; v < n; ++v) placement[v] = rng.NextIndex(switches);
    qual::SparseQapEvaluator eval(graph, table, std::move(placement));

    for (int step = 0; step < 16; ++step) {
      const double before = eval.Cost();
      if (step % 2 == 0) {
        const std::size_t a = rng.NextIndex(n);
        const std::size_t b = rng.NextIndex(n);
        if (a == b) continue;
        const double predicted = eval.SwapDelta(a, b);
        eval.ApplySwap(a, b);
        EXPECT_NEAR(eval.Cost() - before, predicted, kTol) << "seed=" << seed;
      } else {
        const std::size_t v = rng.NextIndex(n);
        const std::size_t s = rng.NextIndex(switches);
        const double predicted = eval.MoveDelta(v, s);
        eval.ApplyMove(v, s);
        EXPECT_NEAR(eval.Cost() - before, predicted, kTol) << "seed=" << seed;
      }
      EXPECT_NEAR(eval.Cost(), eval.RecomputeCost(), kTol) << "seed=" << seed;
    }
  }
}

TEST(SparseObjective, GainCacheAndLoadsStayConsistent) {
  Rng rng(7);
  const dist::DistanceTable table = RandomTable(5, rng);
  const qual::CommGraph graph = work::MakeGridComm(24);
  std::vector<std::size_t> placement(24);
  for (std::size_t v = 0; v < 24; ++v) placement[v] = rng.NextIndex(5);
  qual::SparseQapEvaluator eval(graph, table, std::move(placement));

  for (int step = 0; step < 30; ++step) {
    eval.ApplyMove(rng.NextIndex(24), rng.NextIndex(5));
    double contrib_sum = 0.0;
    for (std::size_t v = 0; v < 24; ++v) contrib_sum += eval.VertexCost(v);
    EXPECT_NEAR(contrib_sum, 2.0 * eval.Cost(), kTol);
    std::size_t load_sum = 0;
    for (std::size_t s = 0; s < 5; ++s) load_sum += eval.load()[s];
    EXPECT_EQ(load_sum, graph.total_vertex_size());
  }
}

TEST(SparseObjective, SameSwitchSwapAndMoveAreFree) {
  Rng rng(9);
  const dist::DistanceTable table = RandomTable(4, rng);
  const qual::CommGraph graph = work::MakeRingComm(8);
  qual::SparseQapEvaluator eval(graph, table, {0, 0, 1, 1, 2, 2, 3, 3});
  EXPECT_NEAR(eval.SwapDelta(0, 1), 0.0, kTol);     // same switch
  EXPECT_NEAR(eval.MoveDelta(2, 1), 0.0, kTol);     // already there
}

TEST(SparseObjective, CommGraphCanonicalizesAndMergesEdges) {
  const qual::CommGraph graph = qual::CommGraph::FromEdges(
      4, {{2, 1, 1.0}, {1, 2, 0.5}, {0, 3, 2.0}});
  ASSERT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.edges()[0].u, 0u);
  EXPECT_EQ(graph.edges()[0].v, 3u);
  EXPECT_NEAR(graph.edges()[1].weight, 1.5, kTol);  // (1,2) merged
  EXPECT_NEAR(graph.TotalEdgeWeight(), 3.5, kTol);
  EXPECT_EQ(graph.Degree(1), 1u);
  EXPECT_EQ(graph.NeighborsBegin(1)->vertex, 2u);
}

TEST(SparseObjective, CommGraphRejectsBadEdges) {
  EXPECT_THROW(qual::CommGraph::FromEdges(0, {}), ConfigError);
  EXPECT_THROW(qual::CommGraph::FromEdges(3, {{1, 1, 1.0}}), ConfigError);
  EXPECT_THROW(qual::CommGraph::FromEdges(3, {{0, 3, 1.0}}), ConfigError);
  EXPECT_THROW(qual::CommGraph::FromEdges(3, {{0, 1, 0.0}}), ConfigError);
  EXPECT_THROW(qual::CommGraph::FromEdges(3, {{0, 1, -2.0}}), ConfigError);
}

TEST(SparseObjective, PatternGeneratorsProduceExpectedShapes) {
  const qual::CommGraph ring = work::MakeRingComm(10);
  EXPECT_EQ(ring.edge_count(), 10u);
  for (std::size_t v = 0; v < 10; ++v) EXPECT_EQ(ring.Degree(v), 2u);

  const qual::CommGraph grid = work::MakeGridComm(12);  // 3 x 4 stencil
  EXPECT_EQ(grid.vertex_count(), 12u);
  EXPECT_EQ(grid.edge_count(), 2u * 12u - 3u - 4u);  // rows*(cols-1)+cols*(rows-1)

  const qual::CommGraph random = work::MakeRandomComm(50, 4, 3);
  EXPECT_EQ(random.vertex_count(), 50u);
  EXPECT_GT(random.edge_count(), 50u);  // ~100 draws minus merges/self-skips
  const qual::CommGraph again = work::MakeRandomComm(50, 4, 3);
  EXPECT_EQ(random.edges(), again.edges());  // deterministic in the seed

  EXPECT_THROW(work::MakePatternComm("bogus", 8, 1), ConfigError);
  EXPECT_THROW(work::MakePatternComm("ring", 0, 1), ConfigError);
}

}  // namespace
}  // namespace commsched
