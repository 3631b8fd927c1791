// Property tests for qual::SwapEvaluator's incremental maintenance: across
// many random (size, seed) instances, the running intracluster sum after a
// chain of ApplySwap calls must match a from-scratch recompute, and
// SwapDelta must predict exactly the observed before/after difference. A
// long-walk case checks that the O(1) gain-table deltas do not drift, with
// unit and with per-cluster intensities λ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/partition.h"
#include "quality/quality.h"
#include "routing/updown.h"
#include "topology/generator.h"

namespace commsched {
namespace {

constexpr double kTol = 1e-9;

/// Random symmetric table with off-diagonal entries in [0.5, 3.5) — the
/// quality functions only need symmetry and non-negativity, so random
/// tables explore far more shapes than real topologies would.
dist::DistanceTable RandomTable(std::size_t n, Rng& rng) {
  dist::DistanceTable table(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      table.Set(i, j, 0.5 + 3.0 * rng.NextDouble());
    }
  }
  return table;
}

/// Random cluster sizes: `clusters` parts of n with every part >= 1.
std::vector<std::size_t> RandomClusterSizes(std::size_t n, std::size_t clusters, Rng& rng) {
  std::vector<std::size_t> sizes(clusters, 1);
  for (std::size_t extra = n - clusters; extra > 0; --extra) {
    ++sizes[rng.NextIndex(clusters)];
  }
  return sizes;
}

/// A uniformly random pair of switches in different clusters (the partition
/// always has >= 2 clusters here, so one exists).
std::pair<std::size_t, std::size_t> RandomInterClusterPair(const qual::Partition& partition,
                                                           Rng& rng) {
  for (;;) {
    const std::size_t a = rng.NextIndex(partition.switch_count());
    const std::size_t b = rng.NextIndex(partition.switch_count());
    if (a != b && partition.ClusterOf(a) != partition.ClusterOf(b)) {
      return {a, b};
    }
  }
}

/// One (size, seed) case: walk 12 random swaps, checking the two properties
/// after every step.
void CheckCase(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 6 + rng.NextIndex(19);           // 6..24 switches
  const std::size_t clusters = 2 + rng.NextIndex(3);     // 2..4 clusters
  const dist::DistanceTable table = RandomTable(n, rng);
  const std::vector<std::size_t> sizes = RandomClusterSizes(n, clusters, rng);
  qual::SwapEvaluator eval(table, qual::Partition::Random(sizes, rng));

  for (int step = 0; step < 12; ++step) {
    const auto [a, b] = RandomInterClusterPair(eval.partition(), rng);
    const double predicted_delta = eval.SwapDelta(a, b);
    const double before = eval.IntraSum();

    eval.ApplySwap(a, b);

    // Property 1: the incrementally maintained sum matches a from-scratch
    // recompute (Reset on a copy forces the O(N^2) path).
    qual::SwapEvaluator fresh = eval;
    fresh.Reset(eval.partition());
    EXPECT_NEAR(eval.IntraSum(), fresh.IntraSum(), kTol)
        << "seed=" << seed << " n=" << n << " step=" << step;

    // Property 2: SwapDelta predicted exactly the observed difference.
    EXPECT_NEAR(predicted_delta, eval.IntraSum() - before, kTol)
        << "seed=" << seed << " n=" << n << " step=" << step;

    // Fg is affine in the intra sum, so it must agree with the fresh copy
    // too (guards the cached normalizers).
    EXPECT_NEAR(eval.Fg(), fresh.Fg(), kTol);
  }
}

TEST(SwapEvaluatorProperty, IncrementalMatchesRecomputeAcross120RandomCases) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    CheckCase(seed);
  }
}

// The same properties on a real equivalent-distance table, where entries
// correlate through the topology rather than being independent.
TEST(SwapEvaluatorProperty, HoldsOnRealTopologyTables) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    topo::IrregularTopologyOptions options;
    options.switch_count = 16;
    options.seed = seed;
    const topo::SwitchGraph graph = topo::GenerateIrregularTopology(options);
    const route::UpDownRouting routing(graph);
    const dist::DistanceTable table = dist::DistanceTable::Build(routing);

    Rng rng(seed);
    qual::SwapEvaluator eval(table, qual::Partition::Random({4, 4, 4, 4}, rng));
    for (int step = 0; step < 10; ++step) {
      const auto [a, b] = RandomInterClusterPair(eval.partition(), rng);
      const double predicted_delta = eval.SwapDelta(a, b);
      const double before = eval.IntraSum();
      eval.ApplySwap(a, b);
      qual::SwapEvaluator fresh = eval;
      fresh.Reset(eval.partition());
      EXPECT_NEAR(eval.IntraSum(), fresh.IntraSum(), kTol);
      EXPECT_NEAR(predicted_delta, eval.IntraSum() - before, kTol);
    }
  }
}

/// Largest |SwapDelta| disagreement, over every inter-cluster pair, between
/// `walked` and an evaluator built from scratch on the same partition.
template <typename Evaluator>
double MaxDeltaDrift(const Evaluator& walked, const Evaluator& fresh) {
  const qual::Partition& partition = walked.partition();
  double drift = 0.0;
  for (std::size_t a = 0; a < partition.switch_count(); ++a) {
    for (std::size_t b = a + 1; b < partition.switch_count(); ++b) {
      if (partition.ClusterOf(a) == partition.ClusterOf(b)) continue;
      drift = std::max(drift, std::abs(walked.SwapDelta(a, b) - fresh.SwapDelta(a, b)));
    }
  }
  return drift;
}

// Thousands of O(N) gain-table updates on a 128-switch network (the size of
// the benchmark's schedule workload) must leave every O(1) delta within kTol
// of a freshly built table, with and without intensities and across Reset.
TEST(SwapEvaluatorProperty, GainTableMatchesFreshAfterLongWalks) {
  constexpr int kSteps = 2500;
  topo::IrregularTopologyOptions options;
  options.switch_count = 128;
  options.seed = 3;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const std::vector<std::size_t> sizes = {32, 32, 32, 32};
  const std::vector<double> intensity = {1.0, 2.5, 0.5, 4.0};

  Rng rng(11);
  const qual::Partition start = qual::Partition::Random(sizes, rng);
  qual::SwapEvaluator eval(table, start);
  qual::SwapEvaluator intensity_eval(table, start, intensity);
  for (int step = 0; step < kSteps; ++step) {
    const auto [a, b] = RandomInterClusterPair(eval.partition(), rng);
    eval.ApplySwap(a, b);
    intensity_eval.ApplySwap(a, b);
  }
  ASSERT_EQ(eval.partition(), intensity_eval.partition());
  EXPECT_LE(MaxDeltaDrift(eval, qual::SwapEvaluator(table, eval.partition())), kTol);
  EXPECT_LE(MaxDeltaDrift(intensity_eval, qual::SwapEvaluator(table, eval.partition(), intensity)),
            kTol);

  // Reset rebuilds the table; a second long walk must stay just as exact.
  eval.Reset(qual::Partition::Random(sizes, rng));
  EXPECT_LE(MaxDeltaDrift(eval, qual::SwapEvaluator(table, eval.partition())), kTol);
  for (int step = 0; step < kSteps; ++step) {
    const auto [a, b] = RandomInterClusterPair(eval.partition(), rng);
    eval.ApplySwap(a, b);
  }
  EXPECT_LE(MaxDeltaDrift(eval, qual::SwapEvaluator(table, eval.partition())), kTol);
}

}  // namespace
}  // namespace commsched
