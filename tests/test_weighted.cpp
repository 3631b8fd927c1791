#include "quality/weighted.h"

#include <gtest/gtest.h>

#include <cmath>

#include "quality/quality.h"

#include "common/rng.h"
#include "routing/updown.h"
#include "topology/generator.h"

namespace commsched::qual {
namespace {

DistanceTable PaperTable(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return DistanceTable::Build(routing);
}

TEST(WeightMatrix, Basics) {
  WeightMatrix w(3, 2.0);
  EXPECT_DOUBLE_EQ(w(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(w(0, 0), 0.0);
  w.Set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(w(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(w.TotalWeight(), 2.0 + 2.0 + 5.0);
}

TEST(WeightMatrix, Validation) {
  WeightMatrix w(3, 1.0);
  EXPECT_THROW(w.Set(0, 0, 1.0), ContractError);
  EXPECT_THROW(w.Set(0, 1, -1.0), ContractError);
  EXPECT_THROW(w.Set(0, 3, 1.0), ContractError);
  WeightMatrix zero(3, 0.0);
  EXPECT_THROW(zero.Normalize(), ContractError);
}

TEST(WeightMatrix, NormalizeMakesUniformAllOnes) {
  WeightMatrix w(4, 3.5);
  w.Normalize();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_NEAR(w(i, j), 1.0, 1e-12);
    }
  }
}

TEST(Weighted, UniformWeightsReduceToUnweighted) {
  const DistanceTable t = PaperTable(12, 3);
  const WeightMatrix uniform(12, 7.0);  // any constant
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Partition p = Partition::Random({3, 3, 3, 3}, rng);
    EXPECT_NEAR(WeightedGlobalSimilarity(t, uniform, p), GlobalSimilarity(t, p), 1e-9);
    EXPECT_NEAR(WeightedGlobalDissimilarity(t, uniform, p), GlobalDissimilarity(t, p), 1e-9);
    EXPECT_NEAR(WeightedClusteringCoefficient(t, uniform, p), ClusteringCoefficient(t, p),
                1e-9);
  }
}

TEST(Weighted, HotPairDrivesThePreference) {
  // Switches 0 and 1 are close (distance 1); every other pair is distant
  // (10). The hot pair (0,1) carries weight 10, background pairs 0.1.
  // Keeping the hot pair together on the cheap link must score far better
  // than splitting it across clusters.
  DistanceTable t(4, 10.0);
  t.Set(0, 1, 1.0);
  WeightMatrix w(4, 0.1);
  w.Set(0, 1, 10.0);
  const Partition together({0, 0, 1, 1});   // hot pair intracluster, d = 1
  const Partition split({0, 1, 0, 1});      // hot pair intercluster
  const double fg_together = WeightedGlobalSimilarity(t, w, together);
  const double fg_split = WeightedGlobalSimilarity(t, w, split);
  EXPECT_LT(fg_together, 0.5);
  EXPECT_GT(fg_split, 2.0);
  // The unweighted function cannot tell these apart as sharply: both have
  // one cheap option available, and (0,1) counts like any pair.
  EXPECT_GT(WeightedClusteringCoefficient(t, w, together),
            WeightedClusteringCoefficient(t, w, split));
}

TEST(Weighted, ZeroIntraWeightThrows) {
  const DistanceTable t = PaperTable(8, 1);
  WeightMatrix w(8, 0.0);
  w.Set(0, 4, 1.0);  // will be intercluster in the blocked partition
  const Partition p = Partition::Blocked({4, 4});
  EXPECT_THROW((void)WeightedGlobalSimilarity(t, w, p), ContractError);
  EXPECT_NO_THROW((void)WeightedGlobalDissimilarity(t, w, p));
}

TEST(WeightedSwapEvaluator, MatchesDirectComputation) {
  const DistanceTable t = PaperTable(12, 7);
  Rng rng(9);
  WeightMatrix w(12, 1.0);
  // Randomize the weights.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      w.Set(i, j, 0.1 + rng.NextDouble() * 5.0);
    }
  }
  Partition p = Partition::Random({3, 3, 3, 3}, rng);
  WeightedSwapEvaluator eval(t, w, p);
  EXPECT_NEAR(eval.Fg(), WeightedGlobalSimilarity(t, w, p), 1e-9);
  EXPECT_NEAR(eval.Dg(), WeightedGlobalDissimilarity(t, w, p), 1e-9);
  EXPECT_NEAR(eval.Cc(), WeightedClusteringCoefficient(t, w, p), 1e-9);

  for (int trial = 0; trial < 40; ++trial) {
    std::size_t a = 0;
    std::size_t b = 0;
    do {
      a = static_cast<std::size_t>(rng.NextIndex(12));
      b = static_cast<std::size_t>(rng.NextIndex(12));
    } while (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b));
    Partition swapped = eval.partition();
    swapped.Swap(a, b);
    EXPECT_NEAR(eval.FgAfterSwap(a, b), WeightedGlobalSimilarity(t, w, swapped), 1e-9);
    eval.ApplySwap(a, b);
    EXPECT_NEAR(eval.Fg(), WeightedGlobalSimilarity(t, w, swapped), 1e-9);
  }
}

TEST(WeightedSwapEvaluator, NoInterclusterWeightIsNaN) {
  const DistanceTable t = PaperTable(8, 3);
  WeightMatrix w(8, 0.0);
  w.Set(0, 1, 1.0);
  w.Set(2, 3, 2.0);
  const Partition p = Partition::Blocked({4, 4});  // both pairs inside cluster 0
  const WeightedSwapEvaluator eval(t, w, p);
  EXPECT_TRUE(std::isnan(eval.Dg()));
  EXPECT_TRUE(std::isnan(eval.Cc()));
  EXPECT_TRUE(std::isnan(WeightedGlobalDissimilarity(t, w, p)));
  EXPECT_TRUE(std::isnan(WeightedClusteringCoefficient(t, w, p)));
}

TEST(WeightedSwapEvaluator, ResetRecomputes) {
  const DistanceTable t = PaperTable(8, 2);
  const WeightMatrix w(8, 1.0);
  WeightedSwapEvaluator eval(t, w, Partition::Blocked({4, 4}));
  Rng rng(3);
  const Partition other = Partition::Random({4, 4}, rng);
  eval.Reset(other);
  EXPECT_NEAR(eval.Fg(), WeightedGlobalSimilarity(t, w, other), 1e-12);
}

}  // namespace
}  // namespace commsched::qual
