#include "quality/quality.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "routing/updown.h"
#include "topology/generator.h"

namespace commsched::qual {
namespace {

/// 4 switches, two tight pairs (0,1) and (2,3) far from each other.
DistanceTable TwoIslandsTable() {
  DistanceTable t(4, 0.0);
  t.Set(0, 1, 1.0);
  t.Set(2, 3, 1.0);
  t.Set(0, 2, 10.0);
  t.Set(0, 3, 10.0);
  t.Set(1, 2, 10.0);
  t.Set(1, 3, 10.0);
  return t;
}

TEST(Quality, ClusterSimilarityMatchesEquationOne) {
  const DistanceTable t = TwoIslandsTable();
  const Partition good({0, 0, 1, 1});
  EXPECT_NEAR(ClusterSimilarity(t, good, 0), 1.0, 1e-12);  // T(0,1)^2
  const Partition bad({0, 1, 0, 1});
  EXPECT_NEAR(ClusterSimilarity(t, bad, 0), 100.0, 1e-12);  // T(0,2)^2
}

TEST(Quality, ClusterDissimilarityMatchesEquationFour) {
  const DistanceTable t = TwoIslandsTable();
  const Partition good({0, 0, 1, 1});
  // D_A0 = T(0,2)^2 + T(0,3)^2 + T(1,2)^2 + T(1,3)^2 = 400.
  EXPECT_NEAR(ClusterDissimilarity(t, good, 0), 400.0, 1e-12);
}

TEST(Quality, GlobalFunctionsOnIslands) {
  const DistanceTable t = TwoIslandsTable();
  const double msd = t.MeanSquaredDistance();  // (1+1+4*100)/6 = 67
  EXPECT_NEAR(msd, 67.0, 1e-12);

  const Partition good({0, 0, 1, 1});
  // F_G = ((1+1)/2)/67
  EXPECT_NEAR(GlobalSimilarity(t, good), 1.0 / 67.0, 1e-12);
  // D_G = (2*400 / (2*(2*2)+... sum x_i(N-x_i)=2*2+2*2=8)) / 67 = 100/67
  EXPECT_NEAR(GlobalDissimilarity(t, good), 100.0 / 67.0, 1e-12);
  EXPECT_NEAR(ClusteringCoefficient(t, good), 100.0, 1e-12);

  const Partition bad({0, 1, 0, 1});
  EXPECT_NEAR(GlobalSimilarity(t, bad), 100.0 / 67.0, 1e-12);
  EXPECT_GT(ClusteringCoefficient(t, good), ClusteringCoefficient(t, bad));
}

TEST(Quality, UniformTableGivesUnitCoefficients) {
  // All distances equal: every mapping is as good as random; F_G = D_G = 1.
  const DistanceTable t(8, 3.0);
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Partition p = Partition::Random({2, 2, 2, 2}, rng);
    EXPECT_NEAR(GlobalSimilarity(t, p), 1.0, 1e-12);
    EXPECT_NEAR(GlobalDissimilarity(t, p), 1.0, 1e-12);
    EXPECT_NEAR(ClusteringCoefficient(t, p), 1.0, 1e-12);
  }
}

TEST(Quality, ExpectedFgOverRandomMappingsIsAboutOne) {
  // The paper: "a value of F_G greater than 1 means worse than mapping
  // randomly" — so the random-mapping average must be ~1.
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 8;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  const DistanceTable t = dist::DistanceTable::Build(routing);
  Rng rng(17);
  double sum = 0.0;
  const int trials = 400;
  for (int k = 0; k < trials; ++k) {
    sum += GlobalSimilarity(t, Partition::Random({4, 4, 4, 4}, rng));
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.05);
}

TEST(Quality, RequiresMatchingSizes) {
  const DistanceTable t(4, 1.0);
  const Partition p({0, 0, 1, 1, 1});
  EXPECT_THROW((void)GlobalSimilarity(t, p), ContractError);
}

TEST(Quality, SingletonClustersRejectedForFg) {
  const DistanceTable t(3, 1.0);
  const Partition p({0, 1, 2});
  EXPECT_THROW((void)GlobalSimilarity(t, p), ContractError);
}

TEST(Quality, SingleClusterRejectedForDg) {
  const DistanceTable t(3, 1.0);
  const Partition p({0, 0, 0});
  EXPECT_THROW((void)GlobalDissimilarity(t, p), ContractError);
}

// ---- SwapEvaluator ---------------------------------------------------------

TEST(SwapEvaluator, MatchesDirectComputation) {
  const DistanceTable t = TwoIslandsTable();
  const Partition p({0, 1, 0, 1});
  SwapEvaluator eval(t, p);
  EXPECT_NEAR(eval.Fg(), GlobalSimilarity(t, p), 1e-12);
}

TEST(SwapEvaluator, SwapDeltaMatchesRecompute) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 12;
  options.seed = 5;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  const DistanceTable t = dist::DistanceTable::Build(routing);
  Rng rng(77);
  Partition p = Partition::Random({3, 3, 3, 3}, rng);
  SwapEvaluator eval(t, p);

  for (int trial = 0; trial < 50; ++trial) {
    // Random inter-cluster pair.
    std::size_t a = 0;
    std::size_t b = 0;
    do {
      a = static_cast<std::size_t>(rng.NextIndex(12));
      b = static_cast<std::size_t>(rng.NextIndex(12));
    } while (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b));

    const double delta = eval.SwapDelta(a, b);
    Partition swapped = eval.partition();
    swapped.Swap(a, b);
    const double fg_direct = GlobalSimilarity(t, swapped);
    EXPECT_NEAR(eval.FgAfterDelta(delta), fg_direct, 1e-9);

    eval.ApplySwap(a, b);
    EXPECT_NEAR(eval.Fg(), fg_direct, 1e-9);
  }
}

TEST(SwapEvaluator, SwapDeltaSameClusterRejected) {
  const DistanceTable t = TwoIslandsTable();
  SwapEvaluator eval(t, Partition({0, 0, 1, 1}));
  EXPECT_THROW((void)eval.SwapDelta(0, 1), ContractError);
}

TEST(SwapEvaluator, SwapIsAnInvolutionOnFg) {
  const DistanceTable t = TwoIslandsTable();
  SwapEvaluator eval(t, Partition({0, 1, 0, 1}));
  const double before = eval.Fg();
  eval.ApplySwap(1, 2);
  eval.ApplySwap(1, 2);
  EXPECT_NEAR(eval.Fg(), before, 1e-12);
}

TEST(SwapEvaluator, ResetRecomputes) {
  const DistanceTable t = TwoIslandsTable();
  SwapEvaluator eval(t, Partition({0, 1, 0, 1}));
  eval.Reset(Partition({0, 0, 1, 1}));
  EXPECT_NEAR(eval.Fg(), 1.0 / 67.0, 1e-12);
}

TEST(SwapEvaluator, DgDerivedIdentityHolds) {
  // F_G of a lopsided partition (sizes 3 and 1: the singleton contributes
  // no intra terms and no pairs).
  DistanceTable t(4, 0.0);
  t.Set(0, 1, 2.0);
  t.Set(0, 2, 3.0);
  t.Set(0, 3, 1.0);
  t.Set(1, 2, 4.0);
  t.Set(1, 3, 5.0);
  t.Set(2, 3, 6.0);
  const Partition p({0, 0, 0, 1});
  SwapEvaluator eval(t, p);
  EXPECT_NEAR(eval.Fg(), GlobalSimilarity(t, p), 1e-12);
}

}  // namespace
}  // namespace commsched::qual
