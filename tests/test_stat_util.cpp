// Unit tests for the statistical-equivalence primitives (tests/stat_util.h),
// validated on distributions with known answers.
#include "stat_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace commsched::testing {
namespace {

std::vector<double> UniformSample(std::uint64_t seed, std::size_t n, double shift = 0.0) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.NextDouble() + shift;
  return xs;
}

TEST(StatUtil, SummarizeKnownValues) {
  const SampleStats s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // Unbiased variance of {1,2,3,4} is 5/3.
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
}

TEST(StatUtil, NormalQuantileMatchesTables) {
  EXPECT_NEAR(NormalQuantileTwoSided(0.05), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.01), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.3173), 1.0, 1e-3);
}

TEST(StatUtil, StudentTQuantileAboveNormalAndConverges) {
  // t quantiles dominate z and approach it as df grows.
  const double z = NormalQuantileTwoSided(0.05);
  EXPECT_GT(StudentTQuantileTwoSided(0.05, 10.0), z);
  EXPECT_NEAR(StudentTQuantileTwoSided(0.05, 1e6), z, 1e-4);
  // t_{0.975, 10} = 2.2281 (table value); Cornish-Fisher is good to ~1%.
  EXPECT_NEAR(StudentTQuantileTwoSided(0.05, 10.0), 2.2281, 0.03);
}

TEST(StatUtil, WelchAcceptsSameDistribution) {
  const auto a = UniformSample(1, 400);
  const auto b = UniformSample(2, 400);
  EXPECT_TRUE(MeansEquivalent(a, b, 0.01, /*margin=*/0.0));
}

TEST(StatUtil, WelchRejectsShiftedMean) {
  const auto a = UniformSample(3, 400);
  const auto b = UniformSample(4, 400, /*shift=*/0.2);
  // Shift 0.2 vs standard error ~0.02: unambiguous at alpha = 0.01.
  EXPECT_FALSE(MeansEquivalent(a, b, 0.01, /*margin=*/0.0));
  // A margin that covers the shift restores equivalence.
  EXPECT_TRUE(MeansEquivalent(a, b, 0.01, /*margin=*/0.25));
}

TEST(StatUtil, WelchHandlesUnequalSizesAndVariances) {
  const auto a = UniformSample(5, 50);
  auto b = UniformSample(6, 2000);
  for (double& x : b) x = 0.5 + (x - 0.5) * 3.0;  // same mean, 9x variance
  EXPECT_TRUE(MeansEquivalent(a, b, 0.01, /*margin=*/0.0));
  const WelchResult r = WelchMeanDifference(a, b, 0.01);
  EXPECT_GT(r.df, 2.0);
  EXPECT_LT(r.df, static_cast<double>(a.size() + b.size()));
}

TEST(StatUtil, WelchConstantSamplesCollapse) {
  const std::vector<double> a = {2.0, 2.0, 2.0};
  const std::vector<double> b = {2.0, 2.0, 2.0, 2.0};
  const WelchResult r = WelchMeanDifference(a, b, 0.05);
  EXPECT_DOUBLE_EQ(r.mean_diff, 0.0);
  EXPECT_DOUBLE_EQ(r.half_width, 0.0);
  EXPECT_TRUE(MeansEquivalent(a, b, 0.05, 0.0));
}

TEST(StatUtil, KsStatisticKnownValues) {
  // Disjoint supports: the CDF gap reaches 1.
  EXPECT_DOUBLE_EQ(KsStatistic({1.0, 2.0}, {5.0, 6.0}), 1.0);
  // Identical samples: gap 0.
  EXPECT_DOUBLE_EQ(KsStatistic({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
  // {1,3} vs {2,4}: max gap 1/2 (after 1: 1/2 vs 0).
  EXPECT_DOUBLE_EQ(KsStatistic({1.0, 3.0}, {2.0, 4.0}), 0.5);
}

TEST(StatUtil, KsAcceptsSameDistribution) {
  const auto a = UniformSample(7, 2000);
  const auto b = UniformSample(8, 2000);
  EXPECT_TRUE(DistributionsEquivalent(a, b, 0.01));
}

TEST(StatUtil, KsRejectsShiftedDistribution) {
  const auto a = UniformSample(9, 2000);
  const auto b = UniformSample(10, 2000, /*shift=*/0.2);
  // Bound at alpha = 0.01, n = m = 2000 is ~0.0515 << 0.2 true gap.
  EXPECT_GT(KsStatistic(a, b), KsBound(a.size(), b.size(), 0.01));
  EXPECT_FALSE(DistributionsEquivalent(a, b, 0.01));
}

TEST(StatUtil, KsBoundShrinksWithSamples) {
  EXPECT_GT(KsBound(100, 100, 0.05), KsBound(10000, 10000, 0.05));
  // Canonical value: c(0.05) = 1.358, bound = c * sqrt((n+m)/(nm)).
  EXPECT_NEAR(KsBound(100, 100, 0.05), 1.358 * std::sqrt(0.02), 1e-3);
}

TEST(StatUtil, FalsePositiveRateIsNearAlpha) {
  // Repeated same-distribution pairs should fail at roughly rate alpha;
  // with alpha = 0.05 over 200 trials, 25+ failures would be a broken bound
  // (nominal mean 10); 0 failures would mean it is far too lax.
  int ks_failures = 0;
  for (std::uint64_t t = 0; t < 200; ++t) {
    const auto a = UniformSample(1000 + 2 * t, 300);
    const auto b = UniformSample(1001 + 2 * t, 300);
    if (!DistributionsEquivalent(a, b, 0.05)) ++ks_failures;
  }
  EXPECT_LT(ks_failures, 25);
}

}  // namespace
}  // namespace commsched::testing
