// Bit-exact properties of the one-pass quality sums, the evaluator's set-up
// and the distance table's cached normalizer. Each fast path must make the
// same additions in the same order as its reference, so the comparisons are
// EXPECT_EQ on doubles: random tables with full-mantissa entries, unequal
// cluster sizes and non-unit intensities make any change of order show in
// the last bits.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/partition.h"
#include "quality/quality.h"
#include "routing/updown.h"
#include "topology/generator.h"

namespace commsched {
namespace {

/// Symmetric n x n values, off-diagonal entries in [0.5, 3.5), through the
/// FromValues factory.
dist::DistanceTable RandomTable(std::size_t n, Rng& rng) {
  std::vector<double> values(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      values[i * n + j] = values[j * n + i] = 0.5 + 3.0 * rng.NextDouble();
    }
  }
  return dist::DistanceTable::FromValues(n, std::move(values));
}

/// `clusters` parts of n, every part >= 2, the rest spread at random.
std::vector<std::size_t> UnequalSizes(std::size_t n, std::size_t clusters, Rng& rng) {
  std::vector<std::size_t> sizes(clusters, 2);
  for (std::size_t extra = n - 2 * clusters; extra > 0; --extra) {
    ++sizes[rng.NextIndex(clusters)];
  }
  return sizes;
}

/// The normalizer as the all-pairs sum gives it, never from a cache.
double ReferenceMeanSquared(const dist::DistanceTable& table) {
  const double n = static_cast<double>(table.size());
  return table.SumSquaredAllPairs() / (n * (n - 1) / 2.0);
}

/// Σ_{i<j, same cluster} λ_c T², in all-pairs order.
double ReferenceIntraSum(const dist::DistanceTable& table, const qual::Partition& partition,
                         const std::vector<double>& lambda) {
  double sum = 0.0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    for (std::size_t j = i + 1; j < table.size(); ++j) {
      const std::size_t c = partition.ClusterOf(i);
      if (c != partition.ClusterOf(j)) continue;
      const double d = table(i, j);
      sum += lambda[c] * d * d;
    }
  }
  return sum;
}

/// Σ_{u ∈ c} T²_vu over u ascending.
double ReferenceGain(const dist::DistanceTable& table, const qual::Partition& partition,
                     std::size_t v, std::size_t c) {
  double gain = 0.0;
  for (std::size_t u = 0; u < table.size(); ++u) {
    if (partition.ClusterOf(u) == c) gain += table(v, u) * table(v, u);
  }
  return gain;
}

void CheckCase(std::size_t n, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
  Rng rng(seed);
  const dist::DistanceTable table = RandomTable(n, rng);
  const std::size_t clusters = 2 + rng.NextIndex(n / 4 - 1);  // 2..n/4 clusters
  const qual::Partition partition =
      qual::Partition::Random(UnequalSizes(n, clusters, rng), rng);
  std::vector<double> lambda(clusters);
  for (double& l : lambda) l = 0.25 + 2.0 * rng.NextDouble();

  const double mean_sq = ReferenceMeanSquared(table);
  EXPECT_EQ(table.MeanSquaredDistance(), mean_sq);

  // One-pass F_G, D_G and F_G^λ against the per-cluster reference sums.
  double intra = 0.0;
  double inter = 0.0;
  double weighted = 0.0;
  double weighted_pairs = 0.0;
  const std::vector<double> similarity = qual::ClusterSimilarities(table, partition);
  const std::vector<double> dissimilarity = qual::ClusterDissimilarities(table, partition);
  for (std::size_t c = 0; c < clusters; ++c) {
    const double f = qual::ClusterSimilarity(table, partition, c);
    const double d = qual::ClusterDissimilarity(table, partition, c);
    EXPECT_EQ(similarity[c], f) << "cluster " << c;
    EXPECT_EQ(dissimilarity[c], d) << "cluster " << c;
    intra += f;
    inter += d;
    weighted += lambda[c] * f;
    const double size = static_cast<double>(partition.ClusterSize(c));
    weighted_pairs += lambda[c] * size * (size - 1) / 2.0;
  }
  const double fg = (intra / static_cast<double>(partition.IntraPairCount())) / mean_sq;
  const double dg = (inter / static_cast<double>(partition.InterPairCountOrdered())) / mean_sq;
  EXPECT_EQ(qual::GlobalSimilarity(table, partition), fg);
  EXPECT_EQ(qual::GlobalDissimilarity(table, partition), dg);
  EXPECT_EQ(qual::ClusteringCoefficient(table, partition), dg / fg);
  EXPECT_EQ(qual::IntensityGlobalSimilarity(table, partition, lambda),
            (weighted / weighted_pairs) / mean_sq);

  // The evaluator's set-up: on construction, then after a Reset onto a
  // mapping with other cluster sizes.
  qual::SwapEvaluator eval(table, partition, lambda);
  const qual::Partition other = qual::Partition::Random(UnequalSizes(n, clusters, rng), rng);
  for (const qual::Partition* mapping : {&partition, &other}) {
    const qual::Partition& p = *mapping;
    if (mapping == &other) eval.Reset(other);
    double pairs = 0.0;
    for (std::size_t c = 0; c < clusters; ++c) {
      const double size = static_cast<double>(p.ClusterSize(c));
      pairs += lambda[c] * size * (size - 1) / 2.0;
    }
    const double intra_sum = ReferenceIntraSum(table, p, lambda);
    EXPECT_EQ(eval.IntraSum(), intra_sum);
    EXPECT_EQ(eval.Fg(), (intra_sum / pairs) / mean_sq);
    // SwapDelta reads four gain cells; each must carry the row-order sum.
    for (int k = 0; k < 16; ++k) {
      const std::size_t a = rng.NextIndex(n);
      const std::size_t b = rng.NextIndex(n);
      const std::size_t ca = p.ClusterOf(a);
      const std::size_t cb = p.ClusterOf(b);
      if (ca == cb) continue;
      const double sq = table(a, b) * table(a, b);
      const double expected =
          lambda[ca] * (ReferenceGain(table, p, b, ca) - ReferenceGain(table, p, a, ca) - sq) +
          lambda[cb] * (ReferenceGain(table, p, a, cb) - ReferenceGain(table, p, b, cb) - sq);
      EXPECT_EQ(eval.SwapDelta(a, b), expected) << "swap " << a << "," << b;
    }
  }
}

TEST(QualityBits, OnePassSumsAndEvaluatorSetUpKeepTheReferenceBits) {
  for (const std::size_t n : {8, 12, 16, 128}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) CheckCase(n, seed);
  }
}

TEST(QualityBits, CachedNormalizerFollowsEveryFactoryAndSet) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 3;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(graph);
  Rng rng(7);
  std::vector<dist::DistanceTable> tables;
  tables.push_back(dist::DistanceTable::Build(routing));
  tables.push_back(dist::DistanceTable::Build(routing, /*parallel=*/false));
  tables.push_back(dist::DistanceTable::BuildHopCount(routing));
  tables.push_back(dist::DistanceTable::BuildGraphHops(graph));
  tables.push_back(RandomTable(12, rng));
  tables.push_back(dist::DistanceTable(9, 1.5));
  for (dist::DistanceTable& table : tables) {
    SCOPED_TRACE(testing::Message() << "n=" << table.size());
    EXPECT_EQ(table.MeanSquaredDistance(), ReferenceMeanSquared(table));
    // Set invalidates the cache: the normalizer follows the new entry.
    const double before = table.MeanSquaredDistance();
    table.Set(0, 1, table(0, 1) + 0.75);
    EXPECT_EQ(table.MeanSquaredDistance(), ReferenceMeanSquared(table));
    EXPECT_NE(table.MeanSquaredDistance(), before);
    // A copy rebuilt from the values caches again, with the same bits.
    const dist::DistanceTable copy =
        dist::DistanceTable::FromValues(table.size(), table.values());
    EXPECT_EQ(copy.MeanSquaredDistance(), table.MeanSquaredDistance());
  }
}

}  // namespace
}  // namespace commsched
