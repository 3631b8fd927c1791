// Application-intensity weighting: F_G^λ and the measure → schedule loop.
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "quality/quality.h"
#include "routing/updown.h"
#include "sched/tabu.h"
#include "simnet/estimate.h"
#include "topology/generator.h"

namespace commsched {
namespace {

dist::DistanceTable PaperTable(std::size_t switches, std::uint64_t seed,
                               topo::SwitchGraph* out_graph = nullptr) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  auto table = dist::DistanceTable::Build(routing);
  if (out_graph) *out_graph = std::move(g);
  return table;
}

TEST(Intensity, EqualIntensitiesReduceToFg) {
  const dist::DistanceTable t = PaperTable(12, 3);
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const qual::Partition p = qual::Partition::Random({3, 3, 3, 3}, rng);
    EXPECT_NEAR(qual::IntensityGlobalSimilarity(t, p, {2.0, 2.0, 2.0, 2.0}),
                qual::GlobalSimilarity(t, p), 1e-9);
  }
}

TEST(Intensity, HotClusterDominatesTheScore) {
  // Two clusters, one tight and one loose; putting the hot application on
  // the tight one scores better.
  dist::DistanceTable t(4, 0.0);
  t.Set(0, 1, 1.0);   // tight pair
  t.Set(2, 3, 5.0);   // loose pair
  t.Set(0, 2, 3.0);
  t.Set(0, 3, 3.0);
  t.Set(1, 2, 3.0);
  t.Set(1, 3, 3.0);
  const qual::Partition hot_on_tight({0, 0, 1, 1});
  const qual::Partition hot_on_loose({1, 1, 0, 0});
  const std::vector<double> intensity{10.0, 1.0};  // app 0 is hot
  EXPECT_LT(qual::IntensityGlobalSimilarity(t, hot_on_tight, intensity),
            qual::IntensityGlobalSimilarity(t, hot_on_loose, intensity));
  // Unweighted F_G cannot tell the two apart (same grouping).
  EXPECT_NEAR(qual::GlobalSimilarity(t, hot_on_tight),
              qual::GlobalSimilarity(t, hot_on_loose), 1e-12);
}

TEST(Intensity, EvaluatorMatchesDirect) {
  const dist::DistanceTable t = PaperTable(12, 5);
  Rng rng(7);
  const std::vector<double> intensity{4.0, 1.0, 0.5, 2.0};
  qual::Partition p = qual::Partition::Random({3, 3, 3, 3}, rng);
  qual::SwapEvaluator eval(t, p, intensity);
  EXPECT_NEAR(eval.Fg(), qual::IntensityGlobalSimilarity(t, p, intensity), 1e-9);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t a = 0;
    std::size_t b = 0;
    do {
      a = static_cast<std::size_t>(rng.NextIndex(12));
      b = static_cast<std::size_t>(rng.NextIndex(12));
    } while (eval.partition().ClusterOf(a) == eval.partition().ClusterOf(b));
    qual::Partition swapped = eval.partition();
    swapped.Swap(a, b);
    EXPECT_NEAR(eval.FgAfterDelta(eval.SwapDelta(a, b)),
                qual::IntensityGlobalSimilarity(t, swapped, intensity), 1e-9);
    eval.ApplySwap(a, b);
    EXPECT_NEAR(eval.Fg(), qual::IntensityGlobalSimilarity(t, swapped, intensity), 1e-9);
  }
}

TEST(Intensity, ValidationErrors) {
  const dist::DistanceTable t = PaperTable(8, 1);
  const qual::Partition p = qual::Partition::Blocked({4, 4});
  EXPECT_THROW((void)qual::IntensityGlobalSimilarity(t, p, {1.0}), ContractError);
  EXPECT_THROW((void)qual::IntensityGlobalSimilarity(t, p, {-1.0, 1.0}), ContractError);
  EXPECT_THROW((void)qual::IntensityGlobalSimilarity(t, p, {0.0, 0.0}), ContractError);
}

TEST(IntensityTabu, EqualIntensitiesMatchPlainTabu) {
  // One driver either way: λ ≡ 1 walks, combines and reports plain Tabu's
  // bytes, F_G to the last bit included.
  const dist::DistanceTable t = PaperTable(16, 1);
  sched::TabuOptions options;
  options.rng_seed = 3;
  const auto plain = sched::TabuSearch(t, {4, 4, 4, 4}, options);
  options.cluster_intensity = {1.0, 1.0, 1.0, 1.0};
  const auto weighted = sched::TabuSearch(t, {4, 4, 4, 4}, options);
  EXPECT_EQ(sched::FormatSearchResult(weighted), sched::FormatSearchResult(plain));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(weighted.best_fg),
            std::bit_cast<std::uint64_t>(plain.best_fg));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plain.best_fg),
            std::bit_cast<std::uint64_t>(qual::GlobalSimilarity(t, plain.best)));
}

TEST(IntensityTabu, HotAppGetsTheTightestCluster) {
  const dist::DistanceTable t = PaperTable(16, 1);
  const std::vector<double> intensity{8.0, 1.0, 1.0, 1.0};
  sched::TabuOptions options;
  options.cluster_intensity = intensity;
  const auto result = sched::TabuSearch(t, {4, 4, 4, 4}, options);
  // Cluster 0 (the hot application) has the smallest mean intra distance of
  // the four clusters in the chosen mapping.
  double hot = qual::ClusterSimilarity(t, result.best, 0);
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_LE(hot, qual::ClusterSimilarity(t, result.best, c) + 1e-9);
  }
  // And its weighted score beats the plain mapping's weighted score.
  const auto plain = sched::TabuSearch(t, {4, 4, 4, 4});
  EXPECT_LE(result.best_fg,
            qual::IntensityGlobalSimilarity(t, plain.best, intensity) + 1e-9);
}

TEST(IntensityEstimate, RecoversWorkloadWeights) {
  topo::SwitchGraph graph(1, 1);
  const dist::DistanceTable table = PaperTable(16, 1, &graph);
  const route::UpDownRouting routing(graph);
  std::vector<work::ApplicationSpec> apps = work::Workload::Uniform(4, 16).applications();
  apps[0].traffic_weight = 6.0;
  const work::Workload workload(apps);
  Rng rng(5);
  const auto mapping = work::ProcessMapping::RandomAligned(graph, workload, rng);
  const sim::TrafficPattern pattern(graph, workload, mapping);
  sim::SimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 20000;
  config.collect_traffic_matrix = true;
  sim::NetworkSimulator simulator(graph, routing, pattern, config);
  const sim::SimMetrics metrics = simulator.Run(0.15);
  const auto intensity = sim::EstimateAppIntensities(metrics.switch_pair_flit_rate,
                                                     mapping.InducedPartition(graph));
  ASSERT_EQ(intensity.size(), 4u);
  // App 0 should be measured ~6x hotter than the others.
  EXPECT_GT(intensity[0], 3.0 * intensity[1]);
  EXPECT_NEAR(intensity[1], intensity[2], 0.25);
}

}  // namespace
}  // namespace commsched
