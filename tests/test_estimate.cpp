#include "simnet/estimate.h"

#include <gtest/gtest.h>

#include "routing/updown.h"
#include "topology/generator.h"

namespace commsched::sim {
namespace {

struct Fixture {
  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  work::Workload workload;
  work::ProcessMapping mapping;
  TrafficPattern pattern;

  Fixture()
      : graph(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000})),
        routing(graph),
        workload(work::Workload::Uniform(4, 16)),
        mapping(Make(graph, workload)),
        pattern(graph, workload, mapping) {}

  static work::ProcessMapping Make(const topo::SwitchGraph& g, const work::Workload& w) {
    Rng rng(7);
    return work::ProcessMapping::RandomAligned(g, w, rng);
  }
};

using Rates = std::vector<std::vector<double>>;

/// Switch-pair weight w(i,j) = rate(i,j) + rate(j,i): the traffic between
/// two switches in either direction.
double PairWeight(const Rates& rates, std::size_t i, std::size_t j) {
  return rates[i][j] + rates[j][i];
}

/// Pair weights scaled to sum to 1 over the unordered off-diagonal pairs,
/// so a measured and a modelled matrix compare regardless of their units.
Rates NormalizedPairWeights(const Rates& rates) {
  const std::size_t n = rates.size();
  Rates weights(n, std::vector<double>(n, 0.0));
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) total += PairWeight(rates, i, j);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) weights[i][j] = PairWeight(rates, i, j) / total;
  }
  return weights;
}

TEST(Estimate, AnalyticWeightsMatchIntraclusterStructure) {
  const Fixture f;
  const Rates w = sim::AnalyticSwitchWeights(f.graph, f.workload, f.mapping);
  const qual::Partition p = f.mapping.InducedPartition(f.graph);
  // With pure intracluster traffic, weight is nonzero exactly for
  // same-cluster switch pairs, and uniform across them.
  double intra_value = -1.0;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      if (p.ClusterOf(i) == p.ClusterOf(j)) {
        if (intra_value < 0) intra_value = PairWeight(w, i, j);
        EXPECT_NEAR(PairWeight(w, i, j), intra_value, 1e-9);
        EXPECT_GT(PairWeight(w, i, j), 0.0);
      } else {
        EXPECT_DOUBLE_EQ(PairWeight(w, i, j), 0.0);
      }
    }
  }
}

TEST(Estimate, AnalyticWeightsScaleWithAppIntensity) {
  const Fixture f;
  std::vector<work::ApplicationSpec> apps = f.workload.applications();
  apps[0].traffic_weight = 5.0;
  const work::Workload workload(apps);
  const Rates w = sim::AnalyticSwitchWeights(f.graph, workload, f.mapping);
  const qual::Partition p = f.mapping.InducedPartition(f.graph);
  // Pick one intra pair of app 0 and one of app 1: ratio must be 5.
  double w0 = -1.0;
  double w1 = -1.0;
  for (std::size_t i = 0; i < 16 && (w0 < 0 || w1 < 0); ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      if (p.ClusterOf(i) != p.ClusterOf(j)) continue;
      if (p.ClusterOf(i) == 0 && w0 < 0) w0 = PairWeight(w, i, j);
      if (p.ClusterOf(i) == 1 && w1 < 0) w1 = PairWeight(w, i, j);
    }
  }
  ASSERT_GT(w0, 0.0);
  ASSERT_GT(w1, 0.0);
  EXPECT_NEAR(w0 / w1, 5.0, 1e-9);
}

TEST(Estimate, MeasuredWeightsApproximateAnalytic) {
  // The paper's future-work loop closed: simulate, measure, compare with
  // the model. At low load the measured matrix converges to the analytic
  // expectation.
  const Fixture f;
  SimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 30000;
  config.collect_traffic_matrix = true;
  NetworkSimulator simulator(f.graph, f.routing, f.pattern, config);
  const SimMetrics metrics = simulator.Run(0.2);
  ASSERT_FALSE(metrics.switch_pair_flit_rate.empty());
  const Rates measured = NormalizedPairWeights(metrics.switch_pair_flit_rate);
  const Rates analytic =
      NormalizedPairWeights(AnalyticSwitchWeights(f.graph, f.workload, f.mapping));
  // Compare normalized matrices entrywise with a generous statistical
  // tolerance; also check zero-structure agreement.
  double worst = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      if (analytic[i][j] == 0.0) {
        EXPECT_NEAR(measured[i][j], 0.0, 1e-9) << i << "," << j;
      } else {
        worst = std::max(worst, std::abs(measured[i][j] - analytic[i][j]) / analytic[i][j]);
      }
    }
  }
  EXPECT_LT(worst, 0.25);  // within 25 % relative on every hot pair
}

TEST(Estimate, InterclusterFractionShowsUpInAnalyticWeights) {
  const Fixture f;
  std::vector<work::ApplicationSpec> apps = f.workload.applications();
  for (auto& app : apps) app.intercluster_fraction = 0.5;
  const work::Workload workload(apps);
  const Rates w = sim::AnalyticSwitchWeights(f.graph, workload, f.mapping);
  const qual::Partition p = f.mapping.InducedPartition(f.graph);
  // Cross-cluster pairs now carry weight.
  bool any_cross = false;
  for (std::size_t i = 0; i < 16 && !any_cross; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      if (p.ClusterOf(i) != p.ClusterOf(j) && PairWeight(w, i, j) > 0.0) {
        any_cross = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_cross);
}

TEST(Estimate, RateMatrixValidation) {
  const qual::Partition p = qual::Partition::Blocked({2, 2});
  const Rates ragged{{0.0, 1.0, 0.0, 0.0}, {1.0}, {0.0, 0.0, 0.0, 1.0}, {0.0, 0.0, 1.0, 0.0}};
  EXPECT_THROW((void)EstimateAppIntensities(ragged, p), commsched::ContractError);
  const Rates tiny{{0.0}};
  EXPECT_THROW((void)EstimateAppIntensities(tiny, p), commsched::ContractError);
  const Rates silent(4, std::vector<double>(4, 0.0));  // no intracluster traffic
  EXPECT_THROW((void)EstimateAppIntensities(silent, p), commsched::ContractError);
}

}  // namespace
}  // namespace commsched::sim
