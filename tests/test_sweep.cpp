#include "simnet/sweep.h"

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
        mapping(MakeMapping(graph, workload)),
        pattern(graph, workload, mapping) {}

  static work::ProcessMapping MakeMapping(const topo::SwitchGraph& g,
                                          const work::Workload& w) {
    Rng rng(11);
    return work::ProcessMapping::RandomAligned(g, w, rng);
  }
};

SweepOptions FastSweep() {
  SweepOptions options;
  options.points = 5;
  options.min_rate = 0.05;
  options.max_rate = 0.9;
  options.config.warmup_cycles = 1500;
  options.config.measure_cycles = 4000;
  return options;
}

TEST(Sweep, RatesDefaultingRule) {
  SweepOptions options;
  options.points = 9;
  options.min_rate = 0.1;
  options.max_rate = 0.9;
  const auto rates = SweepRates(options);
  ASSERT_EQ(rates.size(), 9u);
  EXPECT_DOUBLE_EQ(rates.front(), 0.1);
  EXPECT_DOUBLE_EQ(rates.back(), 0.9);
  EXPECT_NEAR(rates[4], 0.5, 1e-12);

  options.rates = {0.3, 0.7};
  EXPECT_EQ(SweepRates(options), (std::vector<double>{0.3, 0.7}));
}

TEST(Sweep, InvalidRangeRejected) {
  SweepOptions options;
  options.points = 1;
  EXPECT_THROW((void)SweepRates(options), commsched::ConfigError);
  options.points = 5;
  options.min_rate = 0.5;
  options.max_rate = 0.4;
  EXPECT_THROW((void)SweepRates(options), commsched::ConfigError);
}

TEST(Sweep, ProducesMonotoneOfferedRates) {
  const Fixture f;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, FastSweep());
  ASSERT_EQ(result.points.size(), 5u);
  for (std::size_t k = 1; k < result.points.size(); ++k) {
    EXPECT_GT(result.points[k].offered_rate, result.points[k - 1].offered_rate);
  }
}

TEST(Sweep, ThroughputIsMaxAccepted) {
  const Fixture f;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, FastSweep());
  double max_accepted = 0.0;
  for (const SweepPoint& p : result.points) {
    max_accepted = std::max(max_accepted, p.metrics.accepted_flits_per_switch_cycle);
  }
  EXPECT_DOUBLE_EQ(result.Throughput(), max_accepted);
  EXPECT_GT(result.Throughput(), 0.0);
}

TEST(Sweep, ParallelMatchesSequential) {
  const Fixture f;
  SweepOptions seq = FastSweep();
  seq.parallel = false;
  SweepOptions par = FastSweep();
  par.parallel = true;
  const SweepResult a = RunLoadSweep(f.graph, f.routing, f.pattern, seq);
  const SweepResult b = RunLoadSweep(f.graph, f.routing, f.pattern, par);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    EXPECT_EQ(a.points[k].metrics.flits_delivered, b.points[k].metrics.flits_delivered);
    EXPECT_DOUBLE_EQ(a.points[k].metrics.avg_latency_cycles,
                     b.points[k].metrics.avg_latency_cycles);
  }
}

TEST(Sweep, SeedReplicatesAreIndependentAndStable) {
  const Fixture f;
  SweepOptions options = FastSweep();
  options.seed_replicates = 3;
  options.parallel = true;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, options);
  // Replicate 0 must be the same stream a single-replicate sweep would use.
  SweepOptions single = FastSweep();
  single.parallel = false;
  const SweepResult base = RunLoadSweep(f.graph, f.routing, f.pattern, single);
  ASSERT_EQ(result.points.size(), base.points.size());
  for (std::size_t k = 0; k < result.points.size(); ++k) {
    const SweepPoint& point = result.points[k];
    ASSERT_EQ(point.replicates.size(), 3u);
    EXPECT_EQ(point.replicates[0].flits_delivered, base.points[k].metrics.flits_delivered);
    EXPECT_EQ(point.metrics.flits_delivered, point.replicates[0].flits_delivered);
    // Distinct seeds must actually vary the arrival schedule.
    EXPECT_NE(point.replicates[1].flits_delivered, point.replicates[0].flits_delivered);
  }
}

TEST(Sweep, SaturationRateFoundUnderHeavySweep) {
  const Fixture f;
  SweepOptions options = FastSweep();
  options.max_rate = 2.2;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, options);
  EXPECT_LT(result.SaturationRate(), 2.3);
  EXPECT_GT(result.SaturationRate(), 0.0);
}

TEST(Sweep, LowLoadLatencyIsFirstPoint) {
  const Fixture f;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, FastSweep());
  EXPECT_DOUBLE_EQ(result.LowLoadLatency(), result.points.front().metrics.avg_latency_cycles);
}

}  // namespace
}  // namespace commsched::sim
