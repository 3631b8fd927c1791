#include "simnet/sweep.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.h"
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

TEST(Sweep, SaturationRateFoundUnderHeavySweep) {
  const Fixture f;
  SweepOptions options = FastSweep();
  options.max_rate = 2.2;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, options);
  EXPECT_LT(result.SaturationRate(), 2.3);
  EXPECT_GT(result.SaturationRate(), 0.0);
}

/// Every SimMetrics field, compared exactly.
void ExpectSameMetrics(const SimMetrics& a, const SimMetrics& b, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.offered_flits_per_switch_cycle, b.offered_flits_per_switch_cycle);
  EXPECT_EQ(a.accepted_flits_per_switch_cycle, b.accepted_flits_per_switch_cycle);
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_EQ(a.avg_total_latency_cycles, b.avg_total_latency_cycles);
  EXPECT_EQ(a.p50_latency_cycles, b.p50_latency_cycles);
  EXPECT_EQ(a.p95_latency_cycles, b.p95_latency_cycles);
  EXPECT_EQ(a.p99_latency_cycles, b.p99_latency_cycles);
  EXPECT_EQ(a.max_latency_cycles, b.max_latency_cycles);
  EXPECT_EQ(a.messages_generated, b.messages_generated);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
  EXPECT_EQ(a.source_queue_growth, b.source_queue_growth);
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization);
  EXPECT_EQ(a.avg_link_utilization, b.avg_link_utilization);
  EXPECT_EQ(a.deadlock_detected, b.deadlock_detected);
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied);
  EXPECT_EQ(a.dropped_flits, b.dropped_flits);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.reconfig_cycles, b.reconfig_cycles);
  EXPECT_EQ(a.switch_pair_flit_rate, b.switch_pair_flit_rate);
  ASSERT_EQ(a.per_app.size(), b.per_app.size());
  for (std::size_t k = 0; k < a.per_app.size(); ++k) {
    EXPECT_EQ(a.per_app[k].messages_delivered, b.per_app[k].messages_delivered);
    EXPECT_EQ(a.per_app[k].flits_delivered, b.per_app[k].flits_delivered);
    EXPECT_EQ(a.per_app[k].avg_latency_cycles, b.per_app[k].avg_latency_cycles);
  }
}

// One batch over several mappings gives, field for field, what separate
// per-mapping sweeps give, run parallel or not.
TEST(Sweep, BatchMatchesPerPatternSweeps) {
  const Fixture f;
  std::vector<TrafficPattern> patterns;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    patterns.emplace_back(f.graph, f.workload,
                          work::ProcessMapping::RandomAligned(f.graph, f.workload, rng));
  }
  SweepOptions options;
  options.rates = {0.4, 0.1, 0.7};  // unsorted: the batch runs high rates first
  options.config.warmup_cycles = 600;
  options.config.measure_cycles = 1500;
  options.config.collect_traffic_matrix = true;
  for (const bool parallel : {true, false}) {
    options.parallel = parallel;
    const std::vector<SweepResult> batch = RunLoadSweeps(f.graph, f.routing, patterns, options);
    ASSERT_EQ(batch.size(), patterns.size());
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const SweepResult single = RunLoadSweep(f.graph, f.routing, patterns[p], options);
      ASSERT_EQ(batch[p].points.size(), single.points.size());
      for (std::size_t k = 0; k < single.points.size(); ++k) {
        EXPECT_EQ(batch[p].points[k].offered_rate, single.points[k].offered_rate);
        ExpectSameMetrics(batch[p].points[k].metrics, single.points[k].metrics,
                          "parallel " + std::to_string(parallel) + " p" + std::to_string(p) +
                              " k" + std::to_string(k));
      }
    }
  }
}

// A rate past the hosts' injection bandwidth is a typed error raised before
// any point is simulated, not a contract violation from inside a run.
TEST(Sweep, RateBeyondHostBandwidthIsConfigErrorBeforeAnyRun) {
  const Fixture f;
  SweepOptions options = FastSweep();
  // 16 switches, 64 hosts, 16-flit messages: p = rate / 64, so of the rates
  // 0.05, 25.0375, 50.025, 75.0125 and 100 the fourth is the first too high.
  options.max_rate = 100.0;
  obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t runs_before = registry.GetCounter("sim.runs").value();
  try {
    (void)RunLoadSweep(f.graph, f.routing, f.pattern, options);
    ADD_FAILURE() << "expected ConfigError";
  } catch (const commsched::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("sweep rate 75.0125 exceeds host injection bandwidth"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(registry.GetCounter("sim.runs").value(), runs_before);

  options.max_rate = 0.9;
  options.rates = {0.2, -0.1};
  EXPECT_THROW((void)RunLoadSweep(f.graph, f.routing, f.pattern, options),
               commsched::ConfigError);
}

TEST(Sweep, LowLoadLatencyIsFirstPoint) {
  const Fixture f;
  const SweepResult result = RunLoadSweep(f.graph, f.routing, f.pattern, FastSweep());
  EXPECT_DOUBLE_EQ(result.LowLoadLatency(), result.points.front().metrics.avg_latency_cycles);
}

}  // namespace
}  // namespace commsched::sim
