// Property tests for the event-engine primitives (ISSUE 6 satellite):
// EventQueue ordering, ActiveSet sweep semantics, GeometricGap distribution,
// and whole-run flit conservation (with and without fault plans, stepping
// every cycle or skipping idle spans): the flits the buffers hold, counted
// from the buffer rings, must equal the network's own in-flight count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "faults/fault_plan.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "routing/updown.h"
#include "simnet/arrivals.h"
#include "simnet/event_queue.h"
#include "simnet/simulator.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace commsched::sim {
namespace {

// ---- EventQueue ----------------------------------------------------------

TEST(EventQueue, PopsInNondecreasingCycleOrder) {
  Rng rng(11);
  EventQueue queue;
  std::vector<std::pair<std::size_t, std::size_t>> pushed;
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto cycle = static_cast<std::size_t>(rng.NextInt(0, 999));
    const auto id = static_cast<std::size_t>(rng.NextInt(0, 63));
    queue.Push(cycle, id);
    pushed.emplace_back(cycle, id);
  }
  // Interleave pops with pushes to exercise heap maintenance.
  std::size_t last_cycle = 0;
  std::size_t popped = 0;
  while (!queue.Empty()) {
    const std::size_t cycle = queue.NextCycle();
    EXPECT_GE(cycle, last_cycle) << "event fired out of order";
    last_cycle = cycle;
    (void)queue.Pop();
    ++popped;
    if (popped % 7 == 0 && popped < 4000) {
      queue.Push(last_cycle + static_cast<std::size_t>(rng.NextInt(0, 99)),
                 static_cast<std::size_t>(rng.NextInt(0, 63)));
      pushed.emplace_back(0, 0);  // count only
    }
  }
  EXPECT_EQ(popped, pushed.size());
}

TEST(EventQueue, SameCycleBreaksTiesById) {
  EventQueue queue;
  queue.Push(7, 3);
  queue.Push(7, 1);
  queue.Push(5, 9);
  queue.Push(7, 2);
  EXPECT_EQ(queue.Pop(), 9u);
  EXPECT_EQ(queue.Pop(), 1u);
  EXPECT_EQ(queue.Pop(), 2u);
  EXPECT_EQ(queue.Pop(), 3u);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueue, NextCycleOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW((void)queue.NextCycle(), ContractError);
  EXPECT_THROW((void)queue.Pop(), ContractError);
}

// ---- ActiveSet -----------------------------------------------------------

TEST(ActiveSet, AddContainsCountAndClear) {
  ActiveSet set;
  set.Reset(200);
  EXPECT_FALSE(set.Any());
  set.Add(0);
  set.Add(63);
  set.Add(64);
  set.Add(199);
  set.Add(199);  // idempotent
  EXPECT_EQ(set.Count(), 4u);
  EXPECT_TRUE(set.Contains(64));
  EXPECT_FALSE(set.Contains(1));
  set.ClearAll();
  EXPECT_FALSE(set.Any());
  EXPECT_EQ(set.Count(), 0u);
}

TEST(ActiveSet, SweepVisitsAscendingAndHonorsKeep) {
  ActiveSet set;
  set.Reset(300);
  for (const std::size_t i : {5u, 70u, 71u, 200u, 299u}) set.Add(i);
  std::vector<std::size_t> visited;
  set.Sweep([&](std::size_t i) {
    visited.push_back(i);
    return i == 70;  // keep only 70 active
  });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(visited.size(), 5u);
  EXPECT_EQ(set.Count(), 1u);
  EXPECT_TRUE(set.Contains(70));
}

TEST(ActiveSet, SweepSeesForwardActivationsSameSweepOnce) {
  // Activating an index ahead of the cursor gets it visited in the same
  // sweep, but each index at most once per sweep (mirrors the cycle
  // engine's single ascending scan per phase).
  ActiveSet set;
  set.Reset(128);
  set.Add(3);
  std::vector<std::size_t> visited;
  set.Sweep([&](std::size_t i) {
    visited.push_back(i);
    if (i == 3) set.Add(10);   // forward: visited this sweep
    if (i == 10) set.Add(3);   // backward: deferred to the next sweep
    return false;
  });
  EXPECT_EQ(visited, (std::vector<std::size_t>{3, 10}));
  // The backward activation survived the sweep.
  EXPECT_TRUE(set.Contains(3));
  EXPECT_EQ(set.Count(), 1u);
}

TEST(ActiveSet, SweepDefersActivationsBelowTheCursor) {
  // An index first activated behind the cursor in the same word waits for
  // the next sweep, as it would in an ascending loop that already passed it.
  ActiveSet set;
  set.Reset(64);
  set.Add(5);
  std::vector<std::size_t> visited;
  set.Sweep([&](std::size_t i) {
    visited.push_back(i);
    if (i == 5) set.Add(2);
    return false;
  });
  EXPECT_EQ(visited, (std::vector<std::size_t>{5}));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_EQ(set.Count(), 1u);
}

// ---- GeometricGap --------------------------------------------------------

TEST(GeometricGap, MeanMatchesOneOverP) {
  Rng rng(21);
  for (const double p : {0.5, 0.1, 0.01}) {
    const std::size_t n = 40000;
    double sum = 0.0;
    std::size_t min_gap = SIZE_MAX;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t gap = GeometricGap(rng, p);
      sum += static_cast<double>(gap);
      min_gap = std::min(min_gap, gap);
    }
    const double mean = sum / static_cast<double>(n);
    // Geometric mean is 1/p with std dev ~ 1/p; 5 sigma of the sample mean.
    EXPECT_NEAR(mean, 1.0 / p, 5.0 / (p * std::sqrt(static_cast<double>(n))));
    EXPECT_GE(min_gap, 1u);
  }
}

TEST(GeometricGap, CertainArrivalEveryCycle) {
  Rng rng(22);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(GeometricGap(rng, 1.0), 1u);
}

TEST(GeometricGap, RejectsOutOfRangeProbability) {
  Rng rng(23);
  EXPECT_THROW((void)GeometricGap(rng, 0.0), ContractError);
  EXPECT_THROW((void)GeometricGap(rng, 1.5), ContractError);
}

// ---- conservation --------------------------------------------------------

// How a run advances time. With a tracer installed and a milestone due
// every cycle, SkipIdleSpan has no span to jump, so the run visits every
// cycle; untraced, it jumps over idle spans. Conservation must hold both ways.
enum class Stepping { kEveryCycle, kSkipIdle };

class Conservation : public ::testing::TestWithParam<Stepping> {
 protected:
  [[nodiscard]] SimConfig Config() const {
    SimConfig config;
    config.warmup_cycles = 1000;
    config.measure_cycles = 3000;
    if (GetParam() == Stepping::kEveryCycle) config.trace_milestone_cycles = 1;
    return config;
  }

  /// Runs `simulator` at `rate` under the parameter's stepping and returns
  /// the metrics; adds the idle spans the run skipped to `skips`.
  SimMetrics RunAt(NetworkSimulator& simulator, double rate, std::uint64_t& skips) const {
    const obs::Counter& counter = obs::Registry::Global().GetCounter("sim.event.skips");
    const std::uint64_t before = counter.value();
    SimMetrics metrics;
    if (GetParam() == Stepping::kEveryCycle) {
      std::ostringstream trace;
      obs::Tracer tracer(trace);
      const obs::ScopedTracer scope(tracer);
      metrics = simulator.Run(rate);
    } else {
      metrics = simulator.Run(rate);
    }
    skips += counter.value() - before;
    return metrics;
  }
};

void ExpectConserved(const NetworkSimulator& simulator) {
  const SimTotals t = simulator.Totals();
  EXPECT_EQ(t.flits_injected, t.flits_delivered + t.flits_dropped + t.flits_in_network)
      << "flit conservation violated";
  EXPECT_EQ(t.flits_buffered, t.flits_in_network)
      << "buffered flits out of sync with the network count";
  EXPECT_GE(t.messages_lost, t.messages_born_dead);
}

TEST_P(Conservation, HoldsAcrossLoads) {
  topo::IrregularTopologyOptions options{16, 4, 3, 1, 1000};
  const auto graph = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(graph);
  const auto workload = work::Workload::Uniform(4, graph.host_count() / 4);
  Rng rng(5);
  const auto mapping = work::ProcessMapping::RandomAligned(graph, workload, rng);
  const TrafficPattern pattern(graph, workload, mapping);
  NetworkSimulator simulator(graph, routing, pattern, Config());
  std::uint64_t skips = 0;
  for (const double rate : {0.05, 0.3, 1.5}) {
    const SimMetrics metrics = RunAt(simulator, rate, skips);
    ExpectConserved(simulator);
    EXPECT_GT(metrics.flits_delivered, 0u);
  }
  // The low load leaves idle spans; only the untraced run may jump them.
  if (GetParam() == Stepping::kEveryCycle) {
    EXPECT_EQ(skips, 0u);
  } else {
    EXPECT_GT(skips, 0u);
  }
}

TEST_P(Conservation, HoldsUnderFaults) {
  topo::IrregularTopologyOptions options{16, 4, 3, 2, 1000};
  const auto graph = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(graph);
  const auto workload = work::Workload::Uniform(4, graph.host_count() / 4);
  Rng rng(6);
  const auto mapping = work::ProcessMapping::RandomAligned(graph, workload, rng);
  const TrafficPattern pattern(graph, workload, mapping);
  const auto plan = faults::FaultPlan::FromEvents({
      {1500, faults::FaultKind::kSwitchDown, 0, 0, 3},
      {2500, faults::FaultKind::kSwitchUp, 0, 0, 3},
  });
  SimConfig config = Config();
  config.fault_plan = &plan;
  NetworkSimulator simulator(graph, routing, pattern, config);
  std::uint64_t skips = 0;
  const SimMetrics metrics = RunAt(simulator, 0.3, skips);
  ExpectConserved(simulator);
  EXPECT_EQ(metrics.fault_events_applied, 2u);
  if (GetParam() == Stepping::kEveryCycle) {
    EXPECT_EQ(skips, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, Conservation,
                         ::testing::Values(Stepping::kEveryCycle, Stepping::kSkipIdle),
                         [](const auto& info) {
                           return info.param == Stepping::kEveryCycle ? "cycle" : "event";
                         });

}  // namespace
}  // namespace commsched::sim
