// Exact equivalence, fault-replay, termination and watchdog checks of the
// simulator.
//
// Byte-level equivalence with the cycle-by-cycle reference model, over a
// corpus of routing policies, fault plans and 24 seeds per load, is pinned
// by tests/data/sim_metrics.golden.txt (test_sim_golden.cpp). The *Load
// cases below replay that file's seed-replicate block one topology and load
// at a time, so a divergence names its slice and seed. The other cases
// assert absolute properties that hold for any correct engine:
//   * the fault plans under tests/data lose exactly what the arrival
//     schedule dictates and count the full reconfiguration window;
//   * a drained (non-deadlocked) run stops at warmup + measure, so skipped
//     idle spans count as simulated time;
//   * the watchdog fires on a true deadlock and stops the run early.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "simnet/simulator.h"
#include "topology/generator.h"
#include "topology/library.h"

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

namespace commsched::sim {
namespace {

struct Fixture {
  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  work::Workload workload;
  work::ProcessMapping mapping;
  TrafficPattern pattern;

  explicit Fixture(topo::SwitchGraph g)
      : graph(std::move(g)),
        routing(graph),
        workload(work::Workload::Uniform(4, graph.host_count() / 4)),
        mapping(MakeMapping(graph, workload)),
        pattern(graph, workload, mapping) {}

  static work::ProcessMapping MakeMapping(const topo::SwitchGraph& g, const work::Workload& w) {
    Rng rng(1);
    return work::ProcessMapping::RandomAligned(g, w, rng);
  }
};

std::string ReadDataFile(const std::string& name) {
  const std::string path = std::string(COMMSCHED_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing test data file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- seed replicates against the reference records ------------------------

std::string G(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Runs seeds 1..24 of up*/down* deterministic routing at `rate` (warmup
/// 800, measure 2500) and compares each run's average latency, accepted
/// rate and simulated cycles with the `seeds.<topology>@<label>.<seed>`
/// line the reference model recorded in sim_metrics.golden.txt.
void ExpectSeedsMatchReference(const Fixture& f, const std::string& topology,
                               const std::string& label, double rate) {
  const std::string prefix = "seeds." + topology + "@" + label + ".";
  std::map<std::uint64_t, std::string> reference;
  std::istringstream golden(ReadDataFile("sim_metrics.golden.txt"));
  for (std::string line; std::getline(golden, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    reference[std::stoull(line.substr(prefix.size(), eq - prefix.size()))] = line.substr(eq + 1);
  }
  ASSERT_EQ(reference.size(), 24u) << "reference records for " << prefix;
  for (const auto& [seed, want] : reference) {
    SimConfig config;
    config.warmup_cycles = 800;
    config.measure_cycles = 2500;
    config.rng_seed = seed;
    NetworkSimulator sim(f.graph, f.routing, f.pattern, config);
    const SimMetrics m = sim.Run(rate);
    const std::string got = G(m.avg_latency_cycles) + " " +
                            G(m.accepted_flits_per_switch_cycle) + " " +
                            std::to_string(m.simulated_cycles);
    EXPECT_EQ(got, want) << prefix << seed << " (avg_latency accepted simulated_cycles)";
  }
}

TEST(SimEquivalence, IrregularTopologyLowLoad) {
  const Fixture f(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  ExpectSeedsMatchReference(f, "irregular16", "0.08", 0.08);
}

TEST(SimEquivalence, IrregularTopologyModerateLoad) {
  const Fixture f(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  ExpectSeedsMatchReference(f, "irregular16", "0.45", 0.45);
}

TEST(SimEquivalence, RingsTopologyLowLoad) {
  const Fixture f(topo::MakeFourRingsOfSix());
  ExpectSeedsMatchReference(f, "rings", "0.08", 0.08);
}

TEST(SimEquivalence, RingsTopologyModerateLoad) {
  const Fixture f(topo::MakeFourRingsOfSix());
  ExpectSeedsMatchReference(f, "rings", "0.45", 0.45);
}

// ---- replay of checked-in fault plans -------------------------------------

struct FaultOutcome {
  SimMetrics metrics;
  SimTotals totals;
};

FaultOutcome ReplayPlan(const Fixture& f, const faults::FaultPlan& plan, double rate) {
  SimConfig config;
  config.warmup_cycles = 1200;
  config.measure_cycles = 3000;
  config.fault_plan = &plan;
  NetworkSimulator sim(f.graph, f.routing, f.pattern, config);
  FaultOutcome outcome;
  outcome.metrics = sim.Run(rate);
  outcome.totals = sim.Totals();
  return outcome;
}

// A switch dies at cycle 1, before anything is in flight: every lost
// message is determined by the arrival schedule alone (queued messages to
// the dead switch at fault time + born-dead arrivals after).
TEST(SimEquivalence, SwitchDownPlanMatchesExactly) {
  const Fixture f(topo::MakeFourRingsOfSix());
  const auto plan = faults::FaultPlan::FromJson(ReadDataFile("faultplan_diff_switch.json"));
  plan.ValidateFor(f.graph);
  const FaultOutcome o = ReplayPlan(f, plan, 0.25);

  EXPECT_EQ(o.metrics.fault_events_applied, 1u);
  EXPECT_GT(o.metrics.messages_lost, 0u);
  EXPECT_GE(o.totals.messages_lost, o.totals.messages_born_dead);
  EXPECT_EQ(o.metrics.reconfig_cycles, 128u);  // default downtime window
  EXPECT_EQ(o.metrics.simulated_cycles, 1200u + 3000u);
}

// Two redundant ring links die at cycle 1: the surviving graph stays
// connected and nothing was in flight, so nothing may be lost.
TEST(SimEquivalence, RedundantLinksPlanLosesNothingInBothModes) {
  const Fixture f(topo::MakeFourRingsOfSix());
  const auto plan = faults::FaultPlan::FromJson(ReadDataFile("faultplan_diff_links.json"));
  plan.ValidateFor(f.graph);
  const FaultOutcome o = ReplayPlan(f, plan, 0.2);

  EXPECT_EQ(o.metrics.fault_events_applied, 2u);
  EXPECT_EQ(o.metrics.messages_lost, 0u);
  EXPECT_EQ(o.metrics.dropped_flits, 0u);
  EXPECT_EQ(o.metrics.reconfig_cycles, 128u);
  EXPECT_EQ(o.metrics.simulated_cycles, 1200u + 3000u);
}

// Mid-run faults hit a loaded network: the event counters and the downtime
// accounting (one full window per fault) are still schedule-determined.
TEST(SimEquivalence, MidRunFaultCountersMatch) {
  const Fixture f(topo::MakeFourRingsOfSix());
  const auto plan = faults::FaultPlan::FromEvents(
      {{1500, faults::FaultKind::kLinkDown, 0, 1, 0},
       {2600, faults::FaultKind::kLinkUp, 0, 1, 0}});
  const FaultOutcome o = ReplayPlan(f, plan, 0.2);

  EXPECT_EQ(o.metrics.fault_events_applied, 2u);
  EXPECT_EQ(o.metrics.reconfig_cycles, 2u * 128u);
  EXPECT_EQ(o.metrics.simulated_cycles, 1200u + 3000u);
}

// ---- termination ----------------------------------------------------------

// A drained run (no deadlock) terminates at warmup + measure: skipped idle
// spans count as simulated cycles, and an emptied event queue must not stop
// the clock early.
TEST(SimEquivalence, DrainedRunsTerminateAtTheSameCycle) {
  const Fixture f(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  SimConfig config;
  config.warmup_cycles = 800;
  config.measure_cycles = 2500;
  config.rng_seed = 3;
  for (const double rate : {0.0, 0.05, 0.4}) {
    NetworkSimulator sim(f.graph, f.routing, f.pattern, config);
    const SimMetrics m = sim.Run(rate);
    ASSERT_FALSE(m.deadlock_detected) << "rate " << rate;
    EXPECT_EQ(m.simulated_cycles, 800u + 2500u) << "rate " << rate;
  }
}

// Shortest-path routing on a ring is not deadlock-free under wormhole with
// one virtual channel. The run must either detect deadlock or saturate, and
// a detected deadlock must stop the run early instead of grinding through
// the full horizon.
TEST(SimEquivalence, BothWatchdogsDetectRealDeadlock) {
  const auto graph = topo::MakeRing(6, 4);
  const route::ShortestPathRouting routing(graph);
  const auto workload = work::Workload::Uniform(2, 12);
  Rng rng(3);
  const auto mapping = work::ProcessMapping::RandomAligned(graph, workload, rng);
  const TrafficPattern pattern(graph, workload, mapping);
  SimConfig config;
  config.message_length_flits = 32;
  config.input_buffer_flits = 2;
  config.warmup_cycles = 4000;
  config.measure_cycles = 12000;
  config.deadlock_threshold_cycles = 1000;
  NetworkSimulator sim(graph, routing, pattern, config);
  const SimMetrics m = sim.Run(1.6);
  EXPECT_TRUE(m.deadlock_detected || m.Saturated()) << "neither deadlocked nor saturated";
  if (m.deadlock_detected) {
    EXPECT_LT(m.simulated_cycles, 16000u);
  } else {
    EXPECT_EQ(m.simulated_cycles, 16000u);
  }
}

}  // namespace
}  // namespace commsched::sim
