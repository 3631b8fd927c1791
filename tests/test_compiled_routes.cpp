// The simulator's compiled route table (CompiledVcRoutes) against the
// policies it compiles, plus a parallel sweep sharing one const policy.
//
// Property: for every routing state (switch, destination, phase,
// on_escape) the compiled run equals the policy's Candidates() mapped to
// output-port ids, in the same order — which is what makes arbitration over
// the table interchangeable with arbitration over the policy.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "faults/degraded.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "simnet/sweep.h"
#include "simnet/vc_routing.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::sim {
namespace {

using route::Phase;

/// The policy's candidates as output ports, derived independently of the
/// table: port = (2 * link + dir) * V + vc, dir 0 when leaving via `a`.
std::optional<std::vector<CompiledCandidate>> ExpectedRun(const VcRoutingPolicy& policy,
                                                          SwitchId s, SwitchId t, Phase phase,
                                                          bool on_escape) {
  std::vector<VcCandidate> candidates;
  try {
    candidates = policy.Candidates(s, t, phase, on_escape);
  } catch (const ContractError&) {
    return std::nullopt;  // a state the policy rejects (no real message reaches it)
  }
  std::vector<CompiledCandidate> run;
  for (const VcCandidate& cand : candidates) {
    const topo::Link& link = policy.graph().link(cand.link);
    const std::size_t dir = link.a == s ? 0 : 1;
    run.push_back({static_cast<std::uint32_t>((2 * cand.link + dir) * policy.vc_count() + cand.vc),
                   cand.phase, cand.escape});
  }
  return run;
}

/// Compiles every state of `policy` (in reverse state order, so runs land in
/// the arena out of state order) and checks each against the policy.
/// Returns the number of non-empty runs compared.
std::size_t ExpectTableMatchesPolicy(const VcRoutingPolicy& policy) {
  CompiledVcRoutes routes(policy);
  const std::size_t n = policy.graph().switch_count();
  std::size_t nonempty = 0;
  for (std::size_t k = n * n; k-- > 0;) {
    const SwitchId s = k / n;
    const SwitchId t = k % n;
    if (s == t) continue;
    for (const Phase phase : {Phase::kUp, Phase::kDown}) {
      for (const bool on_escape : {false, true}) {
        const auto expected = ExpectedRun(policy, s, t, phase, on_escape);
        if (!expected) {
          EXPECT_THROW((void)routes.Lookup(s, t, phase, on_escape), ContractError);
          continue;
        }
        const auto run = routes.Lookup(s, t, phase, on_escape);
        EXPECT_EQ(std::vector<CompiledCandidate>(run.begin(), run.end()), *expected)
            << policy.Name() << " state (" << s << ", " << t << ", "
            << static_cast<int>(phase) << ", " << on_escape << ")";
        if (!run.empty()) ++nonempty;
      }
    }
  }
  // Second pass over the filled table: compiled runs never move or change.
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto expected = ExpectedRun(policy, s, t, Phase::kUp, false);
      if (!expected) continue;
      const auto run = routes.Lookup(s, t, Phase::kUp, false);
      EXPECT_EQ(std::vector<CompiledCandidate>(run.begin(), run.end()), *expected);
    }
  }
  return nonempty;
}

topo::SwitchGraph Irregular16() { return topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}); }

TEST(CompiledVcRoutes, MatchesSingleClassPolicyOnEveryState) {
  for (const topo::SwitchGraph& g : {Irregular16(), topo::MakeFourRingsOfSix()}) {
    const route::UpDownRouting updown(g);
    const route::ShortestPathRouting shortest(g);
    for (const std::size_t vcs : {1u, 2u, 3u}) {
      for (const bool adaptive : {false, true}) {
        EXPECT_GT(ExpectTableMatchesPolicy(SingleClassVcPolicy(updown, vcs, adaptive)), 0u);
        EXPECT_GT(ExpectTableMatchesPolicy(SingleClassVcPolicy(shortest, vcs, adaptive)), 0u);
      }
    }
  }
}

TEST(CompiledVcRoutes, MatchesDuatoPolicyOnEveryState) {
  for (const topo::SwitchGraph& g : {Irregular16(), topo::MakeFourRingsOfSix()}) {
    for (const std::size_t vcs : {2u, 3u}) {
      EXPECT_GT(ExpectTableMatchesPolicy(DuatoFullyAdaptivePolicy(g, vcs)), 0u);
    }
  }
}

TEST(CompiledVcRoutes, MatchesDegradedPolicyAfterSwitchFailure) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  faults::DegradedView view(g);
  view.FailSwitch(3);
  const faults::DegradedRouting routing(g, view.Reconfigure(true));
  for (const bool adaptive : {false, true}) {
    const SingleClassVcPolicy policy(routing, 2, adaptive);
    EXPECT_GT(ExpectTableMatchesPolicy(policy), 0u);
    // States touching the dead switch compile to empty runs, as the policy
    // offers nothing there.
    CompiledVcRoutes routes(policy);
    EXPECT_TRUE(routes.Lookup(3, 0, Phase::kUp, false).empty());
    EXPECT_TRUE(routes.Lookup(0, 3, Phase::kUp, false).empty());
  }
}

// A parallel sweep whose jobs all build simulators over one shared const
// Duato policy: each simulator compiles its own table, so the policy is only
// ever read concurrently (TSan-checked in CI), and the parallel sweep is
// identical to the sequential one.
TEST(SharedPolicySweep, ParallelJobsShareOneConstDuatoPolicy) {
  const topo::SwitchGraph g = Irregular16();
  const work::Workload workload = work::Workload::Uniform(4, g.host_count() / 4);
  Rng rng(5);
  const work::ProcessMapping mapping = work::ProcessMapping::RandomAligned(g, workload, rng);
  const TrafficPattern pattern(g, workload, mapping);
  const DuatoFullyAdaptivePolicy policy(g, 2);

  SweepOptions options;
  options.points = 6;
  options.min_rate = 0.1;
  options.max_rate = 0.9;
  options.config.virtual_channels = 2;
  options.config.warmup_cycles = 300;
  options.config.measure_cycles = 1200;
  options.parallel = true;
  const SweepResult parallel = RunLoadSweep(g, policy, pattern, options);
  options.parallel = false;
  const SweepResult sequential = RunLoadSweep(g, policy, pattern, options);

  ASSERT_EQ(parallel.points.size(), sequential.points.size());
  for (std::size_t k = 0; k < parallel.points.size(); ++k) {
    const SimMetrics& a = parallel.points[k].metrics;
    const SimMetrics& b = sequential.points[k].metrics;
    EXPECT_EQ(a.flits_delivered, b.flits_delivered) << "point " << k;
    EXPECT_EQ(a.messages_generated, b.messages_generated);
    EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  }
  EXPECT_GT(parallel.Throughput(), 0.0);
}

}  // namespace
}  // namespace commsched::sim
