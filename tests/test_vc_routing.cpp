#include "simnet/vc_routing.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::sim {
namespace {

using route::Phase;
using route::UpDownRouting;

TEST(SingleClassPolicy, DeterministicUsesOneLinkAllVcs) {
  const topo::SwitchGraph g = topo::MakeMesh2D(3, 3);
  const route::ShortestPathRouting routing(g);
  const SingleClassVcPolicy policy(routing, 3, /*adaptive=*/false);
  EXPECT_EQ(policy.vc_count(), 3u);
  // Corner to far corner offers 2 links; deterministic keeps the first only.
  const auto candidates = policy.Candidates(0, 8, Phase::kUp, false);
  ASSERT_EQ(candidates.size(), 3u);
  for (const VcCandidate& c : candidates) {
    EXPECT_EQ(c.link, candidates.front().link);
    EXPECT_FALSE(c.escape);
  }
  EXPECT_EQ(candidates[0].vc, 0u);
  EXPECT_EQ(candidates[2].vc, 2u);
}

TEST(SingleClassPolicy, AdaptiveUsesAllLinks) {
  const topo::SwitchGraph g = topo::MakeMesh2D(3, 3);
  const route::ShortestPathRouting routing(g);
  const SingleClassVcPolicy policy(routing, 2, /*adaptive=*/true);
  const auto candidates = policy.Candidates(0, 8, Phase::kUp, false);
  EXPECT_EQ(candidates.size(), 4u);  // 2 links x 2 VCs
}

TEST(SingleClassPolicy, EmptyAtDestination) {
  const topo::SwitchGraph g = topo::MakeMesh2D(2, 2);
  const route::ShortestPathRouting routing(g);
  const SingleClassVcPolicy policy(routing, 2, true);
  EXPECT_TRUE(policy.Candidates(1, 1, Phase::kUp, false).empty());
}

TEST(DuatoPolicy, RequiresTwoVcs) {
  const topo::SwitchGraph g = topo::MakeRing(6);
  EXPECT_THROW(DuatoFullyAdaptivePolicy policy(g, 1), commsched::ContractError);
}

TEST(DuatoPolicy, AdaptiveChannelsPreferredEscapeLast) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 3;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const DuatoFullyAdaptivePolicy policy(g, 2);
  for (topo::SwitchId s = 0; s < 16; ++s) {
    for (topo::SwitchId t = 0; t < 16; ++t) {
      if (s == t) continue;
      const auto candidates = policy.Candidates(s, t, Phase::kUp, false);
      ASSERT_FALSE(candidates.empty());
      // Prefix: adaptive (vc >= 1); suffix: escape (vc 0, up*/down*).
      bool seen_escape = false;
      std::size_t escape_count = 0;
      for (const VcCandidate& c : candidates) {
        if (c.escape) {
          seen_escape = true;
          ++escape_count;
          EXPECT_EQ(c.vc, 0u);
        } else {
          EXPECT_FALSE(seen_escape) << "adaptive candidate after an escape candidate";
          EXPECT_GE(c.vc, 1u);
        }
      }
      EXPECT_GE(escape_count, 1u) << "escape network must always be reachable";
    }
  }
}

TEST(DuatoPolicy, AdaptiveCandidatesAreMinimal) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 12;
  options.seed = 9;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const DuatoFullyAdaptivePolicy policy(g, 3);
  const auto hops = g.AllPairsHopDistance();
  for (topo::SwitchId s = 0; s < 12; ++s) {
    for (topo::SwitchId t = 0; t < 12; ++t) {
      if (s == t) continue;
      for (const VcCandidate& c : policy.Candidates(s, t, Phase::kUp, false)) {
        if (!c.escape) {
          EXPECT_EQ(hops[c.next][t] + 1, hops[s][t]) << "non-minimal adaptive hop";
        }
      }
    }
  }
}

TEST(DuatoPolicy, OnEscapeStaysOnEscape) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const DuatoFullyAdaptivePolicy policy(g, 2);
  for (topo::SwitchId s = 0; s < 24; ++s) {
    for (topo::SwitchId t = 0; t < 24; ++t) {
      if (s == t) continue;
      const auto candidates = policy.Candidates(s, t, Phase::kUp, /*on_escape=*/true);
      ASSERT_EQ(candidates.size(), 1u);  // deterministic escape
      EXPECT_TRUE(candidates.front().escape);
      EXPECT_EQ(candidates.front().vc, 0u);
    }
  }
}

TEST(DuatoPolicy, EscapeFollowsUpDownPhases) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const DuatoFullyAdaptivePolicy policy(g, 2);
  const UpDownRouting& escape = policy.escape_routing();
  // Walk any pair along the escape network and confirm phase legality.
  topo::SwitchId at = 3;
  const topo::SwitchId dest = 20;
  Phase phase = Phase::kUp;
  bool went_down = false;
  std::size_t steps = 0;
  while (at != dest) {
    const auto candidates = policy.Candidates(at, dest, phase, true);
    ASSERT_EQ(candidates.size(), 1u);
    const VcCandidate& c = candidates.front();
    const bool is_up = escape.IsUpTraversal(c.link, at);
    if (went_down) {
      EXPECT_FALSE(is_up) << "up traversal after down on escape path";
    }
    if (!is_up) went_down = true;
    at = c.next;
    phase = c.phase;
    ASSERT_LT(++steps, 50u);
  }
}

TEST(PolicyNames, AreDescriptive) {
  const topo::SwitchGraph g = topo::MakeRing(6);
  const UpDownRouting ud(g, topo::SwitchId{0});
  EXPECT_EQ(SingleClassVcPolicy(ud, 2, false).Name(), "up*/down*/deterministic/vc2");
  EXPECT_EQ(SingleClassVcPolicy(ud, 4, true).Name(), "up*/down*/adaptive/vc4");
  EXPECT_EQ(DuatoFullyAdaptivePolicy(g, 2).Name(), "duato-fully-adaptive");
}

}  // namespace
}  // namespace commsched::sim
