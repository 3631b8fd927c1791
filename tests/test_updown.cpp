#include "routing/updown.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <limits>
#include <optional>

#include "faults/degraded.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::route {
namespace {

using topo::GenerateIrregularTopology;
using topo::IrregularTopologyOptions;
using topo::MakeRing;
using topo::MakeStar;

TEST(UpDown, RootPolicies) {
  const topo::SwitchGraph star = MakeStar(4);  // hub 0
  EXPECT_EQ(SelectRoot(star, RootPolicy::kLowestId), 0u);
  EXPECT_EQ(SelectRoot(star, RootPolicy::kMaxDegree), 0u);
  EXPECT_EQ(SelectRoot(star, RootPolicy::kMinEccentricity), 0u);

  topo::SwitchGraph path(5, 1);  // 0-1-2-3-4: center is 2
  for (std::size_t i = 0; i + 1 < 5; ++i) path.AddLink(i, i + 1);
  EXPECT_EQ(SelectRoot(path, RootPolicy::kMinEccentricity), 2u);
}

TEST(UpDown, LevelsFollowBfs) {
  topo::SwitchGraph path(4, 1);
  for (std::size_t i = 0; i + 1 < 4; ++i) path.AddLink(i, i + 1);
  const UpDownRouting routing(path, topo::SwitchId{0});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(routing.Level(i), i);
  }
  EXPECT_EQ(routing.root(), 0u);
}

TEST(UpDown, UpEndIsCloserToRoot) {
  const topo::SwitchGraph ring = MakeRing(6);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  for (topo::LinkId l = 0; l < ring.link_count(); ++l) {
    const topo::Link& link = ring.link(l);
    const topo::SwitchId up = routing.UpEnd(l);
    const topo::SwitchId down = ring.OtherEnd(l, up);
    if (routing.Level(up) != routing.Level(down)) {
      EXPECT_LT(routing.Level(up), routing.Level(down));
    } else {
      EXPECT_LT(up, down);  // Autonet tie-break by id
    }
    EXPECT_TRUE(routing.IsUpTraversal(l, down));
    EXPECT_FALSE(routing.IsUpTraversal(l, up));
    (void)link;
  }
}

TEST(UpDown, MinimalDistanceOnPathEqualsHops) {
  topo::SwitchGraph path(5, 1);
  for (std::size_t i = 0; i + 1 < 5; ++i) path.AddLink(i, i + 1);
  const UpDownRouting routing(path, topo::SwitchId{0});
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(routing.MinimalDistance(i, j), i > j ? i - j : j - i);
    }
  }
}

TEST(UpDown, RingDistancesCanExceedPhysicalShortestPath) {
  // In a 6-ring rooted at 0, the up*/down* path between some neighbours of
  // the "bottom" is forced the long way: between 2 and 4 (levels 2,2 via
  // opposite sides) the legal distance exceeds the physical 2.
  const topo::SwitchGraph ring = MakeRing(6);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  bool some_pair_longer = false;
  const auto hops = ring.AllPairsHopDistance();
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_GE(routing.MinimalDistance(i, j), hops[i][j]);
      if (routing.MinimalDistance(i, j) > hops[i][j]) some_pair_longer = true;
    }
  }
  EXPECT_TRUE(some_pair_longer);
}

TEST(UpDown, NextHopsLeadToDestination) {
  IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 11;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  // Walk the deterministic (first-candidate) route for every pair and check
  // it arrives with exactly MinimalDistance hops and legal phases.
  for (topo::SwitchId s = 0; s < 16; ++s) {
    for (topo::SwitchId t = 0; t < 16; ++t) {
      if (s == t) continue;
      topo::SwitchId at = s;
      Phase phase = Phase::kUp;
      std::size_t hops = 0;
      bool went_down = false;
      while (at != t) {
        const auto next = routing.NextHops(at, t, phase);
        ASSERT_FALSE(next.empty());
        const NextHop& hop = next.front();
        // Legality: never up after down.
        const bool is_up = routing.IsUpTraversal(hop.link, at);
        if (went_down) {
          EXPECT_FALSE(is_up);
        }
        if (!is_up) went_down = true;
        at = hop.next;
        phase = hop.phase;
        ++hops;
        ASSERT_LE(hops, 32u) << "routing loop";
      }
      EXPECT_EQ(hops, routing.MinimalDistance(s, t));
    }
  }
}

TEST(UpDown, NextHopsEmptyAtDestination) {
  const topo::SwitchGraph ring = MakeRing(4);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  EXPECT_TRUE(routing.NextHops(2, 2, Phase::kUp).empty());
}

TEST(UpDown, ArrivalPhaseMatchesTraversalDirection) {
  const topo::SwitchGraph ring = MakeRing(4);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  for (topo::LinkId l = 0; l < ring.link_count(); ++l) {
    const topo::SwitchId up = routing.UpEnd(l);
    const topo::SwitchId down = ring.OtherEnd(l, up);
    EXPECT_EQ(routing.ArrivalPhase(l, up), Phase::kUp);      // moved upward
    EXPECT_EQ(routing.ArrivalPhase(l, down), Phase::kDown);  // moved downward
  }
}

TEST(UpDown, LinksOnMinimalPathsContainsAWholePath) {
  IrregularTopologyOptions options;
  options.switch_count = 12;
  options.seed = 4;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  for (topo::SwitchId s = 0; s < 12; ++s) {
    for (topo::SwitchId t = s + 1; t < 12; ++t) {
      const auto links = routing.LinksOnMinimalPaths(s, t);
      ASSERT_FALSE(links.empty());
      EXPECT_GE(links.size(), routing.MinimalDistance(s, t));
      // The deterministic route's links must all be in the set.
      topo::SwitchId at = s;
      Phase phase = Phase::kUp;
      while (at != t) {
        const NextHop hop = routing.NextHops(at, t, phase).front();
        EXPECT_NE(std::find(links.begin(), links.end(), hop.link), links.end());
        at = hop.next;
        phase = hop.phase;
      }
    }
  }
}

TEST(UpDown, LinksOnMinimalPathsEmptyForSamePair) {
  const topo::SwitchGraph ring = MakeRing(4);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  EXPECT_TRUE(routing.LinksOnMinimalPaths(1, 1).empty());
}

// Independent oracle for LinksOnMinimalPaths, by the definition: over the
// (switch, phase) states, a forward BFS from (s, kUp) gives df and a
// backward BFS into t gives db; the transition u -> v over link l lies on a
// minimal legal path iff df(u) + 1 + db(v) == db(s, kUp). `Arrival` gives the
// phase after crossing l into v, or nullopt for a link the routing cannot
// use; a transition is legal unless it climbs after a descent.
using Arrival = std::function<std::optional<Phase>(LinkId, SwitchId)>;

struct Transition {
  std::size_t from;
  std::size_t to;
  LinkId link;
};

std::size_t State(SwitchId s, Phase p) { return s * 2 + static_cast<std::size_t>(p); }

std::vector<Transition> StateTransitions(const topo::SwitchGraph& g, const Arrival& arrival) {
  std::vector<Transition> transitions;
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const topo::Link& link = g.link(l);
    for (const auto& [u, v] : {std::pair{link.a, link.b}, std::pair{link.b, link.a}}) {
      const std::optional<Phase> pv = arrival(l, v);
      if (!pv.has_value()) continue;
      for (const Phase pu : {Phase::kUp, Phase::kDown}) {
        if (pu == Phase::kDown && *pv == Phase::kUp) continue;
        transitions.push_back({State(u, pu), State(v, *pv), l});
      }
    }
  }
  return transitions;
}

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// BFS hop counts from `sources` along the transitions, or against them when
// `backward`.
std::vector<std::size_t> StateBfs(std::size_t states, const std::vector<Transition>& transitions,
                                  const std::vector<std::size_t>& sources, bool backward) {
  std::vector<std::vector<std::size_t>> next(states);
  for (const Transition& tr : transitions) {
    if (backward) {
      next[tr.to].push_back(tr.from);
    } else {
      next[tr.from].push_back(tr.to);
    }
  }
  std::vector<std::size_t> dist(states, kNone);
  std::deque<std::size_t> queue;
  for (const std::size_t src : sources) {
    dist[src] = 0;
    queue.push_back(src);
  }
  while (!queue.empty()) {
    const std::size_t x = queue.front();
    queue.pop_front();
    for (const std::size_t y : next[x]) {
      if (dist[y] == kNone) {
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    }
  }
  return dist;
}

// Checks LinksOnMinimalPaths(s, t) against the oracle for every ordered pair
// of distinct switches in `switches`.
void ExpectWalkMatchesForwardBfs(const Routing& routing, const Arrival& arrival,
                                 const std::vector<SwitchId>& switches) {
  const topo::SwitchGraph& g = routing.graph();
  const std::size_t states = 2 * g.switch_count();
  const std::vector<Transition> transitions = StateTransitions(g, arrival);
  std::vector<std::vector<std::size_t>> forward(g.switch_count());
  for (const SwitchId s : switches) {
    forward[s] = StateBfs(states, transitions, {State(s, Phase::kUp)}, /*backward=*/false);
  }
  std::size_t mismatches = 0;
  for (const SwitchId t : switches) {
    const std::vector<std::size_t> db = StateBfs(
        states, transitions, {State(t, Phase::kUp), State(t, Phase::kDown)}, /*backward=*/true);
    for (const SwitchId s : switches) {
      if (s == t) continue;
      const std::vector<std::size_t>& df = forward[s];
      const std::size_t total = db[State(s, Phase::kUp)];
      ASSERT_NE(total, kNone);
      std::vector<bool> on_path(g.link_count(), false);
      for (const Transition& tr : transitions) {
        if (df[tr.from] != kNone && db[tr.to] != kNone && df[tr.from] + 1 + db[tr.to] == total) {
          on_path[tr.link] = true;
        }
      }
      std::vector<LinkId> expected;
      for (LinkId l = 0; l < g.link_count(); ++l) {
        if (on_path[l]) expected.push_back(l);
      }
      if (routing.LinksOnMinimalPaths(s, t) != expected) {
        ADD_FAILURE() << "pair " << s << " -> " << t;
        if (++mismatches == 5) return;
      }
    }
  }
}

void ExpectUpDownWalkMatchesForwardBfs(const topo::SwitchGraph& g) {
  for (const RootPolicy policy :
       {RootPolicy::kLowestId, RootPolicy::kMaxDegree, RootPolicy::kMinEccentricity}) {
    SCOPED_TRACE("root policy " + std::to_string(static_cast<int>(policy)));
    const UpDownRouting routing(g, policy);
    std::vector<SwitchId> all(g.switch_count());
    for (SwitchId s = 0; s < all.size(); ++s) all[s] = s;
    ExpectWalkMatchesForwardBfs(
        routing,
        [&routing](LinkId l, SwitchId into) -> std::optional<Phase> {
          return routing.UpEnd(l) == into ? Phase::kUp : Phase::kDown;
        },
        all);
  }
}

TEST(UpDown, LinksOnMinimalPathsMatchesForwardBfsOnRandomNets) {
  for (const std::size_t switches : {8, 16, 64, 128}) {
    for (const std::uint64_t seed : {1, 2}) {
      SCOPED_TRACE("random " + std::to_string(switches) + " seed " + std::to_string(seed));
      IrregularTopologyOptions options;
      options.switch_count = switches;
      options.seed = seed;
      ExpectUpDownWalkMatchesForwardBfs(GenerateIrregularTopology(options));
    }
  }
}

TEST(UpDown, LinksOnMinimalPathsMatchesForwardBfsOnRegularNets) {
  ExpectUpDownWalkMatchesForwardBfs(MakeRing(12));
  ExpectUpDownWalkMatchesForwardBfs(topo::MakeMesh2D(4, 5));
  ExpectUpDownWalkMatchesForwardBfs(topo::MakeTorus2D(4, 4));
  ExpectUpDownWalkMatchesForwardBfs(topo::MakeFourRingsOfSix());
}

TEST(UpDown, LinksOnMinimalPathsMatchesForwardBfsThroughDegradedRouting) {
  IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 3;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  faults::DegradedView view(g);
  view.FailSwitch(5);
  view.FailLink(g.link(0).a, g.link(0).b);
  view.FailLink(g.link(7).a, g.link(7).b);
  const faults::DegradedRouting routing(g, view.Reconfigure());
  std::vector<SwitchId> covered;
  for (SwitchId s = 0; s < g.switch_count(); ++s) {
    if (routing.Covers(s)) covered.push_back(s);
  }
  ASSERT_LT(covered.size(), g.switch_count());
  ASSERT_GT(covered.size(), 8u);
  ExpectWalkMatchesForwardBfs(
      routing,
      [&routing](LinkId l, SwitchId into) -> std::optional<Phase> {
        if (!routing.reconfig().link_to_compact[l].has_value()) return std::nullopt;
        return routing.ArrivalPhase(l, into);
      },
      covered);
}

TEST(UpDown, EnumerateMinimalPathsAllMinimalAndLegal) {
  IrregularTopologyOptions options;
  options.switch_count = 10;
  options.seed = 21;
  const topo::SwitchGraph g = GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  for (topo::SwitchId s = 0; s < 10; ++s) {
    for (topo::SwitchId t = 0; t < 10; ++t) {
      if (s == t) continue;
      const auto paths = EnumerateMinimalPaths(routing, s, t);
      ASSERT_FALSE(paths.empty());
      for (const auto& path : paths) {
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), t);
        EXPECT_EQ(path.size(), routing.MinimalDistance(s, t) + 1);
      }
    }
  }
}

TEST(UpDown, DisconnectedGraphRejected) {
  topo::SwitchGraph g(4, 1);
  g.AddLink(0, 1);
  g.AddLink(2, 3);
  try {
    UpDownRouting routing(g);
    FAIL() << "expected DisconnectedGraphError";
  } catch (const DisconnectedGraphError& e) {
    // Root policy kMaxDegree picks switch 0 (all tie at degree 1), so the
    // stranded component {2, 3} must be named, in order.
    EXPECT_EQ(e.unreachable_switches(), (std::vector<SwitchId>{2, 3}));
    EXPECT_NE(std::string(e.what()).find("{2, 3}"), std::string::npos) << e.what();
  }
  // The typed error is user-facing configuration feedback, not a contract
  // violation — it must be catchable as ConfigError.
  EXPECT_THROW(UpDownRouting routing(g), commsched::ConfigError);
}

TEST(UpDown, StarRoutesThroughHub) {
  const topo::SwitchGraph star = MakeStar(4);
  const UpDownRouting routing(star);
  EXPECT_EQ(routing.MinimalDistance(1, 2), 2u);
  const auto hops = routing.NextHops(1, 2, Phase::kUp);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops.front().next, 0u);
}

}  // namespace
}  // namespace commsched::route
