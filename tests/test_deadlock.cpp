#include "routing/deadlock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "faults/degraded.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::route {
namespace {

// Reference CDG: the per-channel walk BuildChannelDependencyGraph replaced,
// which queries NextHops for every (channel, destination) pair.
std::vector<std::vector<std::size_t>> ReferenceCdg(const Routing& routing) {
  const SwitchGraph& g = routing.graph();
  const std::size_t channel_count = 2 * g.link_count();
  std::vector<std::vector<std::size_t>> adjacency(channel_count);
  for (LinkId l = 0; l < g.link_count(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      const topo::Link& link = g.link(l);
      const SwitchId u = dir == 0 ? link.a : link.b;
      const SwitchId v = dir == 0 ? link.b : link.a;
      const std::size_t c1 = ChannelIndex(g, l, u);
      const Phase arrival = routing.ArrivalPhase(l, v);
      std::vector<bool> seen(channel_count, false);
      for (SwitchId dest = 0; dest < g.switch_count(); ++dest) {
        if (dest == v) continue;
        bool c1_offered = false;
        for (const NextHop& hop : routing.NextHops(u, dest, Phase::kUp)) {
          if (hop.link == l && hop.next == v) c1_offered = true;
        }
        if (!c1_offered && arrival == Phase::kDown) {
          for (const NextHop& hop : routing.NextHops(u, dest, Phase::kDown)) {
            if (hop.link == l && hop.next == v) c1_offered = true;
          }
        }
        if (!c1_offered) continue;
        for (const NextHop& hop : routing.NextHops(v, dest, arrival)) {
          const std::size_t c2 = ChannelIndex(g, hop.link, v);
          if (!seen[c2]) {
            seen[c2] = true;
            adjacency[c1].push_back(c2);
          }
        }
      }
      std::sort(adjacency[c1].begin(), adjacency[c1].end());
    }
  }
  return adjacency;
}

// Reference cycle search: the colored iterative DFS FindDependencyCycle
// runs, over the reference adjacency.
std::vector<std::size_t> ReferenceCycle(const std::vector<std::vector<std::size_t>>& adjacency) {
  enum class Color : char { kWhite, kGray, kBlack };
  const std::size_t n = adjacency.size();
  std::vector<Color> color(n, Color::kWhite);
  std::vector<std::size_t> parent(n, static_cast<std::size_t>(-1));
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != Color::kWhite) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{start, 0}};
    color[start] = Color::kGray;
    while (!stack.empty()) {
      auto& [u, child] = stack.back();
      if (child < adjacency[u].size()) {
        const std::size_t v = adjacency[u][child++];
        if (color[v] == Color::kWhite) {
          color[v] = Color::kGray;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (color[v] == Color::kGray) {
          std::vector<std::size_t> cycle{v};
          for (std::size_t w = u; w != v; w = parent[w]) cycle.push_back(w);
          std::reverse(cycle.begin() + 1, cycle.end());
          return cycle;
        }
      } else {
        color[u] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

// Forwards to `inner` and records every (current, dest, phase) query, from
// any thread.
class RecordingRouting final : public Routing {
 public:
  explicit RecordingRouting(const Routing& inner) : inner_(inner) {}
  const SwitchGraph& graph() const override { return inner_.graph(); }
  std::size_t MinimalDistance(SwitchId s, SwitchId t) const override {
    return inner_.MinimalDistance(s, t);
  }
  void NextHopsInto(SwitchId current, SwitchId dest, Phase phase,
                    std::vector<NextHop>& out) const override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queries.emplace(current, dest, phase);
    }
    inner_.NextHopsInto(current, dest, phase, out);
  }
  Phase ArrivalPhase(LinkId link, SwitchId into) const override {
    return inner_.ArrivalPhase(link, into);
  }
  std::string Name() const override { return inner_.Name(); }

  mutable std::set<std::tuple<SwitchId, SwitchId, Phase>> queries;

 private:
  const Routing& inner_;
  mutable std::mutex mutex_;
};

// The build equals the reference walk, and asks the routing nothing the
// reference does not ask.
void ExpectMatchesReference(const Routing& routing, const std::string& name) {
  const RecordingRouting reference_routing(routing);
  const RecordingRouting build_routing(routing);
  const auto reference = ReferenceCdg(reference_routing);
  EXPECT_EQ(BuildChannelDependencyGraph(build_routing), reference) << name;
  EXPECT_TRUE(std::includes(reference_routing.queries.begin(), reference_routing.queries.end(),
                            build_routing.queries.begin(), build_routing.queries.end()))
      << name;
  EXPECT_EQ(FindDependencyCycle(routing), ReferenceCycle(reference)) << name;
}

TEST(Deadlock, DirectedChannelLayout) {
  const topo::SwitchGraph ring = topo::MakeRing(4);
  const auto channels = DirectedChannels(ring);
  ASSERT_EQ(channels.size(), 8u);
  for (topo::LinkId l = 0; l < 4; ++l) {
    EXPECT_EQ(channels[2 * l].from, ring.link(l).a);
    EXPECT_EQ(channels[2 * l].to, ring.link(l).b);
    EXPECT_EQ(channels[2 * l + 1].from, ring.link(l).b);
    EXPECT_EQ(channels[2 * l + 1].to, ring.link(l).a);
  }
}

TEST(Deadlock, ChannelIndexRoundTrip) {
  const topo::SwitchGraph ring = topo::MakeRing(4);
  const auto channels = DirectedChannels(ring);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    EXPECT_EQ(ChannelIndex(ring, channels[c].link, channels[c].from), c);
  }
}

TEST(Deadlock, UpDownIsDeadlockFreeOnIrregularNetworks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    topo::IrregularTopologyOptions options;
    options.switch_count = 16;
    options.seed = seed;
    const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
    const UpDownRouting routing(g);
    EXPECT_TRUE(IsDeadlockFree(routing)) << "seed " << seed;
  }
}

TEST(Deadlock, UpDownIsDeadlockFreeOnRingsAndTori) {
  {
    const topo::SwitchGraph g = topo::MakeRing(8);
    const UpDownRouting routing(g, topo::SwitchId{0});
    EXPECT_TRUE(IsDeadlockFree(routing));
  }
  {
    const topo::SwitchGraph g = topo::MakeTorus2D(3, 3);
    const UpDownRouting routing(g);
    EXPECT_TRUE(IsDeadlockFree(routing));
  }
  {
    const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
    const UpDownRouting routing(g);
    EXPECT_TRUE(IsDeadlockFree(routing));
  }
}

TEST(Deadlock, UnrestrictedShortestPathOnRingHasCycle) {
  // Classic result: minimal adaptive routing on a ring (>= 5 switches so
  // that every channel is on some minimal route in a fixed direction) has a
  // cyclic channel dependency on one virtual channel.
  const topo::SwitchGraph ring = topo::MakeRing(6);
  const ShortestPathRouting routing(ring);
  EXPECT_FALSE(IsDeadlockFree(routing));
  const auto cycle = FindDependencyCycle(routing);
  ASSERT_GE(cycle.size(), 3u);
  // The reported cycle is a real cycle in the CDG.
  const auto cdg = BuildChannelDependencyGraph(routing);
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    const std::size_t from = cycle[k];
    const std::size_t to = cycle[(k + 1) % cycle.size()];
    EXPECT_NE(std::find(cdg[from].begin(), cdg[from].end(), to), cdg[from].end())
        << "missing CDG edge " << from << " -> " << to;
  }
}

TEST(Deadlock, ShortestPathOnTreeIsDeadlockFree) {
  // A tree has no cycles at all, so even unrestricted routing is safe.
  const topo::SwitchGraph star = topo::MakeStar(5);
  const ShortestPathRouting routing(star);
  EXPECT_TRUE(IsDeadlockFree(routing));
}

TEST(Deadlock, PerDestinationBuildMatchesPerChannelReference) {
  std::vector<std::pair<std::string, topo::SwitchGraph>> nets;
  for (const std::size_t n : {8, 16, 17, 32, 64, 128}) {
    topo::IrregularTopologyOptions options;
    options.switch_count = n;
    options.seed = n;
    nets.emplace_back("random" + std::to_string(n), topo::GenerateIrregularTopology(options));
  }
  nets.emplace_back("torus4x5", topo::MakeTorus2D(4, 5));
  nets.emplace_back("rings", topo::MakeFourRingsOfSix());
  for (const auto& [name, graph] : nets) {
    ExpectMatchesReference(UpDownRouting(graph), name + " up*/down*");
    ExpectMatchesReference(ShortestPathRouting(graph), name + " shortest-path");
  }
  // Shortest-path routing on the four rings has a dependency cycle, so the
  // reported cycles are compared too, not only their absence.
  EXPECT_FALSE(FindDependencyCycle(ShortestPathRouting(topo::MakeFourRingsOfSix())).empty());
}

TEST(Deadlock, PerDestinationBuildMatchesReferenceOnDegradedRouting) {
  // Dead switches answer no NextHops and dead links stay in the base graph;
  // the build must make no query the reference walk does not.
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  faults::DegradedView view(g);
  view.FailSwitch(7);
  const faults::DegradedRouting routing(g, view.Reconfigure());
  ExpectMatchesReference(routing, "rings without switch 7");
  EXPECT_TRUE(IsDeadlockFree(routing));
}

TEST(Deadlock, CdgHasNoSelfLoops) {
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const UpDownRouting routing(g);
  const auto cdg = BuildChannelDependencyGraph(routing);
  for (std::size_t c = 0; c < cdg.size(); ++c) {
    EXPECT_EQ(std::find(cdg[c].begin(), cdg[c].end(), c), cdg[c].end());
  }
}

}  // namespace
}  // namespace commsched::route
