#include "routing/updown.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>

#include "obs/span.h"

namespace commsched::route {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

// Throws DisconnectedGraphError when some switch cannot be reached from
// `source`, listing the stranded switch ids in the message.
void RequireConnectedFrom(const SwitchGraph& graph, SwitchId source) {
  const auto dist = graph.BfsDistances(source);
  std::vector<SwitchId> unreachable;
  for (SwitchId s = 0; s < dist.size(); ++s) {
    if (dist[s] == kUnreachable) unreachable.push_back(s);
  }
  if (unreachable.empty()) return;
  std::string names;
  for (std::size_t k = 0; k < unreachable.size(); ++k) {
    if (k > 0) names += ", ";
    names += std::to_string(unreachable[k]);
  }
  throw DisconnectedGraphError(
      "up*/down* requires a connected graph: switches {" + names +
          "} are unreachable from switch " + std::to_string(source),
      std::move(unreachable));
}

// Per-thread scratch of LinksOnMinimalPaths. A mark equals the current
// epoch iff it was set during the current call, so a call clears nothing
// but its own stack and link list.
struct WalkScratch {
  std::vector<std::uint32_t> state_mark;  // per (switch, phase) state
  std::vector<std::uint32_t> link_mark;   // per link
  std::uint32_t epoch = 0;
  std::vector<std::size_t> stack;
  std::vector<LinkId> links;

  // Starts a call over `states` states and `link_count` links; returns its
  // epoch.
  std::uint32_t Begin(std::size_t states, std::size_t link_count) {
    if (state_mark.size() < states) state_mark.resize(states, 0);
    if (link_mark.size() < link_count) link_mark.resize(link_count, 0);
    if (++epoch == 0) {  // wrapped: a stale mark could equal the new epoch
      std::fill(state_mark.begin(), state_mark.end(), 0);
      std::fill(link_mark.begin(), link_mark.end(), 0);
      epoch = 1;
    }
    stack.clear();
    links.clear();
    return epoch;
  }
};

}  // namespace

SwitchId SelectRoot(const SwitchGraph& graph, RootPolicy policy) {
  const std::size_t n = graph.switch_count();
  switch (policy) {
    case RootPolicy::kLowestId:
      return 0;
    case RootPolicy::kMaxDegree: {
      SwitchId best = 0;
      for (SwitchId s = 1; s < n; ++s) {
        if (graph.Degree(s) > graph.Degree(best)) best = s;
      }
      return best;
    }
    case RootPolicy::kMinEccentricity: {
      SwitchId best = 0;
      std::size_t best_ecc = kUnreachable;
      RequireConnectedFrom(graph, 0);
      for (SwitchId s = 0; s < n; ++s) {
        const auto dist = graph.BfsDistances(s);
        std::size_t ecc = 0;
        for (std::size_t d : dist) ecc = std::max(ecc, d);
        if (ecc < best_ecc) {
          best_ecc = ecc;
          best = s;
        }
      }
      return best;
    }
  }
  CS_UNREACHABLE("unknown root policy");
}

UpDownRouting::UpDownRouting(const SwitchGraph& graph, RootPolicy policy)
    : UpDownRouting(graph, SelectRoot(graph, policy)) {}

UpDownRouting::UpDownRouting(const SwitchGraph& graph, SwitchId root)
    : graph_(&graph), root_(root) {
  CS_CHECK(root < graph.switch_count(), "root out of range");
  RequireConnectedFrom(graph, root);
  Build();
}

UpDownRouting::UpDownRouting(const SwitchGraph& graph, UpDownState state)
    : graph_(&graph), root_(state.root) {
  const std::size_t n = graph.switch_count();
  if (state.root >= n || state.level.size() != n || state.up_end.size() != graph.link_count() ||
      state.dist_to_dest.size() != n) {
    throw ConfigError("up*/down* state does not match the graph shape");
  }
  for (const auto& dist : state.dist_to_dest) {
    if (dist.size() != 2 * n) {
      throw ConfigError("up*/down* state does not match the graph shape");
    }
  }
  level_ = std::move(state.level);
  up_end_ = std::move(state.up_end);
  dist_to_dest_ = std::move(state.dist_to_dest);
}

UpDownState UpDownRouting::ExportState() const {
  UpDownState state;
  state.root = root_;
  state.level = level_;
  state.up_end = up_end_;
  state.dist_to_dest = dist_to_dest_;
  return state;
}

void UpDownRouting::Build() {
  obs::Span span("route.updown");
  const SwitchGraph& g = *graph_;
  const std::size_t n = g.switch_count();

  level_ = g.BfsDistances(root_);

  // Orient every link: the up end is the endpoint with the smaller BFS
  // level; ties break toward the lower switch id (Autonet ordering).
  up_end_.resize(g.link_count());
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const topo::Link& link = g.link(l);
    const bool a_up = (level_[link.a] != level_[link.b]) ? level_[link.a] < level_[link.b]
                                                         : link.a < link.b;
    up_end_[l] = a_up ? link.a : link.b;
  }

  // Backward BFS per destination over the doubled state graph. A reversed
  // transition into state (u,p) enumerates the forward moves out of (u,p):
  //   (u,kUp)  --up-->   (v,kUp)
  //   (u,kUp)  --down--> (v,kDown)
  //   (u,kDown)--down--> (v,kDown)
  // so dist_to_dest_[t][(u,p)] = 1 + min over forward moves.
  dist_to_dest_.assign(n, {});
  for (SwitchId t = 0; t < n; ++t) {
    auto& dist = dist_to_dest_[t];
    dist.assign(2 * n, kUnreachable);
    std::deque<std::size_t> queue;
    for (Phase p : {Phase::kUp, Phase::kDown}) {
      dist[StateIndex(t, p)] = 0;
      queue.push_back(StateIndex(t, p));
    }
    while (!queue.empty()) {
      const std::size_t state = queue.front();
      queue.pop_front();
      const SwitchId v = state / 2;
      const Phase pv = static_cast<Phase>(state % 2);
      // Find predecessor states (u, pu) with a forward move into (v, pv).
      for (LinkId l : g.incident_links(v)) {
        const SwitchId u = g.OtherEnd(l, v);
        const bool into_v_is_up = (up_end_[l] == v);  // traversal u->v
        if (into_v_is_up) {
          // u->v is an up traversal: only allowed from (u,kUp) into (v,kUp).
          if (pv == Phase::kUp) {
            const std::size_t prev = StateIndex(u, Phase::kUp);
            if (dist[prev] == kUnreachable) {
              dist[prev] = dist[state] + 1;
              queue.push_back(prev);
            }
          }
        } else {
          // u->v is a down traversal: allowed from (u,kUp) and (u,kDown),
          // both arriving in (v,kDown).
          if (pv == Phase::kDown) {
            for (Phase pu : {Phase::kUp, Phase::kDown}) {
              const std::size_t prev = StateIndex(u, pu);
              if (dist[prev] == kUnreachable) {
                dist[prev] = dist[state] + 1;
                queue.push_back(prev);
              }
            }
          }
        }
      }
    }
    CS_CHECK(dist[StateIndex(t == 0 ? (n > 1 ? 1 : 0) : 0, Phase::kUp)] != kUnreachable,
             "up*/down* must connect every pair on a connected graph");
  }
}

std::size_t UpDownRouting::MinimalDistance(SwitchId s, SwitchId t) const {
  CS_CHECK(s < graph_->switch_count() && t < graph_->switch_count(), "switch out of range");
  const std::size_t d = dist_to_dest_[t][StateIndex(s, Phase::kUp)];
  CS_CHECK(d != kUnreachable, "unreachable destination");
  return d;
}

void UpDownRouting::NextHopsInto(SwitchId current, SwitchId dest, Phase phase,
                                 std::vector<NextHop>& hops) const {
  CS_CHECK(current < graph_->switch_count() && dest < graph_->switch_count(),
           "switch out of range");
  hops.clear();
  if (current == dest) return;
  const auto& dist = dist_to_dest_[dest];
  const std::size_t here = dist[StateIndex(current, phase)];
  if (here == kUnreachable) {
    // A message already descending may be unable to reach `dest` at all;
    // such states never occur for real messages (the simulator only follows
    // offered hops) but are probed by the deadlock analyzer.
    return;
  }
  for (LinkId l : graph_->incident_links(current)) {
    const SwitchId v = graph_->OtherEnd(l, current);
    const bool up_traversal = (up_end_[l] == v);
    if (up_traversal && phase == Phase::kDown) continue;  // illegal: up after down
    const Phase next_phase = up_traversal ? Phase::kUp : Phase::kDown;
    const std::size_t there = dist[StateIndex(v, next_phase)];
    if (there != kUnreachable && there + 1 == here) {
      hops.push_back({l, v, next_phase});
    }
  }
  std::sort(hops.begin(), hops.end(),
            [](const NextHop& x, const NextHop& y) { return x.link < y.link; });
  CS_CHECK(!hops.empty(), "minimal legal path must have a next hop");
}

std::vector<LinkId> UpDownRouting::LinksOnMinimalPaths(SwitchId s, SwitchId t) const {
  CS_CHECK(s < graph_->switch_count() && t < graph_->switch_count(), "switch out of range");
  if (s == t) return {};
  const SwitchGraph& g = *graph_;
  const auto& dist = dist_to_dest_[t];
  const std::size_t start = StateIndex(s, Phase::kUp);
  CS_CHECK(dist[start] != kUnreachable, "unreachable destination");

  // Walk from (s, kUp) down the backward distances: follow a legal
  // transition only into a state exactly one hop closer to t. The states
  // reached are exactly those on a minimal legal path (forward distance df
  // plus backward distance db equals the total): a state reached after k
  // steps has db = total - k and, as no path beats the total, df = k;
  // conversely db falls by one along any shortest path from s to such a
  // state. So the transitions taken are exactly those with
  // df(u) + 1 + db(v) == total, at the cost of the subgraph rather than of
  // every (switch, phase) state. Marks are per-thread epoch stamps, so
  // nothing is cleared per pair.
  thread_local WalkScratch scratch;
  const std::uint32_t epoch = scratch.Begin(2 * g.switch_count(), g.link_count());
  scratch.state_mark[start] = epoch;
  scratch.stack.push_back(start);
  while (!scratch.stack.empty()) {
    const std::size_t state = scratch.stack.back();
    scratch.stack.pop_back();
    const SwitchId u = state / 2;
    const Phase pu = static_cast<Phase>(state % 2);
    const std::size_t closer = dist[state] - 1;  // >= 0: t's states are never pushed
    for (LinkId l : g.incident_links(u)) {
      const SwitchId v = g.OtherEnd(l, u);
      const bool up_traversal = (up_end_[l] == v);
      if (up_traversal && pu == Phase::kDown) continue;
      const std::size_t next = StateIndex(v, up_traversal ? Phase::kUp : Phase::kDown);
      if (dist[next] != closer) continue;
      if (scratch.link_mark[l] != epoch) {
        scratch.link_mark[l] = epoch;
        scratch.links.push_back(l);
      }
      if (closer > 0 && scratch.state_mark[next] != epoch) {
        scratch.state_mark[next] = epoch;
        scratch.stack.push_back(next);
      }
    }
  }
  std::sort(scratch.links.begin(), scratch.links.end());
  return scratch.links;
}

Phase UpDownRouting::ArrivalPhase(LinkId link, SwitchId into) const {
  CS_CHECK(link < graph_->link_count(), "link out of range");
  return up_end_[link] == into ? Phase::kUp : Phase::kDown;
}

SwitchId UpDownRouting::UpEnd(LinkId link) const {
  CS_CHECK(link < graph_->link_count(), "link out of range");
  return up_end_[link];
}

bool UpDownRouting::IsUpTraversal(LinkId link, SwitchId from) const {
  return graph_->OtherEnd(link, from) == UpEnd(link);
}

std::size_t UpDownRouting::Level(SwitchId s) const {
  CS_CHECK(s < level_.size(), "switch out of range");
  return level_[s];
}

}  // namespace commsched::route
