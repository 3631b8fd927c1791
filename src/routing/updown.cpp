#include "routing/updown.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"
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
  // so dist_to_dest_[t][(u,p)] = 1 + min over forward moves. Each
  // destination writes only its own table, so blocks of destinations run in
  // parallel, each reusing one flat FIFO queue.
  dist_to_dest_.assign(n, {});
  const auto solve_block = [&](SwitchId first, SwitchId last) {
    std::vector<std::size_t> queue;
    queue.reserve(2 * n);
    for (SwitchId t = first; t < last; ++t) {
      auto& dist = dist_to_dest_[t];
      dist.assign(2 * n, kUnreachable);
      queue.clear();
      for (Phase p : {Phase::kUp, Phase::kDown}) {
        dist[StateIndex(t, p)] = 0;
        queue.push_back(StateIndex(t, p));
      }
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t state = queue[head];
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
  };
  if (n < kParallelSetupMinSwitches) {
    solve_block(0, n);
  } else {
    constexpr std::size_t kDestinationsPerBlock = 8;
    ParallelFor((n + kDestinationsPerBlock - 1) / kDestinationsPerBlock, [&](std::size_t block) {
      solve_block(block * kDestinationsPerBlock,
                  std::min(n, (block + 1) * kDestinationsPerBlock));
    });
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
