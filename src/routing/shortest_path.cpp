#include "routing/shortest_path.h"

#include <algorithm>
#include <limits>

namespace commsched::route {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();
}  // namespace

ShortestPathRouting::ShortestPathRouting(const SwitchGraph& graph) : graph_(&graph) {
  CS_CHECK(graph.IsConnected(), "routing requires a connected graph");
  dist_.reserve(graph.switch_count());
  for (SwitchId t = 0; t < graph.switch_count(); ++t) {
    dist_.push_back(graph.BfsDistances(t));
  }
}

std::size_t ShortestPathRouting::MinimalDistance(SwitchId s, SwitchId t) const {
  CS_CHECK(s < graph_->switch_count() && t < graph_->switch_count(), "switch out of range");
  return dist_[t][s];
}

void ShortestPathRouting::NextHopsInto(SwitchId current, SwitchId dest, Phase /*phase*/,
                                       std::vector<NextHop>& hops) const {
  CS_CHECK(current < graph_->switch_count() && dest < graph_->switch_count(),
           "switch out of range");
  hops.clear();
  if (current == dest) return;
  const auto& dist = dist_[dest];
  for (LinkId l : graph_->incident_links(current)) {
    const SwitchId v = graph_->OtherEnd(l, current);
    if (dist[v] + 1 == dist[current]) {
      hops.push_back({l, v, Phase::kUp});
    }
  }
  std::sort(hops.begin(), hops.end(),
            [](const NextHop& x, const NextHop& y) { return x.link < y.link; });
  CS_CHECK(!hops.empty(), "connected graph must yield a next hop");
}

std::vector<LinkId> ShortestPathRouting::LinksOnMinimalPaths(SwitchId s, SwitchId t) const {
  std::vector<LinkId> result;
  if (s == t) return result;
  const auto& dist_b = dist_[t];
  const auto& dist_f = dist_[s];  // symmetric BFS distances
  const std::size_t total = dist_b[s];
  CS_CHECK(total != kUnreachable, "unreachable destination");
  for (LinkId l = 0; l < graph_->link_count(); ++l) {
    const topo::Link& link = graph_->link(l);
    const bool forward = dist_f[link.a] + 1 + dist_b[link.b] == total;
    const bool backward = dist_f[link.b] + 1 + dist_b[link.a] == total;
    if (forward || backward) {
      result.push_back(l);
    }
  }
  return result;
}

Phase ShortestPathRouting::ArrivalPhase(LinkId /*link*/, SwitchId /*into*/) const {
  return Phase::kUp;
}

}  // namespace commsched::route
