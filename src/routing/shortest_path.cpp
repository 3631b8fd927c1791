#include "routing/shortest_path.h"

#include <algorithm>

namespace commsched::route {

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

Phase ShortestPathRouting::ArrivalPhase(LinkId /*link*/, SwitchId /*into*/) const {
  return Phase::kUp;
}

}  // namespace commsched::route
