#include "routing/routing.h"

#include <algorithm>
#include <utility>

namespace commsched::route {

std::vector<LinkId> Routing::LinksOnMinimalPaths(SwitchId s, SwitchId t) const {
  const std::size_t n = graph().switch_count();
  CS_CHECK(s < n && t < n, "switch out of range");
  std::vector<LinkId> links;
  if (s == t) return links;
  // Every offered hop is one step closer to t, so the states reached from
  // (s, kUp) are exactly those on a minimal permitted path, and the hops
  // taken out of them are exactly its links.
  std::vector<bool> seen(2 * n, false);
  std::vector<std::pair<SwitchId, Phase>> stack{{s, Phase::kUp}};
  seen[2 * s] = true;
  std::vector<NextHop> hops;
  while (!stack.empty()) {
    const auto [u, phase] = stack.back();
    stack.pop_back();
    NextHopsInto(u, t, phase, hops);
    for (const NextHop& hop : hops) {
      links.push_back(hop.link);
      const std::size_t next = 2 * hop.next + static_cast<std::size_t>(hop.phase);
      if (!seen[next]) {
        seen[next] = true;
        stack.emplace_back(hop.next, hop.phase);
      }
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

std::vector<std::vector<SwitchId>> EnumerateMinimalPaths(const Routing& routing, SwitchId s,
                                                         SwitchId t, std::size_t limit) {
  std::vector<std::vector<SwitchId>> paths;
  if (s == t) {
    paths.push_back({s});
    return paths;
  }
  // DFS over NextHops; every branch stays on a minimal remaining path by
  // construction, so no pruning is needed beyond the enumeration limit.
  struct Frame {
    SwitchId at;
    Phase phase;
    std::vector<NextHop> hops;
    std::size_t next = 0;
  };
  std::vector<SwitchId> current{s};
  std::vector<Frame> stack;
  stack.push_back({s, Phase::kUp, routing.NextHops(s, t, Phase::kUp), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.hops.size()) {
      stack.pop_back();
      current.pop_back();
      continue;
    }
    const NextHop hop = frame.hops[frame.next++];
    current.push_back(hop.next);
    if (hop.next == t) {
      paths.push_back(current);
      CS_CHECK(paths.size() <= limit, "minimal path enumeration limit exceeded");
      current.pop_back();
    } else {
      stack.push_back({hop.next, hop.phase, routing.NextHops(hop.next, t, hop.phase), 0});
    }
  }
  return paths;
}

}  // namespace commsched::route
