#include "routing/deadlock.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/parallel.h"
#include "obs/span.h"

namespace commsched::route {

std::vector<Channel> DirectedChannels(const SwitchGraph& graph) {
  std::vector<Channel> channels;
  channels.reserve(2 * graph.link_count());
  for (LinkId l = 0; l < graph.link_count(); ++l) {
    const topo::Link& link = graph.link(l);
    channels.push_back({l, link.a, link.b});
    channels.push_back({l, link.b, link.a});
  }
  return channels;
}

std::size_t ChannelIndex(const SwitchGraph& graph, LinkId link, SwitchId from) {
  const topo::Link& l = graph.link(link);
  CS_CHECK(l.a == from || l.b == from, "switch is not an endpoint of the link");
  return 2 * link + (l.a == from ? 0 : 1);
}

namespace {

// The out-channels a routing function offers toward one destination, per
// (switch, phase) state. A state is queried on first use and kept for every
// channel that needs it until Reset moves to the next destination, so each
// destination costs at most one NextHops query per state.
class DestinationOffers {
 public:
  explicit DestinationOffers(const Routing& routing)
      : routing_(routing),
        stamp_(2 * routing.graph().switch_count(), 0),
        range_(2 * routing.graph().switch_count()) {}

  void Reset(SwitchId dest) {
    dest_ = dest;
    ++epoch_;
    channels_.clear();
  }

  // Index range into channels() of the offers at (s, phase).
  std::pair<std::size_t, std::size_t> At(SwitchId s, Phase phase) {
    const std::size_t state = 2 * s + static_cast<std::size_t>(phase);
    if (stamp_[state] != epoch_) {
      stamp_[state] = epoch_;
      routing_.NextHopsInto(s, dest_, phase, hops_);
      range_[state].first = channels_.size();
      for (const NextHop& hop : hops_) {
        channels_.push_back(ChannelIndex(routing_.graph(), hop.link, s));
      }
      range_[state].second = channels_.size();
    }
    return range_[state];
  }

  // True when the state (s, phase) offers `channel`.
  bool Offers(SwitchId s, Phase phase, std::size_t channel) {
    const auto [first, last] = At(s, phase);
    return std::find(channels_.begin() + first, channels_.begin() + last, channel) !=
           channels_.begin() + last;
  }

  [[nodiscard]] const std::vector<std::size_t>& channels() const { return channels_; }

 private:
  const Routing& routing_;
  SwitchId dest_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  // == epoch_ once the state is queried
  std::vector<std::pair<std::size_t, std::size_t>> range_;
  std::vector<std::size_t> channels_;
  std::vector<NextHop> hops_;
};

}  // namespace

std::vector<std::vector<std::size_t>> BuildChannelDependencyGraph(const Routing& routing) {
  obs::Span span("route.cdg");
  const SwitchGraph& g = routing.graph();
  const std::size_t channel_count = 2 * g.link_count();

  // Per channel c = (u -> v): the phase a message arrives at v in, the
  // position of c's link among its tail's incident links, and the first of
  // c's successor bits, one per incident link (port) of v.
  std::vector<Phase> arrival(channel_count);
  std::vector<std::size_t> tail_port(channel_count);
  std::vector<std::size_t> bit_base(channel_count + 1, 0);
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const topo::Link& link = g.link(l);
    for (int dir = 0; dir < 2; ++dir) {
      const SwitchId v = dir == 0 ? link.b : link.a;
      const std::size_t c = 2 * l + static_cast<std::size_t>(dir);
      arrival[c] = routing.ArrivalPhase(l, v);
      bit_base[c + 1] = bit_base[c] + g.Degree(v);
    }
  }
  for (SwitchId s = 0; s < g.switch_count(); ++s) {
    const auto& ports = g.incident_links(s);
    for (std::size_t p = 0; p < ports.size(); ++p) tail_port[ChannelIndex(g, ports[p], s)] = p;
  }
  const std::size_t words = (bit_base.back() + 63) / 64;

  // A message that traversed channel c1 = (u -> v) arrives at v in phase
  // arrival[c1]. Toward each destination it may then request each channel
  // out of v that v offers in that phase. Only destinations for which c1 is
  // actually usable matter: a hop into v is usable toward dest when the
  // routing offers c1 from u (in phase kUp, or kDown when c1 arrives
  // descending). Checking the offer keeps the CDG tight (Duato's "routing
  // subfunction"). Per destination every state's offers are derived once
  // and shared by all channels, and a state is queried only when a channel
  // needs it, so the routing sees no query a per-channel walk would not
  // make. Blocks of destinations run in parallel, each into its own
  // successor bits; ORing them is independent of the block count.
  constexpr std::size_t kDestinationsPerBlock = 32;
  const std::size_t n = g.switch_count();
  const std::size_t blocks = (n + kDestinationsPerBlock - 1) / kDestinationsPerBlock;
  std::vector<std::vector<std::uint64_t>> block_successors(blocks);
  ParallelFor(blocks, [&](std::size_t block) {
    std::vector<std::uint64_t> successors(words, 0);
    DestinationOffers offers(routing);
    const std::size_t end = std::min(n, (block + 1) * kDestinationsPerBlock);
    for (SwitchId dest = block * kDestinationsPerBlock; dest < end; ++dest) {
      offers.Reset(dest);
      for (SwitchId u = 0; u < n; ++u) {
        if (u == dest) continue;  // nothing is offered at the destination
        for (LinkId l : g.incident_links(u)) {
          const SwitchId v = g.OtherEnd(l, u);
          if (v == dest) continue;  // the message leaves the network at v
          const std::size_t c1 = ChannelIndex(g, l, u);
          const bool offered =
              offers.Offers(u, Phase::kUp, c1) ||
              (arrival[c1] == Phase::kDown && offers.Offers(u, Phase::kDown, c1));
          if (!offered) continue;
          const auto [first, last] = offers.At(v, arrival[c1]);
          for (std::size_t k = first; k < last; ++k) {
            const std::size_t bit = bit_base[c1] + tail_port[offers.channels()[k]];
            successors[bit / 64] |= std::uint64_t{1} << (bit % 64);
          }
        }
      }
    }
    block_successors[block] = std::move(successors);
  });
  std::vector<std::uint64_t> successors(words, 0);
  for (const auto& block : block_successors) {
    for (std::size_t w = 0; w < words; ++w) successors[w] |= block[w];
  }

  std::vector<std::vector<std::size_t>> adjacency(channel_count);
  for (std::size_t c1 = 0; c1 < channel_count; ++c1) {
    const SwitchId v = c1 % 2 == 0 ? g.link(c1 / 2).b : g.link(c1 / 2).a;
    const auto& ports = g.incident_links(v);
    for (std::size_t p = 0; p < ports.size(); ++p) {
      const std::size_t bit = bit_base[c1] + p;
      if ((successors[bit / 64] >> (bit % 64)) & 1) {
        adjacency[c1].push_back(ChannelIndex(g, ports[p], v));
      }
    }
    std::sort(adjacency[c1].begin(), adjacency[c1].end());
  }
  return adjacency;
}

namespace {

// Iterative DFS cycle detection with colors; returns a cycle if found.
std::vector<std::size_t> FindCycle(const std::vector<std::vector<std::size_t>>& adjacency) {
  enum class Color : char { kWhite, kGray, kBlack };
  const std::size_t n = adjacency.size();
  std::vector<Color> color(n, Color::kWhite);
  std::vector<std::size_t> parent(n, static_cast<std::size_t>(-1));

  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != Color::kWhite) continue;
    // Explicit stack of (node, next-child-index).
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
          // Found a back edge u -> v: reconstruct the cycle v ... u.
          std::vector<std::size_t> cycle{v};
          for (std::size_t w = u; w != v; w = parent[w]) {
            cycle.push_back(w);
          }
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

}  // namespace

std::vector<std::size_t> FindDependencyCycle(const Routing& routing) {
  return FindCycle(BuildChannelDependencyGraph(routing));
}

bool IsDeadlockFree(const Routing& routing) {
  return FindDependencyCycle(routing).empty();
}

}  // namespace commsched::route
