#include "topology/generator.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "obs/span.h"

namespace commsched::topo {

namespace {

/// One attempt: random degree-capped spanning tree, then pair free ports of
/// non-adjacent switches until every switch reaches the target degree.
std::optional<SwitchGraph> TryGenerate(const IrregularTopologyOptions& options, Rng& rng) {
  const std::size_t n = options.switch_count;
  const std::size_t target = options.interswitch_degree;

  SwitchGraph graph = GenerateRandomTree(n, options.hosts_per_switch, target, rng);

  // Pair up free ports. When n * target is odd one switch must stay exactly
  // one link short; otherwise every switch must reach the target degree.
  const bool odd_ports = (n * target) % 2 == 1;
  std::vector<SwitchId> open;
  std::vector<std::size_t> row_pairs;
  for (;;) {
    open.clear();
    std::size_t deficit = 0;
    for (SwitchId s = 0; s < n; ++s) {
      if (graph.Degree(s) < target) {
        open.push_back(s);
        deficit += target - graph.Degree(s);
      }
    }
    if (open.empty()) {
      return graph;
    }
    if (deficit == 1) {
      // Exactly one port left open: acceptable only for odd parity.
      if (odd_ports) return graph;
      return std::nullopt;  // parity says this cannot happen; defensive
    }
    if (open.size() == 1) {
      return std::nullopt;  // one switch still needs >= 2 links: stuck
    }
    // The candidate pairs are the non-adjacent (open[i], open[j]) with
    // i < j, listed row by row. Count each row instead of listing it: row i
    // holds the open switches after open[i] less its open neighbours after
    // it (open is sorted by id, so those are the open neighbours w >
    // open[i]). Then walk to the drawn index. One draw over the same count
    // picks the same pair as indexing the list, at O(open * degree) a link
    // instead of O(open^2).
    row_pairs.assign(open.size(), 0);
    std::size_t total = 0;
    for (std::size_t i = 0; i < open.size(); ++i) {
      std::size_t adjacent_after = 0;
      for (LinkId l : graph.incident_links(open[i])) {
        const SwitchId w = graph.OtherEnd(l, open[i]);
        if (w > open[i] && graph.Degree(w) < target) ++adjacent_after;
      }
      row_pairs[i] = open.size() - i - 1 - adjacent_after;
      total += row_pairs[i];
    }
    if (total == 0) {
      return std::nullopt;  // stuck: remaining open switches pairwise adjacent
    }
    auto pick = static_cast<std::size_t>(rng.NextIndex(total));
    std::size_t i = 0;
    for (; pick >= row_pairs[i]; ++i) pick -= row_pairs[i];
    std::size_t j = i + 1;
    for (;; ++j) {
      if (graph.HasLink(open[i], open[j])) continue;
      if (pick == 0) break;
      --pick;
    }
    graph.AddLink(open[i], open[j]);
  }
}

}  // namespace

SwitchGraph GenerateRandomTree(std::size_t switch_count, std::size_t hosts_per_switch,
                               std::size_t max_degree, Rng& rng) {
  CS_CHECK(switch_count >= 1, "need at least one switch");
  if (switch_count > 1) {
    CS_CHECK(max_degree >= 2 || switch_count == 2,
             "degree cap must be >= 2 to build a tree over more than 2 switches");
  }
  SwitchGraph graph(switch_count, hosts_per_switch);
  // Random insertion order; attach each new switch to a random switch that
  // still has a free port. With max_degree >= 2 a chain always fits, so this
  // cannot get stuck.
  std::vector<std::size_t> order = RandomPermutation(switch_count, rng);
  std::vector<SwitchId> attached{static_cast<SwitchId>(order[0])};
  for (std::size_t i = 1; i < order.size(); ++i) {
    std::vector<SwitchId> hosts_with_port;
    for (SwitchId s : attached) {
      if (graph.Degree(s) < max_degree) hosts_with_port.push_back(s);
    }
    CS_CHECK(!hosts_with_port.empty(), "tree generation stuck; degree cap too tight");
    const SwitchId parent = hosts_with_port[static_cast<std::size_t>(
        rng.NextIndex(hosts_with_port.size()))];
    graph.AddLink(parent, order[i]);
    attached.push_back(order[i]);
  }
  return graph;
}

SwitchGraph GenerateIrregularTopology(const IrregularTopologyOptions& options) {
  const std::size_t n = options.switch_count;
  if (n == 0) {
    throw ConfigError("switch_count must be positive");
  }
  if (n > 1 && options.interswitch_degree >= n) {
    throw ConfigError("interswitch_degree must be < switch_count for a simple graph");
  }
  if (n > 1 && options.interswitch_degree < 1) {
    throw ConfigError("interswitch_degree must be >= 1 to connect the network");
  }
  if (n > 2 && options.interswitch_degree < 2) {
    throw ConfigError("interswitch_degree must be >= 2 to connect more than two switches");
  }
  if (n == 1) {
    return SwitchGraph(1, options.hosts_per_switch);
  }

  obs::Span span("topo.generate", "switches", n);
  Rng rng(options.seed);
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    Rng attempt_rng = rng.Split();
    if (auto graph = TryGenerate(options, attempt_rng)) {
      CS_CHECK(graph->IsConnected(), "generated topology must be connected");
      return std::move(*graph);
    }
  }
  throw ConfigError("could not generate a topology with the requested parameters (" +
                    std::to_string(n) + " switches, degree " +
                    std::to_string(options.interswitch_degree) + ")");
}

}  // namespace commsched::topo
