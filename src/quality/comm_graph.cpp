#include "quality/comm_graph.h"

#include <algorithm>

namespace commsched::qual {

CommGraph CommGraph::FromEdges(std::size_t vertex_count, std::vector<CommEdge> edges) {
  return FromEdges(vertex_count, std::move(edges),
                   std::vector<std::size_t>(vertex_count, 1));
}

CommGraph CommGraph::FromEdges(std::size_t vertex_count, std::vector<CommEdge> edges,
                               std::vector<std::size_t> vertex_sizes) {
  if (vertex_count == 0) throw ConfigError("comm graph needs at least one vertex");
  if (vertex_sizes.size() != vertex_count) {
    throw ConfigError("vertex size list length does not match vertex count");
  }
  for (CommEdge& e : edges) {
    if (e.u >= vertex_count || e.v >= vertex_count) {
      throw ConfigError("comm edge endpoint out of range");
    }
    if (e.u == e.v) throw ConfigError("comm graph does not allow self-loops");
    if (!(e.weight > 0.0)) throw ConfigError("comm edge weight must be positive");
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const CommEdge& a, const CommEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  // Merge parallel edges by summing weights.
  std::vector<CommEdge> merged;
  merged.reserve(edges.size());
  for (const CommEdge& e : edges) {
    if (!merged.empty() && merged.back().u == e.u && merged.back().v == e.v) {
      merged.back().weight += e.weight;
    } else {
      merged.push_back(e);
    }
  }

  CommGraph graph;
  graph.edges_ = std::move(merged);
  graph.sizes_ = std::move(vertex_sizes);
  graph.total_size_ = 0;
  for (std::size_t size : graph.sizes_) {
    if (size == 0) throw ConfigError("vertex size must be >= 1");
    graph.total_size_ += size;
  }
  graph.total_weight_ = 0.0;
  graph.offsets_.assign(vertex_count + 1, 0);
  for (const CommEdge& e : graph.edges_) {
    graph.total_weight_ += e.weight;
    ++graph.offsets_[e.u + 1];
    ++graph.offsets_[e.v + 1];
  }
  for (std::size_t v = 0; v < vertex_count; ++v) {
    graph.offsets_[v + 1] += graph.offsets_[v];
  }
  graph.neighbors_.resize(2 * graph.edges_.size());
  std::vector<std::size_t> cursor(graph.offsets_.begin(), graph.offsets_.end() - 1);
  for (const CommEdge& e : graph.edges_) {
    graph.neighbors_[cursor[e.u]++] = {e.v, e.weight};
    graph.neighbors_[cursor[e.v]++] = {e.u, e.weight};
  }
  return graph;
}

CommGraph CommGraph::CliqueGroups(const std::vector<std::size_t>& group_of_vertex,
                                  double weight) {
  const std::size_t n = group_of_vertex.size();
  std::vector<CommEdge> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (group_of_vertex[u] == group_of_vertex[v]) edges.push_back({u, v, weight});
    }
  }
  return FromEdges(n, std::move(edges));
}

}  // namespace commsched::qual
