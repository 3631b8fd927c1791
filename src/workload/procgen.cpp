#include "workload/procgen.h"

#include <cmath>

#include "common/rng.h"

namespace commsched::work {

qual::CommGraph MakeRingComm(std::size_t processes, double weight) {
  if (processes == 0) throw ConfigError("process count must be >= 1");
  std::vector<qual::CommEdge> edges;
  edges.reserve(processes);
  for (std::size_t i = 0; i + 1 < processes; ++i) {
    edges.push_back({i, i + 1, weight});
  }
  if (processes > 2) edges.push_back({0, processes - 1, weight});
  return qual::CommGraph::FromEdges(processes, std::move(edges));
}

qual::CommGraph MakeGridComm(std::size_t processes) {
  if (processes == 0) throw ConfigError("process count must be >= 1");
  std::size_t rows = static_cast<std::size_t>(std::sqrt(static_cast<double>(processes)));
  while (rows > 1 && processes % rows != 0) --rows;
  if (rows == 0) rows = 1;
  const std::size_t cols = processes / rows;
  std::vector<qual::CommEdge> edges;
  edges.reserve(2 * processes);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t v = r * cols + c;
      if (c + 1 < cols) edges.push_back({v, v + 1, 1.0});
      if (r + 1 < rows) edges.push_back({v, v + cols, 1.0});
    }
  }
  return qual::CommGraph::FromEdges(processes, std::move(edges));
}

qual::CommGraph MakeRandomComm(std::size_t processes, std::size_t avg_degree,
                               std::uint64_t seed) {
  if (processes == 0) throw ConfigError("process count must be >= 1");
  std::vector<qual::CommEdge> edges;
  if (processes >= 2) {
    const std::size_t target = processes * avg_degree / 2;
    edges.reserve(target);
    Rng rng(seed);
    for (std::size_t i = 0; i < target; ++i) {
      const std::size_t u = rng.NextIndex(processes);
      const std::size_t v = rng.NextIndex(processes);
      if (u == v) continue;
      edges.push_back({u, v, 1.0});
    }
  }
  return qual::CommGraph::FromEdges(processes, std::move(edges));
}

qual::CommGraph MakePatternComm(const std::string& pattern, std::size_t processes,
                                std::uint64_t seed) {
  if (processes == 0) throw ConfigError("process count must be >= 1");
  if (pattern == "ring") return MakeRingComm(processes);
  if (pattern == "grid") return MakeGridComm(processes);
  if (pattern == "random") return MakeRandomComm(processes, 4, seed);
  throw ConfigError("unknown comm pattern '" + pattern + "' (ring|grid|random)");
}

}  // namespace commsched::work
