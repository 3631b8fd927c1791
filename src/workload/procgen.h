// Seeded synthetic process communication graphs (DESIGN.md §13).
//
// The multilevel pipeline consumes sparse CommGraphs, but the paper's
// workloads are tiny dense cliques; these generators produce the large
// sparse patterns real codes exhibit — rings, 2-D halo-exchange stencils,
// random near-regular graphs — at 10^4–10^6 processes, deterministically
// from a seed, for the scale benches and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quality/comm_graph.h"

namespace commsched::work {

/// Ring of `processes` vertices (each talks to its two neighbours).
[[nodiscard]] qual::CommGraph MakeRingComm(std::size_t processes, double weight = 1.0);

/// 2-D halo-exchange stencil: processes arranged rows x cols (rows = the
/// largest divisor of `processes` not exceeding sqrt; a prime count
/// degenerates to a path), 4-neighbour edges of unit weight.
[[nodiscard]] qual::CommGraph MakeGridComm(std::size_t processes);

/// Random near-regular graph: processes * avg_degree / 2 edges drawn
/// uniformly (parallel draws merge by weight); deterministic in `seed`.
[[nodiscard]] qual::CommGraph MakeRandomComm(std::size_t processes, std::size_t avg_degree,
                                             std::uint64_t seed);

/// Dispatch by name: "ring" | "grid" | "random" (avg degree 4, seeded).
/// Throws ConfigError on unknown patterns or processes == 0.
[[nodiscard]] qual::CommGraph MakePatternComm(const std::string& pattern, std::size_t processes,
                                              std::uint64_t seed);

}  // namespace commsched::work
