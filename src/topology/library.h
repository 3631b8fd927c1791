// Named topologies: regular families (the technique "is applicable to both
// regular and irregular topologies", §2) plus the specially designed
// 24-switch network of §5.2 — four interconnected rings of six switches.
#pragma once

#include <limits>
#include <string_view>

#include "common/rng.h"
#include "topology/graph.h"

namespace commsched::topo {

/// Input-boundary check for a builder dimension taken from a CLI flag or a
/// service request: throws ConfigError naming `field` (e.g. "mesh rows must
/// be >= 1, got 0") for a value the Make* builders below would reject with
/// a contract violation.
void RequireDimension(std::string_view field, std::size_t value, std::size_t min,
                      std::size_t max = std::numeric_limits<std::size_t>::max());

/// Cycle of n switches (n >= 3).
[[nodiscard]] SwitchGraph MakeRing(std::size_t n, std::size_t hosts_per_switch = 4);

/// rows x cols mesh (no wraparound).
[[nodiscard]] SwitchGraph MakeMesh2D(std::size_t rows, std::size_t cols,
                                     std::size_t hosts_per_switch = 4);

/// rows x cols torus (wraparound both dimensions; rows, cols >= 3 to keep
/// the graph simple).
[[nodiscard]] SwitchGraph MakeTorus2D(std::size_t rows, std::size_t cols,
                                      std::size_t hosts_per_switch = 4);

/// dim-dimensional hypercube (2^dim switches).
[[nodiscard]] SwitchGraph MakeHypercube(std::size_t dim, std::size_t hosts_per_switch = 4);

/// x * y * z torus (wraparound in all three dimensions; every dim >= 3 to
/// keep the graph simple). 10x10x10 gives the 1k-switch fabric of the
/// multilevel scale bench.
[[nodiscard]] SwitchGraph MakeTorus3D(std::size_t x, std::size_t y, std::size_t z,
                                      std::size_t hosts_per_switch = 4);

/// k-ary fat-tree-like fabric (k even): k pods of k/2 edge + k/2 aggregation
/// switches, (k/2)^2 core switches — 5k^2/4 switches total. Edge switch e of
/// a pod links to all k/2 aggregations of its pod; aggregation j of every
/// pod links to cores [j*k/2, (j+1)*k/2). Unlike a real fat-tree, hosts
/// attach uniformly to every switch (the SwitchGraph model), so treat it as
/// a fat-tree-*like* hierarchical fabric. Switch order: pod 0 edges, pod 0
/// aggregations, pod 1 edges, ..., then cores.
[[nodiscard]] SwitchGraph MakeFatTree(std::size_t k, std::size_t hosts_per_switch = 4);

/// Star: switch 0 is the hub.
[[nodiscard]] SwitchGraph MakeStar(std::size_t leaves, std::size_t hosts_per_switch = 4);

/// Fully connected graph on n switches.
[[nodiscard]] SwitchGraph MakeComplete(std::size_t n, std::size_t hosts_per_switch = 4);

/// The paper's specially designed 24-switch network (§5.2, Fig. 4): four
/// rings of six switches, consecutive rings joined by a single link, rings
/// forming a cycle. Ring r owns switches [6r, 6r+5].
[[nodiscard]] SwitchGraph MakeFourRingsOfSix(std::size_t hosts_per_switch = 4);

/// Generalization: `ring_count` rings of `ring_size` switches; consecutive
/// rings joined by `bridges_per_pair` links spread around each ring.
[[nodiscard]] SwitchGraph MakeRingsOfRings(std::size_t ring_count, std::size_t ring_size,
                                           std::size_t bridges_per_pair = 1,
                                           std::size_t hosts_per_switch = 4);

/// A designed 16-switch network with heterogeneous region density: group 0
/// (switches 0-3) is a complete K4 — high internal bandwidth, short
/// equivalent distances; groups 1-3 (switches 4k..4k+3) are sparse paths;
/// consecutive groups are joined by one link (groups form a ring). Used to
/// study placements when some network regions are genuinely better than
/// others (the weighted-requirements extension).
[[nodiscard]] SwitchGraph MakeMixedDensity16(std::size_t hosts_per_switch = 4);

/// Clustered random topology: `cluster_count` groups of `cluster_size`
/// switches, dense random links inside each group (each switch gets
/// `intra_degree` intra-group links where feasible) and exactly
/// `inter_links` random links between consecutive groups. Produces networks
/// with "well defined clusters" of tunable sharpness.
[[nodiscard]] SwitchGraph MakeClusteredRandom(std::size_t cluster_count, std::size_t cluster_size,
                                              std::size_t intra_degree, std::size_t inter_links,
                                              Rng& rng, std::size_t hosts_per_switch = 4);

}  // namespace commsched::topo
