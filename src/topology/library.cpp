#include "topology/library.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"

namespace commsched::topo {

void RequireDimension(std::string_view field, std::size_t value, std::size_t min,
                      std::size_t max) {
  if (value >= min && value <= max) return;
  const std::string bound = max == std::numeric_limits<std::size_t>::max()
                                ? ">= " + std::to_string(min)
                                : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  throw ConfigError(std::string(field) + " must be " + bound + ", got " + std::to_string(value));
}

SwitchGraph MakeRing(std::size_t n, std::size_t hosts_per_switch) {
  CS_CHECK(n >= 3, "ring needs at least 3 switches");
  SwitchGraph g(n, hosts_per_switch);
  for (std::size_t i = 0; i < n; ++i) {
    g.AddLink(i, (i + 1) % n);
  }
  return g;
}

SwitchGraph MakeMesh2D(std::size_t rows, std::size_t cols, std::size_t hosts_per_switch) {
  CS_CHECK(rows >= 1 && cols >= 1, "mesh needs positive dimensions");
  SwitchGraph g(rows * cols, hosts_per_switch);
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddLink(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.AddLink(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

SwitchGraph MakeTorus2D(std::size_t rows, std::size_t cols, std::size_t hosts_per_switch) {
  CS_CHECK(rows >= 3 && cols >= 3, "torus needs dimensions >= 3 to stay a simple graph");
  SwitchGraph g(rows * cols, hosts_per_switch);
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      g.AddLink(id(r, c), id(r, (c + 1) % cols));
      g.AddLink(id(r, c), id((r + 1) % rows, c));
    }
  }
  return g;
}

SwitchGraph MakeHypercube(std::size_t dim, std::size_t hosts_per_switch) {
  CS_CHECK(dim >= 1 && dim <= 20, "hypercube dimension out of range");
  const std::size_t n = std::size_t{1} << dim;
  SwitchGraph g(n, hosts_per_switch);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t b = 0; b < dim; ++b) {
      const std::size_t v = u ^ (std::size_t{1} << b);
      if (u < v) g.AddLink(u, v);
    }
  }
  return g;
}

SwitchGraph MakeTorus3D(std::size_t x, std::size_t y, std::size_t z,
                        std::size_t hosts_per_switch) {
  CS_CHECK(x >= 3 && y >= 3 && z >= 3, "3-D torus needs dimensions >= 3 to stay a simple graph");
  SwitchGraph g(x * y * z, hosts_per_switch);
  auto id = [y, z](std::size_t i, std::size_t j, std::size_t k) { return (i * y + j) * z + k; };
  for (std::size_t i = 0; i < x; ++i) {
    for (std::size_t j = 0; j < y; ++j) {
      for (std::size_t k = 0; k < z; ++k) {
        g.AddLink(id(i, j, k), id((i + 1) % x, j, k));
        g.AddLink(id(i, j, k), id(i, (j + 1) % y, k));
        g.AddLink(id(i, j, k), id(i, j, (k + 1) % z));
      }
    }
  }
  return g;
}

SwitchGraph MakeFatTree(std::size_t k, std::size_t hosts_per_switch) {
  CS_CHECK(k >= 2 && k % 2 == 0, "fat-tree arity must be even and >= 2");
  const std::size_t half = k / 2;
  const std::size_t pod_switches = k;        // k/2 edge + k/2 aggregation
  const std::size_t core_base = k * pod_switches;
  SwitchGraph g(core_base + half * half, hosts_per_switch);
  for (std::size_t pod = 0; pod < k; ++pod) {
    const std::size_t edge_base = pod * pod_switches;
    const std::size_t agg_base = edge_base + half;
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        g.AddLink(edge_base + e, agg_base + a);
      }
    }
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        g.AddLink(agg_base + a, core_base + a * half + c);
      }
    }
  }
  return g;
}

SwitchGraph MakeStar(std::size_t leaves, std::size_t hosts_per_switch) {
  CS_CHECK(leaves >= 1, "star needs at least one leaf");
  SwitchGraph g(leaves + 1, hosts_per_switch);
  for (std::size_t i = 1; i <= leaves; ++i) {
    g.AddLink(0, i);
  }
  return g;
}

SwitchGraph MakeComplete(std::size_t n, std::size_t hosts_per_switch) {
  CS_CHECK(n >= 2, "complete graph needs at least 2 switches");
  SwitchGraph g(n, hosts_per_switch);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      g.AddLink(i, j);
    }
  }
  return g;
}

SwitchGraph MakeFourRingsOfSix(std::size_t hosts_per_switch) {
  return MakeRingsOfRings(4, 6, 1, hosts_per_switch);
}

SwitchGraph MakeRingsOfRings(std::size_t ring_count, std::size_t ring_size,
                             std::size_t bridges_per_pair, std::size_t hosts_per_switch) {
  CS_CHECK(ring_count >= 2, "need at least two rings");
  CS_CHECK(ring_size >= 3, "each ring needs at least 3 switches");
  CS_CHECK(bridges_per_pair >= 1 && bridges_per_pair <= ring_size,
           "bridges_per_pair out of range");
  SwitchGraph g(ring_count * ring_size, hosts_per_switch);
  auto id = [ring_size](std::size_t ring, std::size_t pos) { return ring * ring_size + pos; };
  for (std::size_t r = 0; r < ring_count; ++r) {
    for (std::size_t p = 0; p < ring_size; ++p) {
      g.AddLink(id(r, p), id(r, (p + 1) % ring_size));
    }
  }
  // Bridge consecutive rings (rings form a cycle). Bridge endpoints are
  // spread around the ring so no switch exceeds 4 inter-switch links.
  for (std::size_t r = 0; r < ring_count; ++r) {
    const std::size_t next = (r + 1) % ring_count;
    if (ring_count == 2 && r == 1) break;  // avoid doubling the single pair
    for (std::size_t b = 0; b < bridges_per_pair; ++b) {
      const std::size_t pos = (b * ring_size) / bridges_per_pair;
      // Offset the far endpoint so bridges from both sides of a ring do not
      // land on the same switch.
      const std::size_t far = (pos + ring_size / 2) % ring_size;
      g.AddLink(id(r, pos), id(next, far));
    }
  }
  return g;
}

SwitchGraph MakeMixedDensity16(std::size_t hosts_per_switch) {
  SwitchGraph g(16, hosts_per_switch);
  // Group 0: complete K4 over switches 0..3.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      g.AddLink(i, j);
    }
  }
  // Groups 1..3: paths 4k .. 4k+3.
  for (std::size_t group = 1; group < 4; ++group) {
    for (std::size_t p = 0; p < 3; ++p) {
      g.AddLink(4 * group + p, 4 * group + p + 1);
    }
  }
  // One link between consecutive groups (ring of groups); endpoints chosen
  // to keep every switch within the 4 inter-switch ports of an 8-port
  // switch (K4 members have degree 3 internally).
  g.AddLink(3, 4);
  g.AddLink(7, 8);
  g.AddLink(11, 12);
  g.AddLink(15, 0);
  return g;
}

SwitchGraph MakeClusteredRandom(std::size_t cluster_count, std::size_t cluster_size,
                                std::size_t intra_degree, std::size_t inter_links, Rng& rng,
                                std::size_t hosts_per_switch) {
  CS_CHECK(cluster_count >= 2, "need at least two clusters");
  CS_CHECK(cluster_size >= 3, "clusters need at least 3 switches");
  CS_CHECK(intra_degree >= 2 && intra_degree < cluster_size, "infeasible intra_degree");
  CS_CHECK(inter_links >= 1, "clusters must be connected");
  const std::size_t n = cluster_count * cluster_size;
  SwitchGraph g(n, hosts_per_switch);
  auto id = [cluster_size](std::size_t cluster, std::size_t pos) {
    return cluster * cluster_size + pos;
  };

  // Inside each cluster: ring skeleton (connectivity), then random chords up
  // to intra_degree. Getting stuck is fine: we simply stop adding chords.
  for (std::size_t c = 0; c < cluster_count; ++c) {
    for (std::size_t p = 0; p < cluster_size; ++p) {
      g.AddLink(id(c, p), id(c, (p + 1) % cluster_size));
    }
    for (std::size_t tries = 0; tries < cluster_size * cluster_size; ++tries) {
      std::vector<std::size_t> open;
      for (std::size_t p = 0; p < cluster_size; ++p) {
        if (g.Degree(id(c, p)) < intra_degree) open.push_back(p);
      }
      if (open.size() < 2) break;
      const std::size_t a = rng.Pick(open);
      const std::size_t b = rng.Pick(open);
      if (a == b || g.HasLink(id(c, a), id(c, b))) continue;
      g.AddLink(id(c, a), id(c, b));
    }
  }
  // Between consecutive clusters (cycle): `inter_links` random links.
  for (std::size_t c = 0; c < cluster_count; ++c) {
    const std::size_t next = (c + 1) % cluster_count;
    if (cluster_count == 2 && c == 1) break;
    std::size_t added = 0;
    std::size_t guard = 0;
    while (added < inter_links && guard++ < 1000) {
      const std::size_t a = static_cast<std::size_t>(rng.NextIndex(cluster_size));
      const std::size_t b = static_cast<std::size_t>(rng.NextIndex(cluster_size));
      if (g.HasLink(id(c, a), id(next, b))) continue;
      g.AddLink(id(c, a), id(next, b));
      ++added;
    }
    CS_CHECK(added >= 1, "failed to connect consecutive clusters");
  }
  return g;
}

}  // namespace commsched::topo
