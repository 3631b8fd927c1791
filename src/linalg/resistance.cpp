#include "linalg/resistance.h"

#include <vector>

#include "common/check.h"
#include "linalg/solve.h"

namespace commsched::linalg {

ResistorNetwork::ResistorNetwork(std::size_t node_count) : node_count_(node_count) {
  CS_CHECK(node_count >= 1, "resistor network needs at least one node");
}

void ResistorNetwork::Add(std::size_t a, std::size_t b, double resistance) {
  CS_CHECK(a < node_count_ && b < node_count_, "resistor endpoint out of range");
  CS_CHECK(a != b, "self-loop resistor is meaningless");
  CS_CHECK(resistance > 0.0, "resistance must be positive");
  resistors_.push_back({a, b, resistance});
}

std::vector<bool> ResistorNetwork::ReachableFrom(std::size_t s) const {
  std::vector<std::vector<std::size_t>> adj(node_count_);
  for (const Resistor& r : resistors_) {
    adj[r.a].push_back(r.b);
    adj[r.b].push_back(r.a);
  }
  std::vector<bool> reach(node_count_, false);
  std::vector<std::size_t> stack{s};
  reach[s] = true;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t v : adj[u]) {
      if (!reach[v]) {
        reach[v] = true;
        stack.push_back(v);
      }
    }
  }
  return reach;
}

bool ResistorNetwork::Connected(std::size_t s, std::size_t t) const {
  CS_CHECK(s < node_count_ && t < node_count_, "node out of range");
  return s == t || ReachableFrom(s)[t];
}

double ResistorNetwork::EffectiveResistance(std::size_t s, std::size_t t) const {
  CS_CHECK(s < node_count_ && t < node_count_, "terminal out of range");
  if (s == t) return 0.0;
  const std::vector<bool> reach = ReachableFrom(s);
  CS_CHECK(reach[t], "terminals are not connected; resistance is infinite");

  // Ground node t: delete its row/column from L and solve L' v = e_s. The
  // grounded Laplacian is SPD only over the component of s and t (other
  // nodes would leave zero rows), so keep just the nodes reachable from s,
  // in ascending order.
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> row(node_count_, kDropped);
  std::size_t m = 0;
  for (std::size_t u = 0; u < node_count_; ++u) {
    if (u != t && reach[u]) row[u] = m++;
  }
  // L' assembled straight from the resistors into a flat row-major buffer,
  // the same layout DistanceTable::Build factors.
  std::vector<double> lk(m * m, 0.0);
  for (const Resistor& r : resistors_) {
    const double g = 1.0 / r.resistance;
    const std::size_t ra = row[r.a];
    const std::size_t rb = row[r.b];
    if (ra != kDropped) lk[ra * m + ra] += g;
    if (rb != kDropped) lk[rb * m + rb] += g;
    if (ra != kDropped && rb != kDropped) {
      lk[ra * m + rb] -= g;
      lk[rb * m + ra] -= g;
    }
  }
  std::vector<double> v(m, 0.0);
  v[row[s]] = 1.0;
  CS_CHECK(CholeskyFactorInPlace(lk.data(), m), "grounded Laplacian must be positive definite");
  CholeskySolveInPlace(lk.data(), m, v.data());
  // v[s] is the potential at s with 1 A injected at s and extracted at the
  // grounded t, i.e. the effective resistance.
  return v[row[s]];
}

}  // namespace commsched::linalg
