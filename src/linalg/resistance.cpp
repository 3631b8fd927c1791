#include "linalg/resistance.h"

#include <vector>

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

Matrix ResistorNetwork::Laplacian() const {
  Matrix l(node_count_, node_count_);
  for (const Resistor& r : resistors_) {
    const double g = 1.0 / r.resistance;
    l(r.a, r.a) += g;
    l(r.b, r.b) += g;
    l(r.a, r.b) -= g;
    l(r.b, r.a) -= g;
  }
  return l;
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
  // L' assembled straight from the resistors, each entry summed in resistor
  // order exactly as Laplacian() sums it.
  const auto assemble = [&] {
    Matrix lk(m, m);
    for (const Resistor& r : resistors_) {
      const double g = 1.0 / r.resistance;
      const std::size_t ra = row[r.a];
      const std::size_t rb = row[r.b];
      if (ra != kDropped) lk(ra, ra) += g;
      if (rb != kDropped) lk(rb, rb) += g;
      if (ra != kDropped && rb != kDropped) {
        lk(ra, rb) -= g;
        lk(rb, ra) -= g;
      }
    }
    return lk;
  };
  std::vector<double> v(m, 0.0);
  v[row[s]] = 1.0;
  Matrix lk = assemble();
  if (CholeskyFactorInPlace(lk.data(), m)) {
    CholeskySolveInPlace(lk.data(), m, v.data());
  } else {
    v = SolveLinearSystem(assemble(), v);  // fallback (shouldn't happen for SPD)
  }
  // v[s] is the potential at s with 1 A injected at s and extracted at the
  // grounded t, i.e. the effective resistance.
  return v[row[s]];
}

Matrix AllPairsEffectiveResistance(const ResistorNetwork& network) {
  const std::size_t n = network.node_count();
  Matrix result(n, n);
  if (n == 1) return result;
  for (std::size_t u = 1; u < n; ++u) {
    CS_CHECK(network.Connected(0, u), "AllPairsEffectiveResistance requires a connected network");
  }
  // Ground node 0; invert the reduced Laplacian by solving n-1 systems with
  // one Cholesky factorization.
  const Matrix l = network.Laplacian();
  Matrix lg(n - 1, n - 1);
  for (std::size_t r = 1; r < n; ++r) {
    for (std::size_t c = 1; c < n; ++c) {
      lg(r - 1, c - 1) = l(r, c);
    }
  }
  auto chol = CholeskyFactorization::Compute(lg);
  CS_CHECK(chol.has_value(), "grounded Laplacian must be SPD for a connected network");
  Matrix m(n, n);  // M = L^+-like matrix with ground row/col zero
  for (std::size_t c = 1; c < n; ++c) {
    std::vector<double> e(n - 1, 0.0);
    e[c - 1] = 1.0;
    const std::vector<double> col = chol->Solve(e);
    for (std::size_t r = 1; r < n; ++r) {
      m(r, c) = col[r - 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result(i, j) = m(i, i) + m(j, j) - m(i, j) - m(j, i);
    }
  }
  return result;
}

}  // namespace commsched::linalg
