#include "distance/distance_table.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel.h"
#include "linalg/solve.h"
#include "obs/span.h"

namespace commsched::dist {

DistanceTable::DistanceTable(std::size_t n, double fill) : n_(n), values_(n * n, fill) {
  for (std::size_t i = 0; i < n; ++i) {
    values_[i * n + i] = 0.0;
  }
}

void DistanceTable::Set(std::size_t i, std::size_t j, double value) {
  CS_CHECK(i < n_ && j < n_, "distance index out of range");
  CS_CHECK(i != j || value == 0.0, "diagonal must stay zero");
  CS_CHECK(value >= 0.0, "distances are non-negative");
  values_[i * n_ + j] = value;
  values_[j * n_ + i] = value;
}

namespace {

/// Scratch for the pair solves of one table row, reused from pair to pair so
/// that a pair allocates nothing beyond its link list.
struct PairWorkspace {
  explicit PairWorkspace(std::size_t switches) : row(switches) {}

  std::vector<std::size_t> row;  // switch -> grounded row, valid for the pair's nodes
  std::vector<SwitchId> nodes;   // the pair's switches, ascending
  std::vector<double> matrix;    // grounded Laplacian, row-major; then its factor
  std::vector<double> rhs;       // e_i; then the node potentials
};

/// Equivalent distance for one pair: restrict to links on minimal permitted
/// paths, 1 Ω each, effective resistance between the endpoints. The system
/// holds only the switches those links touch, ascending by id with the
/// grounded j removed. That is the full-size network's reach-filtered
/// grounded Laplacian entry for entry (every link lies on an i-j path, so
/// every switch it touches is reached), and the same Cholesky loops solve
/// it, so the result is bit-identical, at a few nodes' cost.
double PairEquivalentDistance(const Routing& routing, SwitchId i, SwitchId j,
                              PairWorkspace& ws) {
  const auto links = routing.LinksOnMinimalPaths(i, j);
  CS_CHECK(!links.empty(), "connected pair must have at least one path link");
  const topo::SwitchGraph& graph = routing.graph();
  ws.nodes.clear();
  for (topo::LinkId l : links) {
    ws.nodes.push_back(graph.link(l).a);
    ws.nodes.push_back(graph.link(l).b);
  }
  std::sort(ws.nodes.begin(), ws.nodes.end());
  ws.nodes.erase(std::unique(ws.nodes.begin(), ws.nodes.end()), ws.nodes.end());
  std::size_t m = 0;
  for (SwitchId u : ws.nodes) {
    if (u != j) ws.row[u] = m++;
  }
  ws.matrix.assign(m * m, 0.0);
  for (topo::LinkId l : links) {
    const topo::Link& link = graph.link(l);
    const std::size_t ra = ws.row[link.a];
    const std::size_t rb = ws.row[link.b];
    if (link.a != j) ws.matrix[ra * m + ra] += 1.0;
    if (link.b != j) ws.matrix[rb * m + rb] += 1.0;
    if (link.a != j && link.b != j) {
      ws.matrix[ra * m + rb] -= 1.0;
      ws.matrix[rb * m + ra] -= 1.0;
    }
  }
  ws.rhs.assign(m, 0.0);
  ws.rhs[ws.row[i]] = 1.0;
  CS_CHECK(linalg::CholeskyFactorInPlace(ws.matrix.data(), m),
           "grounded pair Laplacian must be positive definite");
  linalg::CholeskySolveInPlace(ws.matrix.data(), m, ws.rhs.data());
  return ws.rhs[ws.row[i]];
}

}  // namespace

DistanceTable DistanceTable::Build(const Routing& routing, bool parallel) {
  obs::Span span("dist.table");
  const std::size_t n = routing.graph().switch_count();
  DistanceTable table(n, 0.0);
  // Row i solves the pairs (i, j > i). Each row writes distinct entries, so
  // rows need no synchronization.
  const auto solve_row = [&](SwitchId i, PairWorkspace& ws) {
    for (SwitchId j = i + 1; j < n; ++j) {
      const double d = PairEquivalentDistance(routing, i, j, ws);
      table.values_[i * n + j] = d;
      table.values_[j * n + i] = d;
    }
  };
  if (parallel && n > 4) {
    ParallelFor(n, [&](std::size_t i) {
      PairWorkspace ws(n);
      solve_row(i, ws);
    });
  } else {
    PairWorkspace ws(n);
    for (SwitchId i = 0; i < n; ++i) solve_row(i, ws);
  }
  return table;
}

DistanceTable DistanceTable::BuildHopCount(const Routing& routing) {
  const std::size_t n = routing.graph().switch_count();
  DistanceTable table(n, 0.0);
  for (SwitchId i = 0; i < n; ++i) {
    for (SwitchId j = i + 1; j < n; ++j) {
      table.Set(i, j, static_cast<double>(routing.MinimalDistance(i, j)));
    }
  }
  return table;
}

DistanceTable DistanceTable::BuildGraphHops(const topo::SwitchGraph& graph) {
  const std::size_t n = graph.switch_count();
  DistanceTable table(n, 0.0);
  for (SwitchId i = 0; i < n; ++i) {
    const std::vector<std::size_t> hops = graph.BfsDistances(i);
    for (SwitchId j = i + 1; j < n; ++j) {
      CS_CHECK(hops[j] != static_cast<std::size_t>(-1), "graph must be connected");
      table.Set(i, j, static_cast<double>(hops[j]));
    }
  }
  return table;
}

DistanceTable DistanceTable::FromValues(std::size_t n, std::vector<double> values) {
  if (values.size() != n * n) {
    throw ConfigError("distance table payload holds " + std::to_string(values.size()) +
                      " values, expected " + std::to_string(n * n));
  }
  DistanceTable table;
  table.n_ = n;
  table.values_ = std::move(values);
  return table;
}

double DistanceTable::SumSquaredAllPairs() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      const double d = values_[i * n_ + j];
      sum += d * d;
    }
  }
  return sum;
}

double DistanceTable::MeanSquaredDistance() const {
  CS_CHECK(n_ >= 2, "need at least two switches");
  return SumSquaredAllPairs() / (static_cast<double>(n_) * (n_ - 1) / 2.0);
}

bool DistanceTable::SatisfiesTriangleInequality(double tolerance) const {
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      for (std::size_t k = 0; k < n_; ++k) {
        if (k == i || k == j) continue;
        if ((*this)(i, j) > (*this)(i, k) + (*this)(k, j) + tolerance) {
          return false;
        }
      }
    }
  }
  return true;
}

double DistanceTable::MaxAbsDiff(const DistanceTable& other) const {
  CS_CHECK(n_ == other.n_, "table size mismatch");
  double worst = 0.0;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    worst = std::max(worst, std::abs(values_[k] - other.values_[k]));
  }
  return worst;
}

std::string DistanceTable::ToCsv() const {
  std::ostringstream oss;
  oss << "switch";
  for (std::size_t j = 0; j < n_; ++j) oss << ',' << j;
  oss << '\n';
  for (std::size_t i = 0; i < n_; ++i) {
    oss << i;
    for (std::size_t j = 0; j < n_; ++j) {
      oss << ',' << (*this)(i, j);
    }
    oss << '\n';
  }
  return oss.str();
}

double CorrelateTables(const DistanceTable& a, const DistanceTable& b) {
  CS_CHECK(a.size() == b.size(), "table size mismatch");
  const std::size_t n = a.size();
  CS_CHECK(n >= 3, "need at least 3 switches for a meaningful correlation");
  double mean_a = 0.0;
  double mean_b = 0.0;
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      mean_a += a(i, j);
      mean_b += b(i, j);
    }
  }
  mean_a /= pairs;
  mean_b /= pairs;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double da = a(i, j) - mean_a;
      const double db = b(i, j) - mean_b;
      cov += da * db;
      var_a += da * da;
      var_b += db * db;
    }
  }
  CS_CHECK(var_a > 0.0 && var_b > 0.0, "degenerate table in correlation");
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace commsched::dist
