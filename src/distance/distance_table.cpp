#include "distance/distance_table.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel.h"
#include "linalg/resistance.h"

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

/// Equivalent distance for one pair: restrict to links on minimal permitted
/// paths, 1 Ω each, effective resistance between the endpoints. The network
/// holds only the switches those links touch, relabelled in ascending id
/// order, so its grounded system is the full-size network's reach-filtered
/// one, entry for entry: the result is bit-identical, at a few nodes' cost.
double PairEquivalentDistance(const Routing& routing, SwitchId i, SwitchId j) {
  const auto links = routing.LinksOnMinimalPaths(i, j);
  CS_CHECK(!links.empty(), "connected pair must have at least one path link");
  std::vector<SwitchId> nodes;
  nodes.reserve(2 * links.size());
  for (topo::LinkId l : links) {
    const topo::Link& link = routing.graph().link(l);
    nodes.push_back(link.a);
    nodes.push_back(link.b);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const auto local = [&nodes](SwitchId s) {
    return static_cast<std::size_t>(std::lower_bound(nodes.begin(), nodes.end(), s) -
                                    nodes.begin());
  };
  linalg::ResistorNetwork network(nodes.size());
  for (topo::LinkId l : links) {
    const topo::Link& link = routing.graph().link(l);
    network.Add(local(link.a), local(link.b), 1.0);
  }
  return network.EffectiveResistance(local(i), local(j));
}

}  // namespace

DistanceTable DistanceTable::Build(const Routing& routing, bool parallel) {
  const std::size_t n = routing.graph().switch_count();
  DistanceTable table(n, 0.0);

  // All unordered pairs, flattened for the parallel loop.
  std::vector<std::pair<SwitchId, SwitchId>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (SwitchId i = 0; i < n; ++i) {
    for (SwitchId j = i + 1; j < n; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  auto compute = [&](std::size_t k) {
    const auto [i, j] = pairs[k];
    const double d = PairEquivalentDistance(routing, i, j);
    // Each task writes a distinct (i,j): no synchronization needed.
    table.values_[i * n + j] = d;
    table.values_[j * n + i] = d;
  };
  if (parallel && pairs.size() > 8) {
    ParallelFor(pairs.size(), compute);
  } else {
    for (std::size_t k = 0; k < pairs.size(); ++k) compute(k);
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
