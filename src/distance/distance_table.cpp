#include "distance/distance_table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <thread>

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
  sum_squared_fresh_ = false;
}

void DistanceTable::CacheSumSquared() {
  sum_squared_ = SumSquaredAllPairs();
  sum_squared_fresh_ = true;
}

namespace {

using route::NextHop;
using route::Phase;

/// Solves whole columns of the table: column j is the pairs (i < j, j).
/// Holds the scratch of one thread, reused from column to column.
///
/// Toward one destination j, every source shares one graph of tight moves:
/// the routing's next hops, each a step closer to j. So a state's minimal
/// permitted paths to j cross the links {hop link} ∪ (the next state's
/// links) over its next hops, and touch its own switch plus the switches
/// the next states' paths touch. One post-order pass per column builds these
/// two sets, as bitsets, for every state reachable from a source, and each
/// pair reads its links and its switches, both ascending, straight from the
/// bits of (i, kUp).
class ColumnSolver {
 public:
  ColumnSolver(const Routing& routing, std::vector<double>& values)
      : routing_(routing),
        graph_(routing.graph()),
        values_(values),
        link_words_((graph_.link_count() + 63) / 64),
        words_(link_words_ + (graph_.switch_count() + 63) / 64),
        stamp_(2 * graph_.switch_count(), 0),
        sets_(2 * graph_.switch_count() * words_),
        row_(graph_.switch_count()) {}

  void Solve(SwitchId j) {
    const std::size_t n = graph_.switch_count();
    ++epoch_;
    for (SwitchId i = 0; i < j; ++i) {
      const std::size_t state = 2 * i;  // (i, kUp)
      if (stamp_[state] != Done()) Visit(state, j);
      const double d = PairEquivalentDistance(i, j, &sets_[state * words_]);
      values_[i * n + j] = d;
      values_[j * n + i] = d;
    }
  }

 private:
  // A state's stamp is Open() while its frame is on the stack and Done()
  // once its sets are final; anything else is from an earlier column.
  [[nodiscard]] std::uint32_t Open() const { return 2 * epoch_ - 1; }
  [[nodiscard]] std::uint32_t Done() const { return 2 * epoch_; }

  struct Frame {
    std::size_t state;
    std::size_t first_hop;  // the state's hops are hops_[first_hop, end)
    std::size_t next_hop;   // the next hop to descend through
  };

  // Post-order DFS from `root` along the next hops toward j. A state's sets
  // are filled when its frame pops, after every next state's.
  void Visit(std::size_t root, SwitchId j) {
    Push(root, j);
    while (!stack_.empty()) {
      Frame& frame = stack_.back();
      if (frame.next_hop < hops_.size()) {
        const NextHop& hop = hops_[frame.next_hop++];
        const std::size_t next = 2 * hop.next + static_cast<std::size_t>(hop.phase);
        CS_CHECK(stamp_[next] != Open(), "next hops must lead closer to the destination");
        if (stamp_[next] != Done()) Push(next, j);
        continue;
      }
      std::uint64_t* set = &sets_[frame.state * words_];
      std::fill(set, set + words_, 0);
      SetBit(set + link_words_, frame.state / 2);
      for (std::size_t h = frame.first_hop; h < hops_.size(); ++h) {
        const NextHop& hop = hops_[h];
        SetBit(set, hop.link);
        const std::uint64_t* next =
            &sets_[(2 * hop.next + static_cast<std::size_t>(hop.phase)) * words_];
        for (std::size_t w = 0; w < words_; ++w) set[w] |= next[w];
      }
      stamp_[frame.state] = Done();
      hops_.resize(frame.first_hop);
      stack_.pop_back();
    }
  }

  // Opens a frame for `state`, appending its next hops to hops_. Frames are
  // LIFO, so the open frames' hop ranges are nested and each frame's runs
  // to the end of hops_ whenever it is on top.
  void Push(std::size_t state, SwitchId j) {
    stamp_[state] = Open();
    routing_.NextHopsInto(state / 2, j, static_cast<Phase>(state % 2), state_hops_);
    stack_.push_back({state, hops_.size(), hops_.size()});
    hops_.insert(hops_.end(), state_hops_.begin(), state_hops_.end());
  }

  static void SetBit(std::uint64_t* bits, std::size_t k) {
    bits[k / 64] |= std::uint64_t{1} << (k % 64);
  }

  // Calls f(k) for every set bit k of bits[0, words), ascending.
  template <typename F>
  static void ForEachBit(const std::uint64_t* bits, std::size_t words, F&& f) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
      }
    }
  }

  /// Equivalent distance for one pair: restrict to links on minimal
  /// permitted paths, 1 Ω each, effective resistance between the endpoints.
  /// The system holds only the switches those links touch, ascending by id
  /// with the grounded j removed. That is the full-size network's
  /// reach-filtered grounded Laplacian entry for entry (every link lies on
  /// an i-j path, so every switch it touches is reached), and the same
  /// Cholesky loops solve it, so the result is bit-identical, at a few
  /// nodes' cost.
  double PairEquivalentDistance(SwitchId i, SwitchId j, const std::uint64_t* set) {
    const std::uint64_t* switches = set + link_words_;
    CS_CHECK((switches[j / 64] >> (j % 64)) & 1,
             "connected pair must have at least one path link");
    std::size_t m = 0;
    ForEachBit(switches, words_ - link_words_, [&](std::size_t u) {
      if (u != j) row_[u] = m++;
    });
    matrix_.assign(m * m, 0.0);
    ForEachBit(set, link_words_, [&](std::size_t l) {
      const topo::Link& link = graph_.link(l);
      const std::size_t ra = row_[link.a];
      const std::size_t rb = row_[link.b];
      if (link.a != j) matrix_[ra * m + ra] += 1.0;
      if (link.b != j) matrix_[rb * m + rb] += 1.0;
      if (link.a != j && link.b != j) {
        matrix_[ra * m + rb] -= 1.0;
        matrix_[rb * m + ra] -= 1.0;
      }
    });
    rhs_.assign(m, 0.0);
    rhs_[row_[i]] = 1.0;
    CS_CHECK(linalg::CholeskyFactorInPlace(matrix_.data(), m),
             "grounded pair Laplacian must be positive definite");
    linalg::CholeskySolveInPlace(matrix_.data(), m, rhs_.data());
    return rhs_[row_[i]];
  }

  const Routing& routing_;
  const topo::SwitchGraph& graph_;
  std::vector<double>& values_;
  std::size_t link_words_;  // a state's set: link bits, then switch bits
  std::size_t words_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  // per (switch, phase) state
  std::vector<std::uint64_t> sets_;   // per state, words_ words
  std::vector<Frame> stack_;
  std::vector<NextHop> hops_;        // the open frames' next hops
  std::vector<NextHop> state_hops_;  // one NextHopsInto answer
  std::vector<std::size_t> row_;     // switch -> grounded row, valid for the pair's switches
  std::vector<double> matrix_;       // grounded Laplacian, row-major; then its factor
  std::vector<double> rhs_;          // e_i; then the node potentials
};

}  // namespace

DistanceTable DistanceTable::Build(const Routing& routing, bool parallel) {
  obs::Span span("dist.table");
  const std::size_t n = routing.graph().switch_count();
  DistanceTable table(n, 0.0);
  // Each column writes distinct entries, so columns need no
  // synchronization. Every participant claims columns from one counter,
  // longest (j = n - 1) first, into its own solver.
  std::atomic<std::size_t> claimed{0};
  const auto solve_columns = [&] {
    std::optional<ColumnSolver> solver;
    for (std::size_t k = claimed++; k + 1 < n; k = claimed++) {
      if (!solver) solver.emplace(routing, table.values_);
      solver->Solve(n - 1 - k);
    }
  };
  if (parallel && n >= route::kParallelSetupMinSwitches) {
    ParallelFor(std::max(1u, std::thread::hardware_concurrency()),
                [&](std::size_t) { solve_columns(); });
  } else {
    solve_columns();
  }
  table.CacheSumSquared();
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
  table.CacheSumSquared();
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
  table.CacheSumSquared();
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
  table.CacheSumSquared();
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
  const double sum = sum_squared_fresh_ ? sum_squared_ : SumSquaredAllPairs();
  return sum / (static_cast<double>(n_) * (n_ - 1) / 2.0);
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
