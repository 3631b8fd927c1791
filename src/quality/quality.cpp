#include "quality/quality.h"

#include <algorithm>
#include <limits>

namespace commsched::qual {

double ClusterSimilarity(const DistanceTable& table, const Partition& partition,
                         std::size_t cluster) {
  const auto members = partition.Members(cluster);
  double sum = 0.0;
  for (std::size_t k = 0; k < members.size(); ++k) {
    for (std::size_t j = k + 1; j < members.size(); ++j) {
      const double d = table(members[k], members[j]);
      sum += d * d;
    }
  }
  return sum;
}

double ClusterDissimilarity(const DistanceTable& table, const Partition& partition,
                            std::size_t cluster) {
  const auto members = partition.Members(cluster);
  double sum = 0.0;
  for (std::size_t member : members) {
    for (std::size_t other = 0; other < partition.switch_count(); ++other) {
      if (partition.ClusterOf(other) == cluster) continue;
      const double d = table(member, other);
      sum += d * d;
    }
  }
  return sum;
}

std::vector<double> ClusterSimilarities(const DistanceTable& table, const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  std::vector<std::size_t> members;
  std::vector<std::size_t> begin;
  partition.SortMembers(members, begin);
  const std::size_t n = table.size();
  const double* values = table.values().data();
  std::vector<double> sums(partition.cluster_count());
  for (std::size_t c = 0; c < sums.size(); ++c) {
    // ClusterSimilarity's loop over the same ascending members.
    double sum = 0.0;
    for (std::size_t k = begin[c]; k < begin[c + 1]; ++k) {
      const double* row = values + members[k] * n;
      for (std::size_t j = k + 1; j < begin[c + 1]; ++j) {
        const double d = row[members[j]];
        sum += d * d;
      }
    }
    sums[c] = sum;
  }
  return sums;
}

std::vector<double> ClusterDissimilarities(const DistanceTable& table,
                                           const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  const std::size_t n = table.size();
  const double* values = table.values().data();
  const std::size_t* cluster_of = partition.cluster_of_switch().data();
  std::vector<double> sums(partition.cluster_count(), 0.0);
  // Rows in ascending switch order visit each cluster's members in
  // ClusterDissimilarity's order; a same-cluster column adds +0.0, which
  // leaves a non-negative sum's bits unchanged.
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t c = cluster_of[v];
    const double* row = values + v * n;
    double sum = sums[c];
    for (std::size_t u = 0; u < n; ++u) sum += cluster_of[u] == c ? 0.0 : row[u] * row[u];
    sums[c] = sum;
  }
  return sums;
}

double GlobalSimilarity(const DistanceTable& table, const Partition& partition) {
  return GlobalSimilarity(table, partition, ClusterSimilarities(table, partition));
}

double GlobalSimilarity(const DistanceTable& table, const Partition& partition,
                        std::span<const double> cluster_similarity) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(cluster_similarity.size() == partition.cluster_count(), "one F_Ac per cluster required");
  const std::size_t intra_pairs = partition.IntraPairCount();
  CS_CHECK(intra_pairs > 0, "F_G needs at least one cluster with two switches");
  double intra_sum = 0.0;
  for (const double sum : cluster_similarity) intra_sum += sum;
  return (intra_sum / static_cast<double>(intra_pairs)) / table.MeanSquaredDistance();
}

double GlobalDissimilarity(const DistanceTable& table, const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(partition.cluster_count() >= 2, "D_G needs at least two clusters");
  double inter_sum = 0.0;
  for (const double sum : ClusterDissimilarities(table, partition)) inter_sum += sum;
  const std::size_t inter_pairs = partition.InterPairCountOrdered();
  CS_CHECK(inter_pairs > 0, "no intercluster pairs");
  return (inter_sum / static_cast<double>(inter_pairs)) / table.MeanSquaredDistance();
}

double ClusteringCoefficient(const DistanceTable& table, const Partition& partition) {
  const double fg = GlobalSimilarity(table, partition);
  CS_CHECK(fg > 0.0, "degenerate F_G (all intracluster distances zero)");
  return GlobalDissimilarity(table, partition) / fg;
}

double IntensityGlobalSimilarity(const DistanceTable& table, const Partition& partition,
                                 const std::vector<double>& cluster_intensity) {
  return IntensityGlobalSimilarity(table, partition, cluster_intensity,
                                   ClusterSimilarities(table, partition));
}

double IntensityGlobalSimilarity(const DistanceTable& table, const Partition& partition,
                                 const std::vector<double>& cluster_intensity,
                                 std::span<const double> cluster_similarity) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(cluster_intensity.size() == partition.cluster_count(),
           "one intensity per cluster required");
  CS_CHECK(cluster_similarity.size() == partition.cluster_count(), "one F_Ac per cluster required");
  double weighted_sum = 0.0;
  double weighted_pairs = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    CS_CHECK(cluster_intensity[c] >= 0.0, "intensities are non-negative");
    weighted_sum += cluster_intensity[c] * cluster_similarity[c];
    const double size = static_cast<double>(partition.ClusterSize(c));
    weighted_pairs += cluster_intensity[c] * size * (size - 1) / 2.0;
  }
  CS_CHECK(weighted_pairs > 0.0, "no weighted intracluster pairs");
  return (weighted_sum / weighted_pairs) / table.MeanSquaredDistance();
}

SwapEvaluator::SwapEvaluator(const DistanceTable& table, Partition partition,
                             std::vector<double> cluster_intensity)
    : table_(&table), partition_(std::move(partition)), intensity_(std::move(cluster_intensity)) {
  CS_CHECK(partition_.cluster_count() >= 2, "evaluator needs at least two clusters");
  if (intensity_.empty()) intensity_.assign(partition_.cluster_count(), 1.0);
  for (const double lambda : intensity_) {
    CS_CHECK(lambda >= 0.0, "intensities are non-negative");
  }
  mean_sq_distance_ = table.MeanSquaredDistance();
  Rebuild();
}

void SwapEvaluator::Rebuild() {
  CS_CHECK(table_->size() == partition_.switch_count(), "table / partition size mismatch");
  CS_CHECK(intensity_.size() == partition_.cluster_count(), "one intensity per cluster required");
  pair_count_ = 0.0;
  for (std::size_t c = 0; c < intensity_.size(); ++c) {
    const double size = static_cast<double>(partition_.ClusterSize(c));
    pair_count_ += intensity_[c] * size * (size - 1) / 2.0;
  }
  CS_CHECK(pair_count_ > 0.0, "evaluator needs a weighted cluster with two switches");
  const std::size_t n = partition_.switch_count();
  const std::size_t k = intensity_.size();
  partition_.SortMembers(members_, member_begin_);
  gains_.resize(n * k);
  max_squared_.resize(n);
  const double* values = table_->values().data();
  for (std::size_t v = 0; v < n; ++v) {
    // G[v][c] adds cluster c's members in ascending order, as one pass
    // over row v would, but in a register.
    const double* row = values + v * n;
    double max_squared = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      double gain = 0.0;
      for (const std::size_t u : Members(c)) {
        const double squared = row[u] * row[u];
        gain += squared;
        max_squared = std::max(max_squared, squared);
      }
      gains_[v * k + c] = gain;
    }
    max_squared_[v] = max_squared;
  }
  intra_sum_ = ComputeIntraSum();
  // No λ·G or λ·T² term of a delta or a bound exceeds max λ · N · max T².
  bound_slack_ = kRowBoundSlack * static_cast<double>(n) *
                 *std::max_element(max_squared_.begin(), max_squared_.end()) *
                 *std::max_element(intensity_.begin(), intensity_.end());
}

void SwapEvaluator::PrepareRowBounds() {
  const std::size_t k = intensity_.size();
  const double* lambda = intensity_.data();
  least_gains_.resize(2 * k * k);
  row_bound_.resize(partition_.switch_count() * k);
  // Rows (a, q) need, for p = c(a) < q, the least U[b][p] and the least
  // U[b][p] − (λ_p + λ_q) max T²_b over the members b of q.
  for (std::size_t q = 0; q < k; ++q) {
    for (std::size_t p = 0; p < q; ++p) {
      double least = std::numeric_limits<double>::infinity();
      double least_far = least;
      for (const std::size_t b : Members(q)) {
        const double u = lambda[p] * GainRow(b)[p] - lambda[q] * GainRow(b)[q];
        least = std::min(least, u);
        least_far = std::min(least_far, u - (lambda[p] + lambda[q]) * max_squared_[b]);
      }
      least_gains_[2 * (q * k + p)] = least;
      least_gains_[2 * (q * k + p) + 1] = least_far;
    }
  }
  for (std::size_t a = 0; a < partition_.switch_count(); ++a) {
    const std::size_t p = partition_.cluster_of_switch()[a];
    for (std::size_t q = p + 1; q < k; ++q) {
      const double* least = &least_gains_[2 * (q * k + p)];
      row_bound_[a * k + q] = lambda[q] * GainRow(a)[q] - lambda[p] * GainRow(a)[p] +
                              std::max(least[0] - (lambda[p] + lambda[q]) * max_squared_[a],
                                       least[1]) -
                              bound_slack_;
    }
  }
}

double SwapEvaluator::ComputeIntraSum() const {
  // The all-pairs (i, j > i) order: each switch, ascending, then its later
  // cluster mates, ascending. next[c] is i's place among cluster c's members.
  const std::size_t n = partition_.switch_count();
  const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
  const double* values = table_->values().data();
  std::vector<std::size_t> next(member_begin_.begin(), member_begin_.end() - 1);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = cluster_of[i];
    const double* row = values + i * n;
    for (std::size_t m = ++next[c]; m < member_begin_[c + 1]; ++m) {
      const double d = row[members_[m]];
      sum += intensity_[c] * d * d;
    }
  }
  return sum;
}

double SwapEvaluator::Fg() const { return (intra_sum_ / pair_count_) / mean_sq_distance_; }

double SwapEvaluator::SummedSwapDelta(std::size_t a, std::size_t b) const {
  const std::size_t n = partition_.switch_count();
  const std::size_t ca = partition_.ClusterOf(a);
  const std::size_t cb = partition_.ClusterOf(b);
  // a leaves ca (remove its intra terms), b joins ca in its place; likewise
  // for b/cb. The (a,b) pair itself stays intercluster on both sides.
  double delta = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    if (w == a || w == b) continue;
    const std::size_t cw = partition_.ClusterOf(w);
    const double daw = (*table_)(a, w);
    const double dbw = (*table_)(b, w);
    if (cw == ca) {
      delta += intensity_[ca] * (dbw * dbw - daw * daw);
    } else if (cw == cb) {
      delta += intensity_[cb] * (daw * daw - dbw * dbw);
    }
  }
  return delta;
}

void SwapEvaluator::ApplySwap(std::size_t a, std::size_t b) {
  const std::size_t n = partition_.switch_count();
  CS_CHECK(a < n && b < n, "switch out of range");
  const std::size_t ca = partition_.ClusterOf(a);
  const std::size_t cb = partition_.ClusterOf(b);
  CS_CHECK(ca != cb, "ApplySwap requires switches in different clusters");
  const double delta = SummedSwapDelta(a, b);
  const std::size_t k = intensity_.size();
  for (std::size_t v = 0; v < n; ++v) {
    const double dva = (*table_)(v, a);
    const double dvb = (*table_)(v, b);
    const double change = dvb * dvb - dva * dva;  // ca trades a for b
    gains_[v * k + ca] += change;
    gains_[v * k + cb] -= change;
  }
  partition_.Swap(a, b);
  intra_sum_ += delta;
  // Each cluster trades one member: overwrite it and step the newcomer into
  // its ascending place.
  const auto trade = [this](std::size_t cluster, std::size_t out, std::size_t in) {
    std::size_t* first = members_.data() + member_begin_[cluster];
    std::size_t* last = members_.data() + member_begin_[cluster + 1];
    std::size_t* at = std::lower_bound(first, last, out);
    *at = in;
    for (; at != first && at[-1] > in; --at) std::swap(at[-1], at[0]);
    for (; at + 1 != last && at[1] < in; ++at) std::swap(at[0], at[1]);
  };
  trade(ca, a, b);
  trade(cb, b, a);
}

void SwapEvaluator::Reset(Partition partition) {
  partition_ = std::move(partition);
  Rebuild();
}

double SwapEvaluator::FgAfterDelta(double delta) const {
  return ((intra_sum_ + delta) / pair_count_) / mean_sq_distance_;
}

}  // namespace commsched::qual
