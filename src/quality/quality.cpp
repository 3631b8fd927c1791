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

double GlobalSimilarity(const DistanceTable& table, const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  const std::size_t intra_pairs = partition.IntraPairCount();
  CS_CHECK(intra_pairs > 0, "F_G needs at least one cluster with two switches");
  double intra_sum = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    intra_sum += ClusterSimilarity(table, partition, c);
  }
  return (intra_sum / static_cast<double>(intra_pairs)) / table.MeanSquaredDistance();
}

double GlobalDissimilarity(const DistanceTable& table, const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(partition.cluster_count() >= 2, "D_G needs at least two clusters");
  double inter_sum = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    inter_sum += ClusterDissimilarity(table, partition, c);
  }
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
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(cluster_intensity.size() == partition.cluster_count(),
           "one intensity per cluster required");
  double weighted_sum = 0.0;
  double weighted_pairs = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    CS_CHECK(cluster_intensity[c] >= 0.0, "intensities are non-negative");
    weighted_sum += cluster_intensity[c] * ClusterSimilarity(table, partition, c);
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
  const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
  gains_.assign(n * k, 0.0);
  max_squared_.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t u = 0; u < n; ++u) {
      const double d = (*table_)(v, u);
      gains_[v * k + cluster_of[u]] += d * d;
      max_squared_[v] = std::max(max_squared_[v], d * d);
    }
  }
  intra_sum_ = ComputeIntraSum();
  // No λ·G or λ·T² term of a delta or a bound exceeds max λ · N · max T².
  bound_slack_ = kRowBoundSlack * static_cast<double>(n) *
                 *std::max_element(max_squared_.begin(), max_squared_.end()) *
                 *std::max_element(intensity_.begin(), intensity_.end());
  // Counting sort by cluster: member_begin_[c + 1] is cluster c's write
  // cursor, and ends as cluster c + 1's start.
  member_begin_.assign(k + 1, 0);
  for (std::size_t c = 1; c < k; ++c) {
    member_begin_[c + 1] = member_begin_[c] + partition_.ClusterSize(c - 1);
  }
  members_.resize(n);
  for (std::size_t s = 0; s < n; ++s) members_[member_begin_[cluster_of[s] + 1]++] = s;
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
  double sum = 0.0;
  const std::size_t n = partition_.switch_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t c = partition_.ClusterOf(i);
      if (c != partition_.ClusterOf(j)) continue;
      const double d = (*table_)(i, j);
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
