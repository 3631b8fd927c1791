#include "quality/quality.h"

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

ClusterGainTable::ClusterGainTable(const DistanceTable& table, const Partition& partition)
    : clusters_(partition.cluster_count()),
      gains_(partition.switch_count() * partition.cluster_count(), 0.0) {
  const std::vector<std::size_t>& cluster_of = partition.cluster_of_switch();
  const std::size_t n = partition.switch_count();
  for (std::size_t v = 0; v < n; ++v) {
    double* row = &gains_[v * clusters_];
    for (std::size_t u = 0; u < n; ++u) {
      const double d = table(v, u);
      row[cluster_of[u]] += d * d;
    }
  }
}

void ClusterGainTable::ApplySwap(const DistanceTable& table, std::size_t a, std::size_t ca,
                                 std::size_t b, std::size_t cb) {
  const std::size_t n = table.size();
  for (std::size_t v = 0; v < n; ++v) {
    const double dva = table(v, a);
    const double dvb = table(v, b);
    const double change = dvb * dvb - dva * dva;  // ca trades a for b
    gains_[v * clusters_ + ca] += change;
    gains_[v * clusters_ + cb] -= change;
  }
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
  gains_ = ClusterGainTable(*table_, partition_);
  intra_sum_ = ComputeIntraSum();
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
  gains_.ApplySwap(*table_, a, ca, b, cb);
  partition_.Swap(a, b);
  intra_sum_ += delta;
}

void SwapEvaluator::Reset(Partition partition) {
  partition_ = std::move(partition);
  Rebuild();
}

double SwapEvaluator::FgAfterDelta(double delta) const {
  return ((intra_sum_ + delta) / pair_count_) / mean_sq_distance_;
}

}  // namespace commsched::qual
