#include "quality/weighted.h"

#include <limits>

#include "quality/quality.h"

namespace commsched::qual {

WeightMatrix::WeightMatrix(std::size_t n, double fill) : n_(n), values_(n * n, fill) {
  CS_CHECK(fill >= 0.0, "weights are non-negative");
  for (std::size_t i = 0; i < n; ++i) {
    values_[i * n + i] = 0.0;
  }
}

void WeightMatrix::Set(std::size_t i, std::size_t j, double weight) {
  CS_CHECK(i < n_ && j < n_, "weight index out of range");
  CS_CHECK(i != j || weight == 0.0, "diagonal weights must stay zero");
  CS_CHECK(weight >= 0.0, "weights are non-negative");
  values_[i * n_ + j] = weight;
  values_[j * n_ + i] = weight;
}

double WeightMatrix::TotalWeight() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      sum += values_[i * n_ + j];
    }
  }
  return sum;
}

void WeightMatrix::Normalize() {
  const double total = TotalWeight();
  CS_CHECK(total > 0.0, "cannot normalize an all-zero weight matrix");
  const double pairs = static_cast<double>(n_) * (n_ - 1) / 2.0;
  const double scale = pairs / total;
  for (double& v : values_) v *= scale;
}

namespace {

struct PairSums {
  double intra_wsq = 0.0;
  double intra_w = 0.0;
  double all_wsq = 0.0;
  double all_w = 0.0;
};

PairSums Accumulate(const DistanceTable& table, const WeightMatrix& weights,
                    const Partition& partition) {
  CS_CHECK(table.size() == weights.size(), "table / weights size mismatch");
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  PairSums sums;
  const std::size_t n = table.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = weights(i, j);
      const double wsq = w * table(i, j) * table(i, j);
      sums.all_w += w;
      sums.all_wsq += wsq;
      if (partition.ClusterOf(i) == partition.ClusterOf(j)) {
        sums.intra_w += w;
        sums.intra_wsq += wsq;
      }
    }
  }
  return sums;
}

}  // namespace

double WeightedGlobalSimilarity(const DistanceTable& table, const WeightMatrix& weights,
                                const Partition& partition) {
  const PairSums sums = Accumulate(table, weights, partition);
  CS_CHECK(sums.intra_w > 0.0, "no intracluster communication weight");
  CS_CHECK(sums.all_w > 0.0, "all-zero weight matrix");
  return (sums.intra_wsq / sums.intra_w) / (sums.all_wsq / sums.all_w);
}

double WeightedGlobalDissimilarity(const DistanceTable& table, const WeightMatrix& weights,
                                   const Partition& partition) {
  const PairSums sums = Accumulate(table, weights, partition);
  const double inter_w = sums.all_w - sums.intra_w;
  const double inter_wsq = sums.all_wsq - sums.intra_wsq;
  CS_CHECK(sums.all_w > 0.0, "all-zero weight matrix");
  if (inter_w <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return (inter_wsq / inter_w) / (sums.all_wsq / sums.all_w);
}

double WeightedClusteringCoefficient(const DistanceTable& table, const WeightMatrix& weights,
                                     const Partition& partition) {
  const double fg = WeightedGlobalSimilarity(table, weights, partition);
  CS_CHECK(fg > 0.0, "degenerate weighted F_G");
  return WeightedGlobalDissimilarity(table, weights, partition) / fg;
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

WeightedSwapEvaluator::WeightedSwapEvaluator(const DistanceTable& table,
                                             const WeightMatrix& weights, Partition partition)
    : table_(&table), weights_(&weights), partition_(std::move(partition)) {
  CS_CHECK(table.size() == weights.size(), "table / weights size mismatch");
  CS_CHECK(table.size() == partition_.switch_count(), "table / partition size mismatch");
  CS_CHECK(partition_.cluster_count() >= 2, "evaluator needs at least two clusters");
  const std::size_t n = table.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = (*weights_)(i, j);
      all_w_ += w;
      all_wsq_ += w * table(i, j) * table(i, j);
    }
  }
  CS_CHECK(all_w_ > 0.0, "all-zero weight matrix");
  sums_ = ComputeSums();
}

WeightedSwapEvaluator::Sums WeightedSwapEvaluator::ComputeSums() const {
  Sums sums;
  const std::size_t n = partition_.switch_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (partition_.ClusterOf(i) != partition_.ClusterOf(j)) continue;
      const double w = (*weights_)(i, j);
      sums.intra_w += w;
      sums.intra_wsq += w * (*table_)(i, j) * (*table_)(i, j);
    }
  }
  return sums;
}

double WeightedSwapEvaluator::FgFromSums(const Sums& sums) const {
  CS_CHECK(sums.intra_w > 0.0, "no intracluster communication weight");
  return (sums.intra_wsq / sums.intra_w) / (all_wsq_ / all_w_);
}

double WeightedSwapEvaluator::Fg() const { return FgFromSums(sums_); }

double WeightedSwapEvaluator::Dg() const {
  const double inter_w = all_w_ - sums_.intra_w;
  const double inter_wsq = all_wsq_ - sums_.intra_wsq;
  if (inter_w <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return (inter_wsq / inter_w) / (all_wsq_ / all_w_);
}

double WeightedSwapEvaluator::Cc() const {
  const double fg = Fg();
  CS_CHECK(fg > 0.0, "degenerate weighted F_G");
  return Dg() / fg;
}

WeightedSwapEvaluator::Sums WeightedSwapEvaluator::SwapDeltas(std::size_t a,
                                                              std::size_t b) const {
  const std::size_t n = partition_.switch_count();
  CS_CHECK(a < n && b < n, "switch out of range");
  const std::size_t ca = partition_.ClusterOf(a);
  const std::size_t cb = partition_.ClusterOf(b);
  CS_CHECK(ca != cb, "swap requires switches in different clusters");
  Sums delta;
  for (std::size_t w = 0; w < n; ++w) {
    if (w == a || w == b) continue;
    const std::size_t cw = partition_.ClusterOf(w);
    const double wa = (*weights_)(a, w);
    const double wb = (*weights_)(b, w);
    const double sqa = wa * (*table_)(a, w) * (*table_)(a, w);
    const double sqb = wb * (*table_)(b, w) * (*table_)(b, w);
    if (cw == ca) {
      // a's terms leave, b's enter (b replaces a in cluster ca).
      delta.intra_w += wb - wa;
      delta.intra_wsq += sqb - sqa;
    } else if (cw == cb) {
      delta.intra_w += wa - wb;
      delta.intra_wsq += sqa - sqb;
    }
  }
  return delta;
}

double WeightedSwapEvaluator::FgAfterSwap(std::size_t a, std::size_t b) const {
  const Sums delta = SwapDeltas(a, b);
  const Sums after{sums_.intra_wsq + delta.intra_wsq, sums_.intra_w + delta.intra_w};
  if (after.intra_w <= 0.0) return std::numeric_limits<double>::infinity();
  return FgFromSums(after);
}

void WeightedSwapEvaluator::ApplySwap(std::size_t a, std::size_t b) {
  const Sums delta = SwapDeltas(a, b);
  partition_.Swap(a, b);
  sums_.intra_wsq += delta.intra_wsq;
  sums_.intra_w += delta.intra_w;
}

void WeightedSwapEvaluator::Reset(Partition partition) {
  CS_CHECK(partition.switch_count() == table_->size(), "table / partition size mismatch");
  partition_ = std::move(partition);
  sums_ = ComputeSums();
}

}  // namespace commsched::qual
