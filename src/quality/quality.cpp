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

SwapEvaluator::SwapEvaluator(const DistanceTable& table, Partition partition)
    : table_(&table), partition_(std::move(partition)) {
  CS_CHECK(table.size() == partition_.switch_count(), "table / partition size mismatch");
  CS_CHECK(partition_.IntraPairCount() > 0, "evaluator needs a cluster with two switches");
  CS_CHECK(partition_.cluster_count() >= 2, "evaluator needs at least two clusters");
  sum_all_pairs_sq_ = table.SumSquaredAllPairs();
  mean_sq_distance_ = table.MeanSquaredDistance();
  gains_ = ClusterGainTable(table, partition_);
  intra_sum_ = ComputeIntraSum();
}

double SwapEvaluator::ComputeIntraSum() const {
  double sum = 0.0;
  const std::size_t n = partition_.switch_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (partition_.ClusterOf(i) == partition_.ClusterOf(j)) {
        const double d = (*table_)(i, j);
        sum += d * d;
      }
    }
  }
  return sum;
}

double SwapEvaluator::Fg() const {
  return (intra_sum_ / static_cast<double>(partition_.IntraPairCount())) / mean_sq_distance_;
}

double SwapEvaluator::Dg() const {
  // Ordered intercluster sum = 2 * (all-pairs sum - intracluster sum).
  const double inter_sum = 2.0 * (sum_all_pairs_sq_ - intra_sum_);
  return (inter_sum / static_cast<double>(partition_.InterPairCountOrdered())) /
         mean_sq_distance_;
}

double SwapEvaluator::Cc() const {
  const double fg = Fg();
  CS_CHECK(fg > 0.0, "degenerate F_G");
  return Dg() / fg;
}

double SwapEvaluator::SwapDelta(std::size_t a, std::size_t b) const {
  const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
  CS_CHECK(a < cluster_of.size() && b < cluster_of.size(), "switch out of range");
  const std::size_t ca = cluster_of[a];
  const std::size_t cb = cluster_of[b];
  CS_CHECK(ca != cb, "SwapDelta requires switches in different clusters");
  // a trades its ca partners for cb's, b the reverse; G[b][ca] and G[a][cb]
  // each count the (a,b) pair, which stays intercluster on both sides.
  const double dab = (*table_)(a, b);
  return gains_(a, cb) - gains_(a, ca) + gains_(b, ca) - gains_(b, cb) - 2.0 * dab * dab;
}

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
      delta += dbw * dbw - daw * daw;
    } else if (cw == cb) {
      delta += daw * daw - dbw * dbw;
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
  CS_CHECK(partition.switch_count() == table_->size(), "table / partition size mismatch");
  partition_ = std::move(partition);
  gains_ = ClusterGainTable(*table_, partition_);
  intra_sum_ = ComputeIntraSum();
}

double SwapEvaluator::FgAfterDelta(double delta) const {
  return ((intra_sum_ + delta) / static_cast<double>(partition_.IntraPairCount())) /
         mean_sq_distance_;
}

}  // namespace commsched::qual
