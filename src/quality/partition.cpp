#include "quality/partition.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace commsched::qual {

Partition::Partition(std::vector<std::size_t> cluster_of_switch)
    : cluster_of_(std::move(cluster_of_switch)) {
  CS_CHECK(!cluster_of_.empty(), "partition needs at least one switch");
  const std::size_t m = *std::max_element(cluster_of_.begin(), cluster_of_.end()) + 1;
  sizes_.assign(m, 0);
  for (std::size_t c : cluster_of_) {
    ++sizes_[c];
  }
  for (std::size_t c = 0; c < m; ++c) {
    CS_CHECK(sizes_[c] > 0, "cluster ids must be contiguous; cluster ", c, " is empty");
  }
}

Partition Partition::FromClusters(const std::vector<std::vector<std::size_t>>& clusters) {
  CS_CHECK(!clusters.empty(), "need at least one cluster");
  std::size_t n = 0;
  for (const auto& cluster : clusters) n += cluster.size();
  std::vector<std::size_t> cluster_of(n, static_cast<std::size_t>(-1));
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    CS_CHECK(!clusters[c].empty(), "cluster ", c, " is empty");
    for (std::size_t s : clusters[c]) {
      CS_CHECK(s < n, "switch ", s, " out of range");
      CS_CHECK(cluster_of[s] == static_cast<std::size_t>(-1), "switch ", s,
               " appears in two clusters");
      cluster_of[s] = c;
    }
  }
  return Partition(std::move(cluster_of));
}

Partition Partition::Random(const std::vector<std::size_t>& cluster_sizes, Rng& rng) {
  CS_CHECK(!cluster_sizes.empty(), "need at least one cluster");
  const std::size_t n = std::accumulate(cluster_sizes.begin(), cluster_sizes.end(), std::size_t{0});
  CS_CHECK(n > 0, "empty partition");
  const std::vector<std::size_t> perm = RandomPermutation(n, rng);
  std::vector<std::size_t> cluster_of(n);
  std::size_t at = 0;
  for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
    CS_CHECK(cluster_sizes[c] > 0, "cluster sizes must be positive");
    for (std::size_t k = 0; k < cluster_sizes[c]; ++k) {
      cluster_of[perm[at++]] = c;
    }
  }
  return Partition(std::move(cluster_of));
}

Partition Partition::Blocked(const std::vector<std::size_t>& cluster_sizes) {
  const std::size_t n = std::accumulate(cluster_sizes.begin(), cluster_sizes.end(), std::size_t{0});
  std::vector<std::size_t> cluster_of(n);
  std::size_t at = 0;
  for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
    CS_CHECK(cluster_sizes[c] > 0, "cluster sizes must be positive");
    for (std::size_t k = 0; k < cluster_sizes[c]; ++k) {
      cluster_of[at++] = c;
    }
  }
  return Partition(std::move(cluster_of));
}

std::size_t Partition::ClusterOf(std::size_t s) const {
  CS_CHECK(s < cluster_of_.size(), "switch out of range");
  return cluster_of_[s];
}

std::size_t Partition::ClusterSize(std::size_t cluster) const {
  CS_CHECK(cluster < sizes_.size(), "cluster out of range");
  return sizes_[cluster];
}

std::vector<std::size_t> Partition::Members(std::size_t cluster) const {
  CS_CHECK(cluster < sizes_.size(), "cluster out of range");
  std::vector<std::size_t> members;
  members.reserve(sizes_[cluster]);
  for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
    if (cluster_of_[s] == cluster) members.push_back(s);
  }
  return members;
}

void Partition::SortMembers(std::vector<std::size_t>& members,
                            std::vector<std::size_t>& begin) const {
  // begin[c + 1] is cluster c's write cursor, and ends as cluster c + 1's start.
  begin.assign(sizes_.size() + 1, 0);
  for (std::size_t c = 1; c < sizes_.size(); ++c) begin[c + 1] = begin[c] + sizes_[c - 1];
  members.resize(cluster_of_.size());
  for (std::size_t s = 0; s < cluster_of_.size(); ++s) members[begin[cluster_of_[s] + 1]++] = s;
}

void Partition::Move(std::size_t s, std::size_t cluster) {
  CS_CHECK(s < cluster_of_.size(), "switch out of range");
  CS_CHECK(cluster < sizes_.size(), "cluster out of range");
  const std::size_t old_cluster = cluster_of_[s];
  if (old_cluster == cluster) return;
  CS_CHECK(sizes_[old_cluster] > 1, "Move would empty cluster ", old_cluster);
  --sizes_[old_cluster];
  ++sizes_[cluster];
  cluster_of_[s] = cluster;
}

void Partition::Swap(std::size_t a, std::size_t b) {
  CS_CHECK(a < cluster_of_.size() && b < cluster_of_.size(), "switch out of range");
  std::swap(cluster_of_[a], cluster_of_[b]);
}

std::size_t Partition::IntraPairCount() const {
  std::size_t count = 0;
  for (std::size_t x : sizes_) {
    count += x * (x - 1) / 2;
  }
  return count;
}

std::size_t Partition::InterPairCountOrdered() const {
  const std::size_t n = cluster_of_.size();
  std::size_t count = 0;
  for (std::size_t x : sizes_) {
    count += x * (n - x);
  }
  return count;
}

std::string Partition::ToString() const {
  std::vector<std::vector<std::size_t>> clusters(sizes_.size());
  for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
    clusters[cluster_of_[s]].push_back(s);
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  std::ostringstream oss;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (c) oss << ' ';
    oss << '(';
    for (std::size_t k = 0; k < clusters[c].size(); ++k) {
      if (k) oss << ',';
      oss << clusters[c][k];
    }
    oss << ')';
  }
  return oss.str();
}

std::vector<std::size_t> Partition::CanonicalLabels() const {
  std::vector<std::size_t> relabel(sizes_.size(), static_cast<std::size_t>(-1));
  std::vector<std::size_t> labels(cluster_of_.size());
  std::size_t next = 0;
  for (std::size_t s = 0; s < cluster_of_.size(); ++s) {
    std::size_t& mapped = relabel[cluster_of_[s]];
    if (mapped == static_cast<std::size_t>(-1)) {
      mapped = next++;
    }
    labels[s] = mapped;
  }
  return labels;
}

bool Partition::SameGrouping(const Partition& other) const {
  return cluster_of_.size() == other.cluster_of_.size() &&
         CanonicalLabels() == other.CanonicalLabels();
}

}  // namespace commsched::qual
