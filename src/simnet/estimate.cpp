#include "simnet/estimate.h"

namespace commsched::sim {

std::vector<std::vector<double>> AnalyticSwitchWeights(const SwitchGraph& graph,
                                                       const work::Workload& workload,
                                                       const work::ProcessMapping& mapping) {
  const std::size_t n = graph.switch_count();
  CS_CHECK(n >= 2, "need at least two switches");
  CS_CHECK(mapping.host_count() == graph.host_count(), "mapping / graph mismatch");
  std::vector<std::vector<double>> rates(n, std::vector<double>(n, 0.0));

  const auto& apps = workload.applications();
  for (std::size_t h = 0; h < graph.host_count(); ++h) {
    const std::size_t a = mapping.AppOfHost(h);
    const work::ApplicationSpec& app = apps[a];
    const std::size_t peers = mapping.HostsOfApp(a).size();
    const bool has_peer = peers > 1;
    const bool sends_out = app.intercluster_fraction > 0.0;
    if ((!has_peer && !sends_out) || app.traffic_weight <= 0.0) continue;
    const std::size_t src_switch = graph.SwitchOfHost(h);

    // Intracluster share, uniform over same-app peers.
    if (has_peer) {
      const double intra_rate = app.traffic_weight * (1.0 - app.intercluster_fraction) /
                                static_cast<double>(peers - 1);
      for (std::size_t g : mapping.HostsOfApp(a)) {
        if (g == h) continue;
        rates[src_switch][graph.SwitchOfHost(g)] += intra_rate;
      }
    }
    // Intercluster share, uniform over other-application hosts.
    if (sends_out) {
      std::size_t others = 0;
      for (std::size_t b = 0; b < apps.size(); ++b) {
        if (b != a) others += mapping.HostsOfApp(b).size();
      }
      if (others > 0) {
        const double inter_rate =
            app.traffic_weight * app.intercluster_fraction / static_cast<double>(others);
        for (std::size_t b = 0; b < apps.size(); ++b) {
          if (b == a) continue;
          for (std::size_t g : mapping.HostsOfApp(b)) {
            rates[src_switch][graph.SwitchOfHost(g)] += inter_rate;
          }
        }
      }
    }
  }
  return rates;
}

std::vector<double> EstimateAppIntensities(const std::vector<std::vector<double>>& rates,
                                           const qual::Partition& partition) {
  const std::size_t n = partition.switch_count();
  CS_CHECK(rates.size() == n, "rate matrix size must match the partition");
  std::vector<double> intensity(partition.cluster_count(), 0.0);
  std::vector<double> pair_count(partition.cluster_count(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    CS_CHECK(rates[i].size() == n, "rate matrix must be square");
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t c = partition.ClusterOf(i);
      if (c != partition.ClusterOf(j)) continue;
      intensity[c] += rates[i][j] + rates[j][i];
      pair_count[c] += 1.0;
    }
  }
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t c = 0; c < intensity.size(); ++c) {
    if (pair_count[c] > 0.0) {
      intensity[c] /= pair_count[c];
      sum += intensity[c];
      ++counted;
    }
  }
  CS_CHECK(sum > 0.0, "no intracluster traffic observed");
  const double mean = sum / static_cast<double>(counted);
  for (double& v : intensity) v /= mean;
  return intensity;
}

}  // namespace commsched::sim
