#include "hetero/combined.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/parallel.h"
#include "common/rng.h"
#include "sched/tabu.h"

namespace commsched::hetero {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void Validate(const HeteroSystem& system, const std::vector<ApplicationDemand>& apps) {
  CS_CHECK(system.graph != nullptr && system.table != nullptr, "system wiring incomplete");
  CS_CHECK(system.switch_speed.size() == system.graph->switch_count(),
           "need one speed per switch");
  for (double speed : system.switch_speed) {
    CS_CHECK(speed > 0.0, "switch speeds must be positive");
  }
  CS_CHECK(system.table->size() == system.graph->switch_count(), "table / graph mismatch");
  CS_CHECK(!apps.empty(), "need at least one application");
  std::size_t total = 0;
  for (const ApplicationDemand& app : apps) {
    CS_CHECK(app.cluster_switches >= 1, "application '", app.name, "' occupies no switches");
    CS_CHECK(app.compute_work >= 0.0 && app.comm_intensity >= 0.0,
             "negative demand for '", app.name, "'");
    total += app.cluster_switches;
  }
  CS_CHECK(total == system.graph->switch_count(),
           "applications occupy ", total, " switches but the network has ",
           system.graph->switch_count());
}

std::vector<std::size_t> ClusterSizes(const std::vector<ApplicationDemand>& apps) {
  std::vector<std::size_t> sizes;
  sizes.reserve(apps.size());
  for (const ApplicationDemand& app : apps) sizes.push_back(app.cluster_switches);
  return sizes;
}

}  // namespace

std::vector<AppEstimate> EstimateApps(const HeteroSystem& system,
                                      const std::vector<ApplicationDemand>& apps,
                                      const qual::Partition& partition) {
  Validate(system, apps);
  CS_CHECK(partition.cluster_count() == apps.size(), "one cluster per application required");
  const double mean_sq = system.table->MeanSquaredDistance();
  std::vector<AppEstimate> estimates(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    CS_CHECK(partition.ClusterSize(a) == apps[a].cluster_switches,
             "cluster ", a, " size mismatch for '", apps[a].name, "'");
    const auto members = partition.Members(a);
    double speed = 0.0;
    for (std::size_t s : members) speed += system.switch_speed[s];
    estimates[a].compute_time = apps[a].compute_work / speed;
    if (members.size() >= 2) {
      double sq = 0.0;
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          const double d = (*system.table)(members[i], members[j]);
          sq += d * d;
        }
      }
      const double pairs = static_cast<double>(members.size() * (members.size() - 1) / 2);
      estimates[a].comm_time = apps[a].comm_intensity * (sq / pairs) / mean_sq;
    } else {
      estimates[a].comm_time = 0.0;  // single-switch: traffic stays local
    }
  }
  return estimates;
}

double EstimateMakespan(const HeteroSystem& system, const std::vector<ApplicationDemand>& apps,
                        const qual::Partition& partition) {
  double makespan = 0.0;
  for (const AppEstimate& e : EstimateApps(system, apps, partition)) {
    makespan = std::max(makespan, e.Time());
  }
  return makespan;
}

namespace {

/// Heaviest applications (by compute work per switch) get the fastest
/// switches, compute-only style (ignores distance entirely).
qual::Partition ComputeOnlyPartition(const HeteroSystem& system,
                                     const std::vector<ApplicationDemand>& apps) {
  const std::size_t n = system.graph->switch_count();
  std::vector<std::size_t> switch_order(n);
  std::iota(switch_order.begin(), switch_order.end(), std::size_t{0});
  std::sort(switch_order.begin(), switch_order.end(), [&](std::size_t a, std::size_t b) {
    return system.switch_speed[a] > system.switch_speed[b];
  });
  std::vector<std::size_t> app_order(apps.size());
  std::iota(app_order.begin(), app_order.end(), std::size_t{0});
  std::sort(app_order.begin(), app_order.end(), [&](std::size_t a, std::size_t b) {
    const double da = apps[a].compute_work / static_cast<double>(apps[a].cluster_switches);
    const double db = apps[b].compute_work / static_cast<double>(apps[b].cluster_switches);
    return da > db;
  });
  std::vector<std::size_t> cluster_of(n, 0);
  std::size_t at = 0;
  for (std::size_t app : app_order) {
    for (std::size_t k = 0; k < apps[app].cluster_switches; ++k) {
      cluster_of[switch_order[at++]] = app;
    }
  }
  return qual::Partition(std::move(cluster_of));
}

/// The paper's partition: Tabu on F_G, clusters sized per application.
qual::Partition CommOnlyPartition(const HeteroSystem& system,
                                  const std::vector<ApplicationDemand>& apps,
                                  std::uint64_t seed) {
  sched::TabuOptions options;
  options.rng_seed = seed;
  options.max_iterations_per_seed = sched::DefaultTabuIterations(system.graph->switch_count());
  return sched::TabuSearch(*system.table, ClusterSizes(apps), options).best;
}

/// Steepest descent on the estimated makespan over inter-cluster swaps.
qual::Partition DescendMakespan(const HeteroSystem& system,
                                const std::vector<ApplicationDemand>& apps,
                                qual::Partition partition, std::size_t max_iterations) {
  const std::size_t n = partition.switch_count();
  double current = EstimateMakespan(system, apps, partition);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    double best = current;
    std::pair<std::size_t, std::size_t> move{n, n};
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (partition.ClusterOf(a) == partition.ClusterOf(b)) continue;
        partition.Swap(a, b);
        const double candidate = EstimateMakespan(system, apps, partition);
        partition.Swap(a, b);
        if (candidate < best - 1e-12) {
          best = candidate;
          move = {a, b};
        }
      }
    }
    if (move.first >= n) break;
    partition.Swap(move.first, move.second);
    current = best;
  }
  return partition;
}

/// Descends every start (optionally on a thread pool) and returns the best
/// local minimum. Starts must be fully derived before the call; results are
/// combined sequentially in start order, so parallel and sequential
/// execution pick the same winner.
qual::Partition BestDescent(const HeteroSystem& system,
                            const std::vector<ApplicationDemand>& apps,
                            std::vector<qual::Partition> starts, const HeteroOptions& options) {
  std::vector<double> makespan(starts.size(), 0.0);
  auto descend_one = [&](std::size_t i) {
    starts[i] = DescendMakespan(system, apps, std::move(starts[i]), options.max_iterations);
    makespan[i] = EstimateMakespan(system, apps, starts[i]);
  };
  if (options.parallel_seeds && starts.size() > 1) {
    ParallelFor(starts.size(), descend_one);
  } else {
    for (std::size_t i = 0; i < starts.size(); ++i) descend_one(i);
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    if (makespan[i] < makespan[best] - 1e-12) best = i;
  }
  return std::move(starts[best]);
}

}  // namespace

HeteroOutcome ScheduleHetero(const HeteroSystem& system,
                             const std::vector<ApplicationDemand>& apps,
                             HeteroStrategy strategy, const HeteroOptions& options) {
  Validate(system, apps);

  qual::Partition partition = [&] {
    switch (strategy) {
      case HeteroStrategy::kComputeOnly: {
        // Communication-blind: optimize the compute makespan only (greedy
        // speed packing refined by descent with comm demands zeroed — plain
        // greedy is poor when demands are uniform and fast switches scarce).
        std::vector<ApplicationDemand> compute_apps = apps;
        for (ApplicationDemand& app : compute_apps) app.comm_intensity = 0.0;
        std::vector<qual::Partition> starts;
        starts.reserve(options.restarts + 1);
        starts.push_back(ComputeOnlyPartition(system, apps));
        Rng rng(options.rng_seed);
        for (std::size_t r = 0; r < options.restarts; ++r) {
          starts.push_back(qual::Partition::Random(ClusterSizes(apps), rng));
        }
        return BestDescent(system, compute_apps, std::move(starts), options);
      }
      case HeteroStrategy::kCommunicationOnly:
        return CommOnlyPartition(system, apps, options.rng_seed);
      case HeteroStrategy::kCombined: {
        // Seed the makespan descent from both single-objective solutions
        // plus random restarts; keep the best local minimum.
        std::vector<qual::Partition> starts;
        starts.reserve(options.restarts + 2);
        starts.push_back(ComputeOnlyPartition(system, apps));
        starts.push_back(CommOnlyPartition(system, apps, options.rng_seed));
        Rng rng(options.rng_seed);
        for (std::size_t r = 0; r < options.restarts; ++r) {
          starts.push_back(qual::Partition::Random(ClusterSizes(apps), rng));
        }
        return BestDescent(system, apps, std::move(starts), options);
      }
    }
    CS_UNREACHABLE("unknown strategy");
  }();

  HeteroOutcome outcome{std::move(partition), {}, 0.0};
  outcome.per_app = EstimateApps(system, apps, outcome.partition);
  for (const AppEstimate& e : outcome.per_app) {
    outcome.makespan = std::max(outcome.makespan, e.Time());
  }
  return outcome;
}

std::string ToString(HeteroStrategy strategy) {
  switch (strategy) {
    case HeteroStrategy::kComputeOnly:
      return "compute-only";
    case HeteroStrategy::kCommunicationOnly:
      return "communication-only";
    case HeteroStrategy::kCombined:
      return "combined";
  }
  CS_UNREACHABLE("unknown strategy");
}

}  // namespace commsched::hetero
