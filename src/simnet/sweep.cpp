#include "simnet/sweep.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "common/parallel.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace commsched::sim {

double SweepResult::Throughput() const {
  double best = 0.0;
  for (const SweepPoint& point : points) {
    best = std::max(best, point.metrics.accepted_flits_per_switch_cycle);
  }
  return best;
}

double SweepResult::LowLoadLatency() const {
  CS_CHECK(!points.empty(), "empty sweep");
  return points.front().metrics.avg_latency_cycles;
}

double SweepResult::SaturationRate() const {
  for (const SweepPoint& point : points) {
    if (point.metrics.Saturated()) {
      return point.offered_rate;
    }
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<double> SweepRates(const SweepOptions& options) {
  if (!options.rates.empty()) {
    return options.rates;
  }
  if (options.points < 2) {
    throw ConfigError("sweep points must be >= 2 (got " + std::to_string(options.points) + ")");
  }
  if (!(options.min_rate > 0.0 && options.min_rate < options.max_rate)) {
    std::ostringstream message;
    message << "sweep rates need 0 < min_rate < max_rate (got min_rate " << options.min_rate
            << ", max_rate " << options.max_rate << ")";
    throw ConfigError(message.str());
  }
  std::vector<double> rates(options.points);
  for (std::size_t k = 0; k < options.points; ++k) {
    rates[k] = options.min_rate + (options.max_rate - options.min_rate) *
                                      static_cast<double>(k) /
                                      static_cast<double>(options.points - 1);
  }
  return rates;
}

namespace {

/// Shared sweep driver; `make_simulator(config)` builds a fresh simulator.
template <typename MakeSimulator>
SweepResult RunSweepImpl(const SweepOptions& options, MakeSimulator&& make_simulator) {
  if (options.config.virtual_channels == 0) {
    throw ConfigError("sweep vcs must be >= 1 (got 0)");
  }
  if (options.config.measure_cycles == 0) {
    throw ConfigError("sweep measure cycles must be >= 1 (got 0)");
  }
  obs::Registry& registry = obs::Registry::Global();
  const std::vector<double> rates = SweepRates(options);
  const obs::Span sweep_span("sweep.run", "points", rates.size(),
                             &registry.GetTimer("sweep.run"));
  const std::size_t replicates = std::max<std::size_t>(options.seed_replicates, 1);
  SweepResult result;
  result.points.resize(rates.size());
  for (std::size_t k = 0; k < rates.size(); ++k) {
    result.points[k].offered_rate = rates[k];
    result.points[k].replicates.resize(replicates);
  }

  // Flat points x replicates work list; every (point, replicate) pair gets
  // an independent, pre-derived RNG stream, so parallel order is irrelevant.
  // Replicate r of point k advances the base seed (k + 1) + r SplitMix64
  // steps: r == 0 reproduces the single-replicate stream exactly.
  auto run_job = [&](std::size_t job) {
    const std::size_t k = job / replicates;
    const std::size_t r = job % replicates;
    SimConfig config = options.config;
    std::uint64_t stream = config.rng_seed;
    for (std::size_t i = 0; i < (k + 1) + r; ++i) (void)SplitMix64(stream);
    config.rng_seed = stream;
    if (r == 0) {
      const obs::Span point_span("sweep.point", "point", k);
      auto simulator = make_simulator(config);
      result.points[k].replicates[0] = simulator.Run(rates[k]);
      result.points[k].metrics = result.points[k].replicates[0];
      if (obs::Tracer* tracer = obs::ActiveTracer()) {
        const SimMetrics& m = result.points[k].metrics;
        tracer->Emit(obs::TraceEvent("sweep.point")
                         .F("point", k)
                         .F("rate", rates[k])
                         .F("accepted", m.accepted_flits_per_switch_cycle)
                         .F("avg_latency", m.avg_latency_cycles)
                         .F("saturated", m.Saturated()));
      }
    } else {
      auto simulator = make_simulator(config);
      result.points[k].replicates[r] = simulator.Run(rates[k]);
    }
  };
  const std::size_t jobs = rates.size() * replicates;
  if (options.parallel && jobs > 1) {
    ParallelFor(jobs, run_job);
  } else {
    for (std::size_t job = 0; job < jobs; ++job) run_job(job);
  }
  registry.GetCounter("sweep.runs").Add(1);
  registry.GetCounter("sweep.points").Add(rates.size());
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    tracer->Emit(obs::TraceEvent("sweep.done")
                     .F("points", rates.size())
                     .F("throughput", result.Throughput()));
  }
  return result;
}

}  // namespace

SweepResult RunLoadSweep(const SwitchGraph& graph, const Routing& routing,
                         const TrafficPattern& pattern, const SweepOptions& options) {
  return RunSweepImpl(options, [&](const SimConfig& config) {
    return NetworkSimulator(graph, routing, pattern, config);
  });
}

SweepResult RunLoadSweep(const SwitchGraph& graph, const VcRoutingPolicy& policy,
                         const TrafficPattern& pattern, const SweepOptions& options) {
  return RunSweepImpl(options, [&](const SimConfig& config) {
    return NetworkSimulator(graph, policy, pattern, config);
  });
}

double FindSaturationLoad(const SwitchGraph& graph, const Routing& routing,
                          const TrafficPattern& pattern, const SimConfig& config,
                          double min_rate, double max_rate, double tolerance) {
  CS_CHECK(min_rate > 0.0 && max_rate > min_rate, "invalid saturation search range");
  CS_CHECK(tolerance > 0.0, "tolerance must be positive");
  auto saturated_at = [&](double rate) {
    NetworkSimulator simulator(graph, routing, pattern, config);
    return simulator.Run(rate).Saturated();
  };
  if (saturated_at(min_rate)) return min_rate;
  if (!saturated_at(max_rate)) return max_rate;
  double lo = min_rate;  // known good
  double hi = max_rate;  // known saturated
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    (saturated_at(mid) ? hi : lo) = mid;
  }
  return lo;
}

}  // namespace commsched::sim
