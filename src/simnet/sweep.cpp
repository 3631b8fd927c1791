#include "simnet/sweep.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>

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

/// Throws ConfigError if some rate is negative or would ask a host of some
/// pattern for more than one message per cycle; NetworkSimulator::Run holds
/// the same limit as a contract.
void CheckHostBandwidth(const SwitchGraph& graph, std::span<const TrafficPattern> patterns,
                        const std::vector<double>& rates, std::size_t message_length_flits) {
  for (const double rate : rates) {
    if (!(rate >= 0.0)) {
      std::ostringstream message;
      message << "sweep rates must be >= 0 (got " << rate << ")";
      throw ConfigError(message.str());
    }
    for (const TrafficPattern& pattern : patterns) {
      double p = 0.0;
      for (const double q : HostMessageProbabilities(graph, pattern, message_length_flits, rate)) {
        p = std::max(p, q);
      }
      if (p > 1.0) {
        std::ostringstream message;
        message << "sweep rate " << rate
                << " exceeds host injection bandwidth (per-host message probability " << p
                << " > 1; rates up to " << rate / p << " fit)";
        throw ConfigError(message.str());
      }
    }
  }
}

/// Shared sweep driver; `make_simulator(pattern, config)` builds a fresh
/// simulator.
template <typename MakeSimulator>
std::vector<SweepResult> RunSweepsImpl(const SwitchGraph& graph,
                                       std::span<const TrafficPattern> patterns,
                                       const SweepOptions& options,
                                       MakeSimulator&& make_simulator) {
  if (options.config.virtual_channels == 0) {
    throw ConfigError("sweep vcs must be >= 1 (got 0)");
  }
  if (options.config.measure_cycles == 0) {
    throw ConfigError("sweep measure cycles must be >= 1 (got 0)");
  }
  const std::vector<double> rates = SweepRates(options);
  CheckHostBandwidth(graph, patterns, rates, options.config.message_length_flits);
  obs::Registry& registry = obs::Registry::Global();
  const obs::Span sweep_span("sweep.run", "points", patterns.size() * rates.size(),
                             &registry.GetTimer("sweep.run"));
  std::vector<SweepResult> results(patterns.size());
  for (SweepResult& result : results) {
    result.points.resize(rates.size());
    for (std::size_t k = 0; k < rates.size(); ++k) result.points[k].offered_rate = rates[k];
  }

  // Flat point x pattern work list, highest rates first: they simulate the
  // most flits, so starting them first keeps the tail short. Point k's RNG
  // stream advances the base seed k + 1 SplitMix64 steps, derived up front,
  // so neither the order nor the batching changes a result.
  std::vector<std::size_t> by_rate(rates.size());
  std::iota(by_rate.begin(), by_rate.end(), 0);
  std::stable_sort(by_rate.begin(), by_rate.end(),
                   [&](std::size_t a, std::size_t b) { return rates[a] > rates[b]; });
  auto run_job = [&](std::size_t job) {
    const std::size_t k = by_rate[job / patterns.size()];
    const std::size_t p = job % patterns.size();
    SimConfig config = options.config;
    std::uint64_t stream = config.rng_seed;
    for (std::size_t i = 0; i < k + 1; ++i) (void)SplitMix64(stream);
    config.rng_seed = stream;
    SweepPoint& point = results[p].points[k];
    const obs::Span point_span("sweep.point", "point", k);
    auto simulator = make_simulator(patterns[p], config);
    point.metrics = simulator.Run(rates[k]);
    if (obs::Tracer* tracer = obs::ActiveTracer()) {
      const SimMetrics& m = point.metrics;
      tracer->Emit(obs::TraceEvent("sweep.point")
                       .F("point", k)
                       .F("rate", rates[k])
                       .F("accepted", m.accepted_flits_per_switch_cycle)
                       .F("avg_latency", m.avg_latency_cycles)
                       .F("saturated", m.Saturated()));
    }
  };
  const std::size_t jobs = rates.size() * patterns.size();
  if (options.parallel && jobs > 1) {
    ParallelFor(jobs, run_job);
  } else {
    for (std::size_t job = 0; job < jobs; ++job) run_job(job);
  }
  registry.GetCounter("sweep.runs").Add(patterns.size());
  registry.GetCounter("sweep.points").Add(patterns.size() * rates.size());
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    for (const SweepResult& result : results) {
      tracer->Emit(obs::TraceEvent("sweep.done")
                       .F("points", rates.size())
                       .F("throughput", result.Throughput()));
    }
  }
  return results;
}

}  // namespace

std::vector<SweepResult> RunLoadSweeps(const SwitchGraph& graph, const Routing& routing,
                                       std::span<const TrafficPattern> patterns,
                                       const SweepOptions& options) {
  return RunSweepsImpl(graph, patterns, options,
                       [&](const TrafficPattern& pattern, const SimConfig& config) {
                         return NetworkSimulator(graph, routing, pattern, config);
                       });
}

std::vector<SweepResult> RunLoadSweeps(const SwitchGraph& graph, const VcRoutingPolicy& policy,
                                       std::span<const TrafficPattern> patterns,
                                       const SweepOptions& options) {
  return RunSweepsImpl(graph, patterns, options,
                       [&](const TrafficPattern& pattern, const SimConfig& config) {
                         return NetworkSimulator(graph, policy, pattern, config);
                       });
}

SweepResult RunLoadSweep(const SwitchGraph& graph, const Routing& routing,
                         const TrafficPattern& pattern, const SweepOptions& options) {
  return std::move(RunLoadSweeps(graph, routing, {&pattern, 1}, options).front());
}

SweepResult RunLoadSweep(const SwitchGraph& graph, const VcRoutingPolicy& policy,
                         const TrafficPattern& pattern, const SweepOptions& options) {
  return std::move(RunLoadSweeps(graph, policy, {&pattern, 1}, options).front());
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
