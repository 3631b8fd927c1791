// Load-sweep driver: simulates a mapping from low load to saturation — the
// S1..S9 simulation points of the paper's Figures 3 and 5 — and extracts the
// throughput (maximum accepted traffic).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "simnet/simulator.h"

namespace commsched::sim {

struct SweepOptions {
  /// Explicit offered loads (flits/switch/cycle). If empty, `points` loads
  /// are spaced linearly in [min_rate, max_rate].
  std::vector<double> rates;
  double min_rate = 0.05;
  double max_rate = 1.2;
  std::size_t points = 9;  // the paper simulates S1..S9
  /// Run the points on a thread pool. Same determinism contract as the
  /// search engine's parallel_seeds (sched/engine.h): per-point RNG streams
  /// are derived up front, so parallel and sequential sweeps are identical.
  bool parallel = true;
  SimConfig config;
};

struct SweepPoint {
  double offered_rate = 0.0;  // configured injection rate
  SimMetrics metrics;
};

struct SweepResult {
  std::vector<SweepPoint> points;

  /// Throughput: maximum accepted traffic over the sweep (the paper's
  /// definition — "maximum amount of information delivered per time unit").
  [[nodiscard]] double Throughput() const;

  /// Mean latency at the lowest offered load (zero-load-ish latency).
  [[nodiscard]] double LowLoadLatency() const;

  /// First configured rate at which the run saturated, or +inf.
  [[nodiscard]] double SaturationRate() const;
};

/// Runs the sweep; each point simulates independently from an empty network
/// with a rate-specific RNG stream, so `parallel` does not change results.
/// Throws ConfigError, before simulating anything, on a knob out of range:
/// the SweepRates rule below, config.virtual_channels >= 1,
/// config.measure_cycles >= 1, and a rate that is negative or would ask a
/// host for more than one message per cycle (HostMessageProbabilities).
[[nodiscard]] SweepResult RunLoadSweep(const SwitchGraph& graph, const Routing& routing,
                                       const TrafficPattern& pattern,
                                       const SweepOptions& options);

/// Sweep with an explicit virtual-channel routing policy (Duato etc.);
/// options.config.virtual_channels must equal policy.vc_count().
[[nodiscard]] SweepResult RunLoadSweep(const SwitchGraph& graph, const VcRoutingPolicy& policy,
                                       const TrafficPattern& pattern,
                                       const SweepOptions& options);

/// Sweeps every pattern on one network as a single work list of pattern x
/// point runs, highest-rate points first, so one slow pattern or point does
/// not leave the pool idle behind a barrier. Result k equals
/// RunLoadSweep(graph, routing, patterns[k], options); RunLoadSweep is the
/// one-pattern case of this function.
[[nodiscard]] std::vector<SweepResult> RunLoadSweeps(const SwitchGraph& graph,
                                                     const Routing& routing,
                                                     std::span<const TrafficPattern> patterns,
                                                     const SweepOptions& options);

/// RunLoadSweeps with an explicit virtual-channel routing policy.
[[nodiscard]] std::vector<SweepResult> RunLoadSweeps(const SwitchGraph& graph,
                                                     const VcRoutingPolicy& policy,
                                                     std::span<const TrafficPattern> patterns,
                                                     const SweepOptions& options);

/// The loads a sweep will use (resolving the defaulting rule above). Without
/// explicit rates, throws ConfigError unless points >= 2 and
/// 0 < min_rate < max_rate.
[[nodiscard]] std::vector<double> SweepRates(const SweepOptions& options);

/// Bisects for the saturation load: the largest offered rate in
/// [min_rate, max_rate] whose run is not Saturated(), to within
/// `tolerance` flits/switch/cycle. Returns min_rate if even that saturates
/// and max_rate if nothing does. Deterministic in config.rng_seed.
[[nodiscard]] double FindSaturationLoad(const SwitchGraph& graph, const Routing& routing,
                                        const TrafficPattern& pattern, const SimConfig& config,
                                        double min_rate = 0.02, double max_rate = 2.5,
                                        double tolerance = 0.02);

}  // namespace commsched::sim
