// Measurement outputs of one simulation run.
#pragma once

#include <cstddef>
#include <vector>

namespace commsched::sim {

struct SimMetrics {
  /// Offered load: generated flits / switch / cycle (measurement window).
  double offered_flits_per_switch_cycle = 0.0;

  /// Accepted traffic: delivered flits / switch / cycle — the paper's
  /// "traffic" axis; its maximum over a load sweep is the throughput.
  double accepted_flits_per_switch_cycle = 0.0;

  /// Mean network latency (header injection -> tail delivery), cycles,
  /// over messages delivered inside the measurement window.
  double avg_latency_cycles = 0.0;

  /// Mean total latency (generation -> tail delivery) including source
  /// queueing.
  double avg_total_latency_cycles = 0.0;

  /// Network-latency order statistics over delivered messages (0 when
  /// nothing was delivered).
  double p50_latency_cycles = 0.0;
  double p95_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  double max_latency_cycles = 0.0;

  std::size_t messages_generated = 0;
  std::size_t messages_delivered = 0;
  std::size_t flits_delivered = 0;

  /// Cycle the run terminated at: warmup + measure unless the deadlock
  /// watchdog stopped it early (skipped idle spans count as simulated time).
  std::size_t simulated_cycles = 0;

  /// Source-queue growth over the measurement window, flits/cycle/switch:
  /// ~0 below saturation, (offered - accepted) beyond it.
  double source_queue_growth = 0.0;

  /// Busiest / mean directed-link utilization (flit transfers per cycle).
  double max_link_utilization = 0.0;
  double avg_link_utilization = 0.0;

  bool deadlock_detected = false;

  /// Degraded-mode outcomes (all 0 unless SimConfig::fault_plan was set).
  std::size_t fault_events_applied = 0;
  std::size_t dropped_flits = 0;     // in-flight flits purged by faults
  std::size_t messages_lost = 0;     // messages dropped (in flight or queued)
  std::size_t reconfig_cycles = 0;   // cycles spent with arbitration frozen

  /// Delivered flits per (source switch, destination switch) per measured
  /// cycle. Empty unless SimConfig::collect_traffic_matrix was set.
  std::vector<std::vector<double>> switch_pair_flit_rate;

  /// Per-application breakdown (indexed by application id). Always filled.
  struct AppMetrics {
    std::size_t messages_delivered = 0;
    std::size_t flits_delivered = 0;
    double avg_latency_cycles = 0.0;  // network latency, delivered messages
  };
  std::vector<AppMetrics> per_app;

  /// Heuristic saturation flag: accepted lags offered by >5 % or the source
  /// queues grow steadily.
  [[nodiscard]] bool Saturated() const {
    return deadlock_detected ||
           accepted_flits_per_switch_cycle < 0.95 * offered_flits_per_switch_cycle;
  }
};

}  // namespace commsched::sim
