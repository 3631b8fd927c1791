// Simulator configuration.
//
// The evaluation methodology follows the paper (§5): flit-level model,
// wormhole switching, cycle-accurate link/switch timing — one flit per link
// per cycle, one cycle routing decision for header flits, input-buffered
// switches with credit flow control.
#pragma once

#include <cstddef>
#include <cstdint>

namespace commsched::faults {
class FaultPlan;
}  // namespace commsched::faults

namespace commsched::sim {

struct SimConfig {
  /// Flits per message (header + body; the tail is the last flit).
  std::size_t message_length_flits = 16;

  /// Capacity of each input buffer, in flits.
  std::size_t input_buffer_flits = 4;

  /// false: deterministic routing (first minimal legal candidate).
  /// true: adaptive — a header may claim any free minimal legal output.
  /// (Used by the Routing-based constructor; ignored when an explicit
  /// VcRoutingPolicy is supplied.)
  bool adaptive_routing = false;

  /// Virtual channels per physical link (private buffers, shared 1
  /// flit/cycle bandwidth). Duato fully-adaptive routing needs >= 2.
  std::size_t virtual_channels = 1;

  /// Cycles simulated before statistics collection starts.
  std::size_t warmup_cycles = 10000;

  /// Cycles of the measurement window.
  std::size_t measure_cycles = 30000;

  /// Injection-rate randomness and destination sampling seed.
  std::uint64_t rng_seed = 1;

  /// If no flit moves for this many consecutive cycles while flits are in
  /// flight, declare deadlock and stop (safety net: up*/down* cannot
  /// deadlock, unrestricted routing can).
  std::size_t deadlock_threshold_cycles = 5000;

  /// When structured tracing is enabled (obs::SetTracer), emit a
  /// "sim.milestone" event every this many cycles (0 disables milestones).
  /// Has no cost while tracing is off.
  std::size_t trace_milestone_cycles = 5000;

  /// When structured tracing is enabled, sample deep network telemetry
  /// every this many *measured* cycles (0 disables): per-virtual-channel
  /// buffer occupancies are recorded (flushed into the `net.vc.occupancy`
  /// registry histogram after the run) and a `net.sample` trace event is
  /// emitted carrying the windowed per-link flit utilization and delivery
  /// counts. Has no cost while tracing is off.
  std::size_t telemetry_sample_cycles = 0;

  /// Record delivered flits per (source switch, destination switch) during
  /// the measurement window (SimMetrics::switch_pair_flit_rate) — the
  /// "measurement of communication requirements" the paper defers to future
  /// work; feeds sim::EstimateAppIntensities (the λ_c of F_G^λ).
  bool collect_traffic_matrix = false;

  /// Optional schedule of mid-run link/switch failures (must outlive the
  /// simulator; nullptr = no faults). When set, the simulator runs in
  /// degraded mode: flits on dead components are dropped and counted,
  /// routing is rebuilt on the largest surviving component and swapped
  /// atomically after `reconfig_downtime_cycles` of frozen arbitration
  /// (in-flight transfers keep draining during the window, mirroring
  /// Autonet's self-reconfiguration pause).
  const faults::FaultPlan* fault_plan = nullptr;

  /// Cycles between a fault event and the atomic routing swap (0 =
  /// same-cycle swap). Models the Autonet topology-acquisition +
  /// route-recomputation pause.
  std::size_t reconfig_downtime_cycles = 128;
};

}  // namespace commsched::sim
