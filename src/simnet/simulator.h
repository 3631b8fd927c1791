// Flit-level wormhole network simulator.
//
// Model (per the paper's §5 evaluation methodology, after [8]):
//   * input-buffered switches; every inter-switch link is two unidirectional
//     physical channels, each multiplexed into `virtual_channels` virtual
//     channels with private input FIFOs of `input_buffer_flits` flits;
//   * wormhole switching: a header flit claims one virtual channel of an
//     output link (routing takes one cycle — the claim happens the cycle
//     after arrival at the earliest); the VC is held until the tail passes;
//   * credit flow control: a flit advances only when the downstream VC
//     buffer has a free slot; physical link bandwidth is one flit per cycle,
//     shared round-robin among its VCs;
//   * hosts inject through per-host injection queues (one flit per cycle)
//     and consume through per-host delivery ports (one flit per cycle);
//   * message arrivals are a per-host Bernoulli process (sampled as
//     geometric inter-arrival gaps from per-host streams; see arrivals.h);
//     destinations come from a TrafficPattern; which (link, VC) a header may
//     claim comes from a VcRoutingPolicy (plain up*/down*, adaptive, or
//     Duato fully-adaptive with an escape channel).
//
// The engine is cycle-synchronous but event-driven: active sets and an
// arrival event queue mean only elements with due work are visited, and idle
// spans are skipped in O(1). Its results equal, byte for byte, those of a
// reference model that visits every switch, channel and host in ascending
// order on every cycle (tests/data/sim_metrics.golden.txt, DESIGN.md §11).
//
// Up*/down* routing is deadlock-free on a single virtual channel (see
// routing/deadlock.h) and per-VC on many; a watchdog detects deadlock for
// configurations that are not.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "faults/degraded.h"
#include "faults/fault_plan.h"
#include "routing/routing.h"
#include "simnet/arrivals.h"
#include "simnet/config.h"
#include "simnet/event_queue.h"
#include "simnet/metrics.h"
#include "simnet/traffic.h"
#include "simnet/vc_routing.h"

namespace commsched::sim {

using route::Phase;
using route::Routing;

/// Whole-run conservation totals (debug/property-test surface; cumulative
/// over the last Run, warmup included). Invariants after every Run:
///   flits_injected == flits_delivered + flits_dropped + flits_in_network
///   flits_buffered == flits_in_network
///   messages_lost  >= messages_born_dead
struct SimTotals {
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t flits_dropped = 0;
  std::uint64_t flits_in_network = 0;
  std::uint64_t messages_enqueued = 0;
  std::uint64_t messages_born_dead = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t flits_buffered = 0;  // summed buffer sizes
};

/// Per-host message-arrival probability per cycle at an offered load of
/// `rate` flits per switch per cycle: the aggregate load rate * switch_count
/// is split across hosts by traffic weight, in messages of
/// `message_length_flits` flits. A value above 1 exceeds what a host can
/// inject; NetworkSimulator::Run rejects it as a contract violation.
[[nodiscard]] std::vector<double> HostMessageProbabilities(const SwitchGraph& graph,
                                                           const TrafficPattern& pattern,
                                                           std::size_t message_length_flits,
                                                           double rate);

class NetworkSimulator {
 public:
  /// Single-class convenience: all VCs route via `routing`
  /// (config.adaptive_routing selects link adaptivity). graph/routing/
  /// pattern must outlive the simulator.
  NetworkSimulator(const SwitchGraph& graph, const Routing& routing,
                   const TrafficPattern& pattern, const SimConfig& config);

  /// Full control over VC usage; `policy` must be built for `graph` and
  /// have vc_count == config.virtual_channels.
  NetworkSimulator(const SwitchGraph& graph, const VcRoutingPolicy& policy,
                   const TrafficPattern& pattern, const SimConfig& config);

  /// Runs warmup + measurement at the given offered load (flits per switch
  /// per cycle, aggregated over the switch's hosts) and returns the metrics.
  /// Each call restarts the simulation from an empty network.
  [[nodiscard]] SimMetrics Run(double injection_flits_per_switch_cycle);

  /// Conservation totals of the last Run (see SimTotals).
  [[nodiscard]] SimTotals Totals() const;

 private:
  // ---- static structure -------------------------------------------------
  /// One flit: its message and its sequence number within the message.
  struct Flit {
    std::uint32_t msg = 0;
    std::uint32_t seq = 0;
  };

  /// An input FIFO: a ring of config_.input_buffer_flits slots in flits_.
  struct Buffer {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t front = 0;  // ring slot of the oldest flit
    std::size_t size = 0;
    std::size_t ready = 0;  // prefix of the ring visible to arbitration/transfer
    /// Output currently pulling from this buffer (wormhole hold), or kNone.
    std::size_t granted_output = kNone;
    [[nodiscard]] bool FrontReady() const { return ready > 0; }
  };

  struct OutputPort {
    static constexpr std::size_t kFree = static_cast<std::size_t>(-1);
    std::size_t owner = kFree;          // message holding this VC/port
    std::size_t source_buffer = kFree;  // input buffer the owner streams from
    Phase next_phase = Phase::kUp;      // message phase after crossing
    bool next_escape = false;           // escape commitment after crossing
    std::uint64_t flits_moved_measured = 0;
  };

  struct Message {
    std::size_t src_host = 0;
    std::size_t dst_host = 0;
    std::size_t dst_switch = 0;
    std::size_t length = 0;
    std::size_t gen_cycle = 0;
    std::size_t inject_cycle = static_cast<std::size_t>(-1);
    std::size_t current_switch = 0;
    Phase phase = Phase::kUp;
    bool on_escape = false;
    bool lost = false;  // dropped by a fault / reconfiguration
  };

  // Index layout (V = virtual channel count, L = link count, H = hosts):
  //   directed physical channel c in [0, 2L): c = 2*link + dir (dir 0: a->b)
  //   link VC buffer/output id: c * V + vc, in [0, 2L*V)
  //   injection buffer of host h / delivery port of host h: 2L*V + h
  [[nodiscard]] std::size_t ChannelCount() const { return 2 * graph_->link_count(); }
  [[nodiscard]] std::size_t LinkVcCount() const { return ChannelCount() * vc_count_; }
  [[nodiscard]] std::size_t ChannelFrom(std::size_t channel) const;
  [[nodiscard]] std::size_t ChannelTo(std::size_t channel) const;
  [[nodiscard]] std::size_t InjectionBuffer(std::size_t host) const;
  [[nodiscard]] std::size_t DeliveryPort(std::size_t host) const;

  [[nodiscard]] bool IsHeadFlit(Flit flit) const { return flit.seq == 0; }
  [[nodiscard]] bool IsTailFlit(Flit flit) const {
    return flit.seq + 1 == messages_[flit.msg].length;
  }
  [[nodiscard]] bool HasSpace(const Buffer& buffer) const {
    return buffer.size < config_.input_buffer_flits;
  }
  /// Arena index of the k-th oldest slot of buffer b, which owns slots
  /// [b * input_buffer_flits, (b + 1) * input_buffer_flits).
  [[nodiscard]] std::size_t SlotOf(std::size_t b, std::size_t k) const {
    const std::size_t capacity = config_.input_buffer_flits;
    std::size_t slot = buffers_[b].front + k;
    if (slot >= capacity) slot -= capacity;
    return b * capacity + slot;
  }
  /// The k-th oldest flit of buffer b (k < its size).
  [[nodiscard]] Flit FlitAt(std::size_t b, std::size_t k) const { return flits_[SlotOf(b, k)]; }

  void Init();
  void ResetState();
  /// One simulation step: one visited cycle plus any idle span skipped after
  /// it. `limit` is the exclusive upper bound the skip may reach (phase end).
  void StepCycle(std::size_t limit);
  void ArbitratePhase();
  void TransferPhase();
  void InjectPhase();
  void GeneratePhase();
  void FinalizeCycle();

  // ---- per-element bodies, visited from the active sets -------------------
  /// Arbitration at one switch over its eligible, unparked inputs; returns
  /// true while any ready, ungranted header remains (the switch stays
  /// active to retry next cycle).
  bool ArbitrateSwitch(std::size_t s);
  /// Claims an output for the header at the front of input buffer b; returns
  /// true on a grant.
  bool GrantHeader(std::size_t b);
  /// Sets b's eligible bit (and wakes its switch) if b's front flit is a
  /// ready header without a grant.
  void MarkIfEligible(std::size_t b);
  /// One flit over one physical channel (VC round-robin); returns true if a
  /// flit moved (the channel stays active).
  bool TransferChannel(std::size_t c);
  /// One flit from host h's source queue into its injection buffer; returns
  /// true while the host can keep injecting next cycle.
  bool InjectHost(std::size_t h);
  /// Materializes an arrival at host h this cycle (destination sampling,
  /// born-dead accounting, enqueue). Discards silently if h is cut off.
  void GenerateArrival(std::size_t h);
  /// Schedules host h's next arrival event (from its geometric stream).
  void ScheduleArrival(std::size_t h, std::size_t from_cycle);

  // ---- event bookkeeping -------------------------------------------------
  void PushFlit(std::size_t index, Flit flit);
  /// Removes and returns the front flit of buffer `index` (defined here so
  /// that the per-hop path inlines it).
  Flit PopFlit(std::size_t index) {
    Buffer& buffer = buffers_[index];
    CS_DCHECK(buffer.size > 0, "pop from an empty buffer");
    const Flit flit = FlitAt(index, 0);
    if (++buffer.front == config_.input_buffer_flits) buffer.front = 0;
    --buffer.size;
    --buffer.ready;
    return flit;
  }
  /// Rebuilds every active set from the network state; used after fault
  /// purges/reconfigurations invalidate incremental wake tracking.
  void RebuildActiveSets();
  /// With no active element and no arrival due, jumps cycle_ forward to the
  /// next cycle anything can happen (arrival, fault, deadlock-watchdog
  /// expiry, trace boundary, `limit`), accounting skipped cycles as idle.
  void SkipIdleSpan(std::size_t limit);
  void UpdateIdleState();

  // ---- degraded mode (ISSUE 3; active only when config.fault_plan) -------
  /// Applies every fault event due at the current cycle, drops traffic that
  /// died with the hardware, and opens/extends the reconfiguration downtime
  /// window; completes a due reconfiguration (atomic routing swap).
  void AdvanceFaultState();

  /// Marks every message with flits on dead links / dead switches (or
  /// destined to a dead switch) lost and purges it from the network.
  void DropDeadTraffic();

  /// Rebuilds up*/down* routing on the largest surviving component
  /// (graceful partition handling), swaps the routing policy atomically,
  /// reconciles in-flight message phases with the new link orientation, and
  /// drops messages stranded outside the surviving component.
  void CompleteReconfiguration();

  /// Marks `msg` lost (once) and counts it.
  void MarkMessageLost(std::size_t msg);

  /// Purges every flit of lost messages from all buffers, releases output
  /// ports they held, and scrubs them from the source queues.
  void PurgeLostMessages();

  /// One telemetry sample (active tracer + telemetry_sample_cycles only):
  /// records per-VC buffer occupancies and emits a net.sample trace event
  /// with the windowed per-link utilization.
  void SampleTelemetry();

  /// Once-per-run flush of distribution metrics into the global registry:
  /// the net.latency histogram (from the collected latency samples), the
  /// net.vc.occupancy histogram (when telemetry sampled), and the
  /// link.util.<from>.<to> per-directed-link flit counters.
  void FlushDistributionMetrics();

  /// Moves one flit through output `o` if possible; returns true on success.
  bool TryMoveThroughOutput(std::size_t o);

  // ---- wiring ------------------------------------------------------------
  const SwitchGraph* graph_;
  const TrafficPattern* pattern_;
  SimConfig config_;
  std::unique_ptr<VcRoutingPolicy> owned_policy_;  // set by the Routing ctor
  /// The base policy compiled for arbitration; survives across Run() calls.
  CompiledVcRoutes base_routes_;
  std::size_t vc_count_ = 1;

  std::vector<std::vector<std::size_t>> inputs_at_switch_;
  std::vector<std::size_t> switch_of_buffer_;  // arbitrating switch per buffer
  /// Switch s's input bits are words [eligible_offset_[s], eligible_offset_[s+1])
  /// of eligible_, bit k standing for inputs_at_switch_[s][k].
  std::vector<std::size_t> eligible_offset_;
  std::vector<std::size_t> eligible_bit_;  // per buffer: its bit in eligible_

  // ---- dynamic state -----------------------------------------------------
  ArrivalStreams arrivals_;
  EventQueue arrival_queue_;  // (cycle, host) message-arrival events
  std::vector<Buffer> buffers_;
  std::vector<Flit> flits_;  // every buffer's ring, input_buffer_flits slots each
  std::vector<OutputPort> outputs_;
  std::vector<Message> messages_;
  std::vector<std::deque<std::size_t>> source_queue_;  // message ids per host
  std::vector<std::size_t> source_flits_pushed_;       // of each host's head message
  std::vector<double> inject_prob_;                    // per host per cycle
  std::vector<std::size_t> channel_rr_;                // VC rotation per physical channel

  /// Eligible-input mask: a set bit marks an input whose front flit is a
  /// ready header without a grant; arbitration visits only these.
  std::vector<std::uint64_t> eligible_;
  /// Eligible inputs whose last claim failed and whose switch has freed no
  /// output port since; a retry would fail again, so arbitration skips them.
  std::vector<std::uint64_t> parked_;

  // Active sets: the elements that may do work in the coming cycle.
  ActiveSet arb_switches_;     // switches with a ready, ungranted header
  ActiveSet channel_active_;   // physical channels that may move a flit
  ActiveSet delivery_active_;  // hosts whose delivery port may consume
  ActiveSet inject_active_;    // hosts that may push an injection flit
  ActiveSet touched_set_;      // buffers pushed into this cycle...
  std::vector<std::size_t> touched_buffers_;  // ...listed for FinalizeCycle
  bool active_sets_stale_ = false;

  std::size_t cycle_ = 0;
  bool measuring_ = false;
  bool any_movement_this_cycle_ = false;
  std::size_t idle_cycles_ = 0;
  std::size_t flits_in_network_ = 0;
  std::size_t skipped_cycles_ = 0;  // idle cycles jumped over by SkipIdleSpan
  std::size_t skip_spans_ = 0;      // SkipIdleSpan jumps taken

  // ---- fault state (all inert without a config.fault_plan) ----------------
  std::vector<faults::FaultEvent> plan_events_;   // cycle-sorted
  std::size_t next_fault_ = 0;
  std::unique_ptr<faults::DegradedView> view_;    // non-null only with a plan
  std::unique_ptr<faults::DegradedRouting> degraded_routing_;
  std::unique_ptr<SingleClassVcPolicy> degraded_policy_;
  /// Set after a reconfiguration swap: arbitration uses it instead of
  /// base_routes_ until the next Run() resets the network.
  std::optional<CompiledVcRoutes> degraded_routes_;
  bool reconfiguring_ = false;
  std::size_t reconfig_until_ = 0;
  std::vector<bool> covered_;  // base switch inside the routed component
  std::vector<double> base_inject_prob_;
  std::uint64_t dropped_flits_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t reconfig_cycles_count_ = 0;
  std::uint64_t fault_events_applied_ = 0;

  // ---- statistics ----------------------------------------------------------
  std::vector<std::uint64_t> pair_flits_;  // (src switch, dst switch) counts
  std::vector<std::uint64_t> app_messages_;
  std::vector<std::uint64_t> app_flits_;
  std::vector<long double> app_latency_sum_;
  std::uint64_t generated_flits_measured_ = 0;
  std::uint64_t delivered_flits_measured_ = 0;
  std::uint64_t messages_generated_measured_ = 0;
  std::uint64_t messages_delivered_measured_ = 0;
  // Whole-run conservation totals (warmup included; see SimTotals).
  std::uint64_t flits_injected_total_ = 0;
  std::uint64_t flits_delivered_total_ = 0;
  std::uint64_t messages_enqueued_total_ = 0;
  std::uint64_t messages_born_dead_ = 0;
  long double latency_sum_ = 0.0;
  long double total_latency_sum_ = 0.0;
  std::vector<std::uint32_t> latency_samples_;
  bool deadlock_ = false;

  // ---- telemetry (touched only while a tracer is installed) ---------------
  std::vector<std::uint64_t> telemetry_prev_moved_;  // per directed channel
  std::uint64_t telemetry_prev_delivered_ = 0;
  std::size_t telemetry_last_cycle_ = 0;
  std::vector<std::uint64_t> vc_occupancy_counts_;  // index = flits buffered
};

}  // namespace commsched::sim
