#include "simnet/simulator.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace commsched::sim {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
}  // namespace

std::vector<double> HostMessageProbabilities(const SwitchGraph& graph,
                                             const TrafficPattern& pattern,
                                             std::size_t message_length_flits, double rate) {
  const std::size_t hosts = graph.host_count();
  std::vector<double> probabilities(hosts, 0.0);
  double weight_sum = 0.0;
  for (std::size_t h = 0; h < hosts; ++h) weight_sum += pattern.HostWeight(h);
  if (weight_sum > 0.0) {
    const double total_flits_per_cycle = rate * static_cast<double>(graph.switch_count());
    for (std::size_t h = 0; h < hosts; ++h) {
      probabilities[h] = total_flits_per_cycle * pattern.HostWeight(h) /
                         (weight_sum * static_cast<double>(message_length_flits));
    }
  }
  return probabilities;
}

NetworkSimulator::NetworkSimulator(const SwitchGraph& graph, const Routing& routing,
                                   const TrafficPattern& pattern, const SimConfig& config)
    : graph_(&graph),
      pattern_(&pattern),
      config_(config),
      owned_policy_(std::make_unique<SingleClassVcPolicy>(routing, config.virtual_channels,
                                                          config.adaptive_routing)),
      base_routes_(*owned_policy_) {
  CS_CHECK(&routing.graph() == &graph, "routing built for a different graph");
  Init();
}

NetworkSimulator::NetworkSimulator(const SwitchGraph& graph, const VcRoutingPolicy& policy,
                                   const TrafficPattern& pattern, const SimConfig& config)
    : graph_(&graph), pattern_(&pattern), config_(config), base_routes_(policy) {
  CS_CHECK(&policy.graph() == &graph, "policy built for a different graph");
  CS_CHECK(policy.vc_count() == config.virtual_channels,
           "policy has ", policy.vc_count(), " VCs but config asks for ",
           config.virtual_channels);
  Init();
}

void NetworkSimulator::Init() {
  CS_CHECK(pattern_->host_count() == graph_->host_count(), "traffic pattern / graph mismatch");
  CS_CHECK(config_.message_length_flits >= 1, "messages need at least one flit");
  CS_CHECK(config_.input_buffer_flits >= 1, "buffers need at least one slot");
  CS_CHECK(config_.virtual_channels >= 1, "need at least one virtual channel");
  vc_count_ = config_.virtual_channels;
  if (config_.fault_plan != nullptr) {
    config_.fault_plan->ValidateFor(*graph_);
    plan_events_ = config_.fault_plan->events();
  }

  const std::size_t n = graph_->switch_count();
  inputs_at_switch_.assign(n, {});
  switch_of_buffer_.assign(LinkVcCount() + graph_->host_count(), 0);
  for (std::size_t c = 0; c < ChannelCount(); ++c) {
    for (std::size_t vc = 0; vc < vc_count_; ++vc) {
      inputs_at_switch_[ChannelTo(c)].push_back(c * vc_count_ + vc);
      switch_of_buffer_[c * vc_count_ + vc] = ChannelTo(c);
    }
  }
  for (std::size_t h = 0; h < graph_->host_count(); ++h) {
    inputs_at_switch_[graph_->SwitchOfHost(h)].push_back(InjectionBuffer(h));
    switch_of_buffer_[InjectionBuffer(h)] = graph_->SwitchOfHost(h);
  }
  eligible_offset_.assign(n + 1, 0);
  eligible_bit_.assign(switch_of_buffer_.size(), 0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<std::size_t>& inputs = inputs_at_switch_[s];
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      eligible_bit_[inputs[k]] = 64 * eligible_offset_[s] + k;
    }
    eligible_offset_[s + 1] = eligible_offset_[s] + (inputs.size() + 63) / 64;
  }
}

std::size_t NetworkSimulator::ChannelFrom(std::size_t channel) const {
  const topo::Link& link = graph_->link(channel / 2);
  return channel % 2 == 0 ? link.a : link.b;
}

std::size_t NetworkSimulator::ChannelTo(std::size_t channel) const {
  const topo::Link& link = graph_->link(channel / 2);
  return channel % 2 == 0 ? link.b : link.a;
}

std::size_t NetworkSimulator::InjectionBuffer(std::size_t host) const {
  return LinkVcCount() + host;
}

std::size_t NetworkSimulator::DeliveryPort(std::size_t host) const {
  return LinkVcCount() + host;
}

void NetworkSimulator::ResetState() {
  const std::size_t buffer_count = LinkVcCount() + graph_->host_count();
  buffers_.assign(buffer_count, Buffer{});
  flits_.assign(buffer_count * config_.input_buffer_flits, Flit{});
  outputs_.assign(LinkVcCount() + graph_->host_count(), OutputPort{});
  arrival_queue_.Clear();
  messages_.clear();
  source_queue_.assign(graph_->host_count(), {});
  source_flits_pushed_.assign(graph_->host_count(), 0);
  channel_rr_.assign(ChannelCount(), 0);
  eligible_.assign(eligible_offset_.back(), 0);
  parked_.assign(eligible_offset_.back(), 0);
  arb_switches_.Reset(graph_->switch_count());
  channel_active_.Reset(ChannelCount());
  delivery_active_.Reset(graph_->host_count());
  inject_active_.Reset(graph_->host_count());
  touched_set_.Reset(buffer_count);
  touched_buffers_.clear();
  active_sets_stale_ = false;
  pair_flits_.assign(
      config_.collect_traffic_matrix ? graph_->switch_count() * graph_->switch_count() : 0, 0);
  app_messages_.assign(pattern_->app_count(), 0);
  app_flits_.assign(pattern_->app_count(), 0);
  app_latency_sum_.assign(pattern_->app_count(), 0.0);
  cycle_ = 0;
  measuring_ = false;
  any_movement_this_cycle_ = false;
  idle_cycles_ = 0;
  flits_in_network_ = 0;
  skipped_cycles_ = 0;
  skip_spans_ = 0;
  generated_flits_measured_ = 0;
  delivered_flits_measured_ = 0;
  messages_generated_measured_ = 0;
  messages_delivered_measured_ = 0;
  flits_injected_total_ = 0;
  flits_delivered_total_ = 0;
  messages_enqueued_total_ = 0;
  messages_born_dead_ = 0;
  latency_sum_ = 0.0;
  total_latency_sum_ = 0.0;
  latency_samples_.clear();
  deadlock_ = false;
  degraded_routes_.reset();  // back to the base table, compiled runs kept
  next_fault_ = 0;
  reconfiguring_ = false;
  reconfig_until_ = 0;
  dropped_flits_ = 0;
  messages_lost_ = 0;
  reconfig_cycles_count_ = 0;
  fault_events_applied_ = 0;
  degraded_routing_.reset();
  degraded_policy_.reset();
  covered_.assign(graph_->switch_count(), true);
  view_ = plan_events_.empty() ? nullptr
                               : std::make_unique<faults::DegradedView>(*graph_);
  telemetry_prev_moved_.assign(ChannelCount(), 0);
  telemetry_prev_delivered_ = 0;
  telemetry_last_cycle_ = 0;
  vc_occupancy_counts_.assign(config_.input_buffer_flits + 1, 0);
}

void NetworkSimulator::PushFlit(std::size_t index, Flit flit) {
  Buffer& buffer = buffers_[index];
  CS_DCHECK(HasSpace(buffer), "push into a full buffer");
  flits_[SlotOf(index, buffer.size)] = flit;
  ++buffer.size;
  if (!touched_set_.Contains(index)) {
    touched_set_.Add(index);
    touched_buffers_.push_back(index);
  }
}

void NetworkSimulator::SampleTelemetry() {
  obs::Tracer* tracer = obs::ActiveTracer();
  if (tracer == nullptr) return;

  // Per-VC input-buffer occupancy, counted exactly (values are tiny: 0 ..
  // input_buffer_flits); flushed into the net.vc.occupancy histogram after
  // the run.
  for (std::size_t b = 0; b < LinkVcCount(); ++b) {
    ++vc_occupancy_counts_[buffers_[b].size];
  }

  // Windowed per-link utilization since the previous sample: flits moved on
  // each directed physical channel (all its VCs) per elapsed cycle.
  const std::size_t window = cycle_ - telemetry_last_cycle_;
  double max_util = 0.0;
  double util_sum = 0.0;
  std::size_t busiest = 0;
  for (std::size_t c = 0; c < ChannelCount(); ++c) {
    std::uint64_t moved = 0;
    for (std::size_t vc = 0; vc < vc_count_; ++vc) {
      moved += outputs_[c * vc_count_ + vc].flits_moved_measured;
    }
    const std::uint64_t delta = moved - telemetry_prev_moved_[c];
    telemetry_prev_moved_[c] = moved;
    const double util =
        window == 0 ? 0.0 : static_cast<double>(delta) / static_cast<double>(window);
    util_sum += util;
    if (util > max_util) {
      max_util = util;
      busiest = c;
    }
  }
  const std::uint64_t win_flits = delivered_flits_measured_ - telemetry_prev_delivered_;
  telemetry_prev_delivered_ = delivered_flits_measured_;
  telemetry_last_cycle_ = cycle_;

  obs::TraceEvent event("net.sample");
  event.F("cycle", cycle_)
      .F("in_flight", flits_in_network_)
      .F("win_flits", win_flits)
      .F("max_link_util", max_util);
  if (ChannelCount() > 0) {
    event.F("avg_link_util", util_sum / static_cast<double>(ChannelCount()))
        .F("link_from", ChannelFrom(busiest))
        .F("link_to", ChannelTo(busiest));
  }
  tracer->Emit(event);
}

void NetworkSimulator::FlushDistributionMetrics() {
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram& latency = registry.GetHistogram("net.latency");
  for (const std::uint32_t sample : latency_samples_) {
    latency.Record(sample);
  }
  std::uint64_t occupancy_samples = 0;
  for (const std::uint64_t count : vc_occupancy_counts_) occupancy_samples += count;
  if (occupancy_samples > 0) {
    obs::Histogram& occupancy = registry.GetHistogram("net.vc.occupancy");
    for (std::size_t value = 0; value < vc_occupancy_counts_.size(); ++value) {
      if (vc_occupancy_counts_[value] > 0) {
        occupancy.Record(value, vc_occupancy_counts_[value]);
      }
    }
  }
  for (std::size_t c = 0; c < ChannelCount(); ++c) {
    std::uint64_t moved = 0;
    for (std::size_t vc = 0; vc < vc_count_; ++vc) {
      moved += outputs_[c * vc_count_ + vc].flits_moved_measured;
    }
    if (moved == 0) continue;  // keep the metrics dump free of idle links
    registry
        .GetCounter("link.util." + std::to_string(ChannelFrom(c)) + "." +
                    std::to_string(ChannelTo(c)))
        .Add(moved);
  }
}

bool NetworkSimulator::ArbitrateSwitch(std::size_t s) {
  const std::vector<std::size_t>& inputs = inputs_at_switch_[s];
  if (inputs.empty()) return false;
  std::uint64_t* const words = eligible_.data() + eligible_offset_[s];
  std::uint64_t* const parked = parked_.data() + eligible_offset_[s];
  // Rotate the input scan start by one per arbitration cycle for fairness.
  // Arbitration runs on every cycle outside a reconfiguration window, so
  // the rotation depends on the clock alone, not on which cycles visit s.
  const std::size_t start = (cycle_ - reconfig_cycles_count_) % inputs.size();
  // Visits the eligible, unparked inputs among slots [from, to) in
  // ascending order. An attempt changes only the visited input's bits, so
  // each word is read once.
  const auto visit = [&](std::size_t from, std::size_t to) {
    for (std::size_t w = from / 64; w * 64 < to; ++w) {
      std::uint64_t bits = words[w] & ~parked[w];
      if (w == from / 64) bits &= ~0ULL << (from % 64);
      if (to < (w + 1) * 64) bits &= (1ULL << (to % 64)) - 1;
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        if (GrantHeader(inputs[w * 64 + static_cast<std::size_t>(bit)])) {
          words[w] &= ~(1ULL << bit);
        } else {
          parked[w] |= 1ULL << bit;
        }
      }
    }
  };
  // Slots start..end, then 0..start-1: a full scan's order from start.
  visit(start, inputs.size());
  visit(0, start);
  std::uint64_t pending = 0;
  for (std::size_t w = 0; w < eligible_offset_[s + 1] - eligible_offset_[s]; ++w) {
    pending |= words[w];
  }
  return pending != 0;
}

bool NetworkSimulator::GrantHeader(std::size_t b) {
  Buffer& buffer = buffers_[b];
  CS_DCHECK(buffer.FrontReady() && buffer.granted_output == Buffer::kNone &&
                IsHeadFlit(FlitAt(b, 0)),
            "ineligible input in the arbitration mask");
  const std::size_t msg_id = FlitAt(b, 0).msg;
  const Message& m = messages_[msg_id];

  if (m.current_switch == m.dst_switch) {
    // Consume locally: claim the destination host's delivery port.
    const std::size_t o = DeliveryPort(m.dst_host);
    OutputPort& port = outputs_[o];
    if (port.owner != OutputPort::kFree) return false;
    port.owner = msg_id;
    port.source_buffer = b;
    buffer.granted_output = o;
    delivery_active_.Add(m.dst_host);
    return true;
  }

  CompiledVcRoutes& routes = degraded_routes_ ? *degraded_routes_ : base_routes_;
  for (const CompiledCandidate& cand :
       routes.Lookup(m.current_switch, m.dst_switch, m.phase, m.on_escape)) {
    OutputPort& port = outputs_[cand.port];
    if (port.owner != OutputPort::kFree) continue;
    port.owner = msg_id;
    port.source_buffer = b;
    port.next_phase = cand.phase;
    port.next_escape = cand.escape;
    buffer.granted_output = cand.port;
    channel_active_.Add(cand.port / vc_count_);
    return true;
  }
  return false;
}

void NetworkSimulator::MarkIfEligible(std::size_t b) {
  const Buffer& buffer = buffers_[b];
  if (!buffer.FrontReady() || buffer.granted_output != Buffer::kNone ||
      !IsHeadFlit(FlitAt(b, 0))) {
    return;
  }
  const std::size_t bit = eligible_bit_[b];
  eligible_[bit / 64] |= 1ULL << (bit % 64);
  arb_switches_.Add(switch_of_buffer_[b]);
}

void NetworkSimulator::ArbitratePhase() {
  arb_switches_.Sweep([&](std::size_t s) { return ArbitrateSwitch(s); });
}

bool NetworkSimulator::TryMoveThroughOutput(std::size_t o) {
  OutputPort& port = outputs_[o];
  if (port.owner == OutputPort::kFree) return false;
  const std::size_t src_index = port.source_buffer;
  Buffer& src = buffers_[src_index];
  if (!src.FrontReady()) return false;  // bubble: upstream stalled
  const bool is_delivery = o >= LinkVcCount();
  if (!is_delivery && !HasSpace(buffers_[o])) return false;  // no credit downstream
  const Flit flit = PopFlit(src_index);
  CS_DCHECK(flit.msg == port.owner, "foreign flit at the front of a held buffer");
  const std::size_t msg_id = flit.msg;
  const bool head = IsHeadFlit(flit);
  const bool tail = IsTailFlit(flit);

  if (!is_delivery) {
    PushFlit(o, flit);  // becomes ready at end of cycle
    any_movement_this_cycle_ = true;
    if (measuring_) ++port.flits_moved_measured;
    if (head) {
      Message& m = messages_[msg_id];
      m.current_switch = ChannelTo(o / vc_count_);
      m.phase = port.next_phase;
      m.on_escape = port.next_escape;
    }
  } else {
    // Delivery port: the host consumes one flit per cycle.
    --flits_in_network_;
    ++flits_delivered_total_;
    any_movement_this_cycle_ = true;
    const Message& m = messages_[msg_id];
    if (measuring_) {
      ++delivered_flits_measured_;
      ++app_flits_[pattern_->AppOfHost(m.src_host)];
      if (!pair_flits_.empty()) {
        ++pair_flits_[graph_->SwitchOfHost(m.src_host) * graph_->switch_count() +
                      m.dst_switch];
      }
      if (tail) {
        ++messages_delivered_measured_;
        latency_sum_ += static_cast<long double>(cycle_ - m.inject_cycle);
        total_latency_sum_ += static_cast<long double>(cycle_ - m.gen_cycle);
        latency_samples_.push_back(static_cast<std::uint32_t>(cycle_ - m.inject_cycle));
        const std::size_t app = pattern_->AppOfHost(m.src_host);
        ++app_messages_[app];
        app_latency_sum_[app] += static_cast<long double>(cycle_ - m.inject_cycle);
      }
    }
  }
  // Credit wake: the pop freed a slot in `src`, so whatever feeds it may
  // move again — the upstream output of a link buffer, or the host's
  // injection for an injection buffer.
  if (src_index < LinkVcCount()) {
    if (outputs_[src_index].owner != OutputPort::kFree) {
      channel_active_.Add(src_index / vc_count_);
    }
  } else {
    const std::size_t h = src_index - LinkVcCount();
    if (!source_queue_[h].empty()) inject_active_.Add(h);
  }
  if (tail) {
    src.granted_output = Buffer::kNone;
    port.owner = OutputPort::kFree;
    port.source_buffer = kNone;
    // The freed port belongs to the switch that arbitrates `src`: its
    // parked headers may claim it now, and so may the next message's
    // header if it is already buffered.
    const std::size_t s = switch_of_buffer_[src_index];
    std::fill(parked_.begin() + static_cast<std::ptrdiff_t>(eligible_offset_[s]),
              parked_.begin() + static_cast<std::ptrdiff_t>(eligible_offset_[s + 1]), 0);
    MarkIfEligible(src_index);
  }
  return true;
}

bool NetworkSimulator::TransferChannel(std::size_t c) {
  // Physical link: one flit per cycle, round-robin among the VCs.
  std::size_t vc = channel_rr_[c];
  for (std::size_t k = 0; k < vc_count_; ++k) {
    const std::size_t o = c * vc_count_ + vc;
    if (++vc == vc_count_) vc = 0;
    if (TryMoveThroughOutput(o)) {
      channel_rr_[c] = vc;
      return true;
    }
  }
  return false;
}

void NetworkSimulator::TransferPhase() {
  channel_active_.Sweep([&](std::size_t c) { return TransferChannel(c); });
  // Delivery ports: one flit per host per cycle.
  delivery_active_.Sweep([&](std::size_t h) { return TryMoveThroughOutput(DeliveryPort(h)); });
}

bool NetworkSimulator::InjectHost(std::size_t h) {
  auto& queue = source_queue_[h];
  if (queue.empty()) return false;
  const std::size_t bi = InjectionBuffer(h);
  Buffer& buffer = buffers_[bi];
  if (!HasSpace(buffer)) return false;
  const std::size_t msg = queue.front();
  Message& m = messages_[msg];
  const std::size_t k = source_flits_pushed_[h];
  if (k == 0) {
    m.inject_cycle = cycle_;
    m.current_switch = graph_->SwitchOfHost(h);
    m.phase = Phase::kUp;
    m.on_escape = false;
  }
  PushFlit(bi, {static_cast<std::uint32_t>(msg), static_cast<std::uint32_t>(k)});
  ++flits_in_network_;
  ++flits_injected_total_;
  any_movement_this_cycle_ = true;
  if (k + 1 == m.length) {
    queue.pop_front();
    source_flits_pushed_[h] = 0;
  } else {
    ++source_flits_pushed_[h];
  }
  return !queue.empty() && HasSpace(buffer);
}

void NetworkSimulator::InjectPhase() {
  inject_active_.Sweep([&](std::size_t h) { return InjectHost(h); });
}

void NetworkSimulator::GenerateArrival(std::size_t h) {
  // A cut-off host (fault coverage zeroed its rate) discards the arrival;
  // GeneratePhase still schedules its next one, so the host keeps its
  // arrival schedule and resumes on it once it is covered again.
  if (inject_prob_[h] <= 0.0) return;
  Message m;
  m.src_host = h;
  m.dst_host = pattern_->SampleDestination(h, arrivals_.Stream(h));
  m.dst_switch = graph_->SwitchOfHost(m.dst_host);
  if (view_ != nullptr &&
      (!covered_[m.dst_switch] || !view_->SwitchAlive(m.dst_switch))) {
    ++messages_lost_;  // destination is cut off: the message is born dead
    ++messages_born_dead_;
    return;
  }
  m.length = config_.message_length_flits;
  m.gen_cycle = cycle_;
  messages_.push_back(m);
  source_queue_[h].push_back(messages_.size() - 1);
  ++messages_enqueued_total_;
  inject_active_.Add(h);
  if (measuring_) {
    ++messages_generated_measured_;
    generated_flits_measured_ += m.length;
  }
}

void NetworkSimulator::ScheduleArrival(std::size_t h, std::size_t from_cycle) {
  const double p = base_inject_prob_[h];
  if (p <= 0.0) return;
  arrival_queue_.Push(from_cycle + GeometricGap(arrivals_.Stream(h), p), h);
}

void NetworkSimulator::GeneratePhase() {
  // Arrivals pop in (cycle, host) order, so message ids follow the same
  // order as a per-cycle scan of the hosts would give them.
  while (!arrival_queue_.Empty() && arrival_queue_.NextCycle() <= cycle_) {
    const std::size_t h = arrival_queue_.Pop();
    GenerateArrival(h);
    ScheduleArrival(h, cycle_);
  }
}

void NetworkSimulator::UpdateIdleState() {
  if (reconfiguring_) {
    // The routing pause freezes arbitration on purpose; don't let the
    // watchdog read the drained network as a deadlock.
    idle_cycles_ = 0;
    return;
  }
  if (flits_in_network_ > 0 && !any_movement_this_cycle_) {
    if (++idle_cycles_ >= config_.deadlock_threshold_cycles && !deadlock_) {
      deadlock_ = true;
      if (obs::Tracer* tracer = obs::ActiveTracer()) {
        tracer->Emit(obs::TraceEvent("net.deadlock")
                         .F("cycle", cycle_)
                         .F("in_flight_flits", flits_in_network_)
                         .F("idle_cycles", idle_cycles_));
      }
    }
  } else {
    idle_cycles_ = 0;
  }
}

void NetworkSimulator::FinalizeCycle() {
  // Only buffers pushed into (or purged) this cycle can have ready != size.
  for (const std::size_t b : touched_buffers_) {
    Buffer& buffer = buffers_[b];
    buffer.ready = buffer.size;
    if (buffer.granted_output == Buffer::kNone) {
      MarkIfEligible(b);
    } else if (buffer.granted_output >= LinkVcCount()) {
      delivery_active_.Add(buffer.granted_output - LinkVcCount());
    } else {
      channel_active_.Add(buffer.granted_output / vc_count_);
    }
  }
  touched_buffers_.clear();
  touched_set_.ClearAll();
  UpdateIdleState();
}

void NetworkSimulator::RebuildActiveSets() {
  active_sets_stale_ = false;
  arb_switches_.ClearAll();
  channel_active_.ClearAll();
  delivery_active_.ClearAll();
  inject_active_.ClearAll();
  std::fill(eligible_.begin(), eligible_.end(), 0);
  std::fill(parked_.begin(), parked_.end(), 0);
  for (std::size_t b = 0; b < buffers_.size(); ++b) MarkIfEligible(b);
  for (std::size_t o = 0; o < LinkVcCount(); ++o) {
    if (outputs_[o].owner != OutputPort::kFree) channel_active_.Add(o / vc_count_);
  }
  for (std::size_t h = 0; h < graph_->host_count(); ++h) {
    if (outputs_[DeliveryPort(h)].owner != OutputPort::kFree) delivery_active_.Add(h);
    if (!source_queue_[h].empty()) inject_active_.Add(h);
  }
}

void NetworkSimulator::SkipIdleSpan(std::size_t limit) {
  if (cycle_ >= limit) return;
  // Reconfiguration downtime is counted cycle by cycle (it also sets the
  // arbitration rotation), and any active element means the next cycle has
  // real work.
  if (reconfiguring_) return;
  if (arb_switches_.Any() || channel_active_.Any() || delivery_active_.Any() ||
      inject_active_.Any()) {
    return;
  }
  std::size_t next = limit;
  if (!arrival_queue_.Empty()) next = std::min(next, arrival_queue_.NextCycle());
  if (view_ != nullptr && next_fault_ < plan_events_.size()) {
    next = std::min(next, plan_events_[next_fault_].at_cycle);
  }
  const bool stuck = flits_in_network_ > 0;
  if (stuck) {
    // Nothing can move until an external event: the span is idle time, and
    // the watchdog must still fire at its configured threshold.
    next = std::min(next, cycle_ + (config_.deadlock_threshold_cycles - idle_cycles_));
  }
  if (obs::ActiveTracer() != nullptr) {
    // Land on every milestone/telemetry boundary so traced runs emit every
    // periodic event.
    if (config_.trace_milestone_cycles > 0) {
      const std::size_t m = config_.trace_milestone_cycles;
      next = std::min(next, ((cycle_ + m - 1) / m) * m);
    }
    if (measuring_ && config_.telemetry_sample_cycles > 0) {
      const std::size_t t = config_.telemetry_sample_cycles;
      const std::size_t measured = cycle_ - config_.warmup_cycles;
      next = std::min(next, config_.warmup_cycles + ((measured + t - 1) / t) * t);
    }
  }
  if (next <= cycle_) return;
  const std::size_t skipped = next - cycle_;
  cycle_ = next;
  skipped_cycles_ += skipped;
  ++skip_spans_;
  if (stuck) {
    idle_cycles_ += skipped;
    if (idle_cycles_ >= config_.deadlock_threshold_cycles && !deadlock_) {
      deadlock_ = true;
      if (obs::Tracer* tracer = obs::ActiveTracer()) {
        tracer->Emit(obs::TraceEvent("net.deadlock")
                         .F("cycle", cycle_)
                         .F("in_flight_flits", flits_in_network_)
                         .F("idle_cycles", idle_cycles_));
      }
    }
  }
}

void NetworkSimulator::MarkMessageLost(std::size_t msg) {
  Message& m = messages_[msg];
  if (m.lost) return;
  m.lost = true;
  ++messages_lost_;
}

void NetworkSimulator::PurgeLostMessages() {
  // Release output ports held by lost messages (and the wormhole grant of
  // their source buffers) before touching the FIFOs.
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    OutputPort& port = outputs_[o];
    if (port.owner == OutputPort::kFree || !messages_[port.owner].lost) continue;
    if (port.source_buffer != OutputPort::kFree) {
      buffers_[port.source_buffer].granted_output = Buffer::kNone;
    }
    port.owner = OutputPort::kFree;
    port.source_buffer = OutputPort::kFree;
  }

  // Purge the flits themselves, compacting the survivors in order towards
  // the front. A purged buffer's ready prefix is no longer meaningful;
  // zeroing it stalls the buffer for the one cycle FinalizeCycle needs to
  // re-establish it.
  for (std::size_t bi = 0; bi < buffers_.size(); ++bi) {
    Buffer& buffer = buffers_[bi];
    std::size_t kept = 0;
    for (std::size_t k = 0; k < buffer.size; ++k) {
      const Flit flit = FlitAt(bi, k);
      if (!messages_[flit.msg].lost) flits_[SlotOf(bi, kept++)] = flit;
    }
    const std::size_t purged = buffer.size - kept;
    if (purged > 0) {
      buffer.size = kept;
      dropped_flits_ += purged;
      flits_in_network_ -= purged;
      buffer.ready = 0;
      if (!touched_set_.Contains(bi)) {
        touched_set_.Add(bi);
        touched_buffers_.push_back(bi);
      }
    }
  }

  // Scrub the source queues: lost messages disappear; a partially injected
  // head message resets its host's flit cursor (its injected flits were
  // purged above).
  for (std::size_t h = 0; h < source_queue_.size(); ++h) {
    auto& queue = source_queue_[h];
    if (queue.empty()) continue;
    if (messages_[queue.front()].lost) source_flits_pushed_[h] = 0;
    std::erase_if(queue, [&](std::size_t msg) { return messages_[msg].lost; });
  }

  // Incremental wake tracking can't survive an arbitrary purge.
  active_sets_stale_ = true;
}

void NetworkSimulator::DropDeadTraffic() {
  // Messages with flits sitting in a dead buffer: every VC buffer of a dead
  // directed channel, and the injection buffers of dead switches' hosts.
  for (std::size_t l = 0; l < graph_->link_count(); ++l) {
    if (view_->LinkAlive(l)) continue;
    for (std::size_t dir = 0; dir < 2; ++dir) {
      for (std::size_t vc = 0; vc < vc_count_; ++vc) {
        const std::size_t o = (2 * l + dir) * vc_count_ + vc;
        for (std::size_t k = 0; k < buffers_[o].size; ++k) MarkMessageLost(FlitAt(o, k).msg);
        // A message streaming across the dead link is truncated even if its
        // remaining flits sit in healthy buffers upstream.
        if (outputs_[o].owner != OutputPort::kFree) MarkMessageLost(outputs_[o].owner);
      }
    }
  }
  for (std::size_t h = 0; h < graph_->host_count(); ++h) {
    const std::size_t s = graph_->SwitchOfHost(h);
    if (view_->SwitchAlive(s)) continue;
    const std::size_t b = InjectionBuffer(h);
    for (std::size_t k = 0; k < buffers_[b].size; ++k) MarkMessageLost(FlitAt(b, k).msg);
    if (outputs_[DeliveryPort(h)].owner != OutputPort::kFree) {
      MarkMessageLost(outputs_[DeliveryPort(h)].owner);
    }
    // The host itself is down: stop generating and abandon its backlog.
    if (h < inject_prob_.size()) inject_prob_[h] = 0.0;
    for (const std::size_t msg : source_queue_[h]) MarkMessageLost(msg);
  }

  // In-flight or queued messages destined to a dead switch can never be
  // delivered; drop them now instead of letting them clog VCs.
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    for (std::size_t k = 0; k < buffers_[b].size; ++k) {
      const std::size_t msg = FlitAt(b, k).msg;
      if (!view_->SwitchAlive(messages_[msg].dst_switch)) MarkMessageLost(msg);
    }
  }
  for (const auto& queue : source_queue_) {
    for (const std::size_t msg : queue) {
      if (!view_->SwitchAlive(messages_[msg].dst_switch)) MarkMessageLost(msg);
    }
  }

  PurgeLostMessages();
}

void NetworkSimulator::CompleteReconfiguration() {
  reconfiguring_ = false;

  // Rebuild up*/down* on the largest surviving component. Reconfigure(true)
  // is the graceful path: a partitioned network evicts the smaller
  // component(s) instead of throwing.
  auto routing = std::make_unique<faults::DegradedRouting>(*graph_, view_->Reconfigure(true));
  auto policy =
      std::make_unique<SingleClassVcPolicy>(*routing, vc_count_, config_.adaptive_routing);
  for (std::size_t s = 0; s < graph_->switch_count(); ++s) {
    covered_[s] = routing->Covers(s);
  }

  // Reconcile in-flight state with the new link orientation.  Every message
  // whose head flit still sits in an input buffer will make its next routing
  // decision under the new function, so its phase must be the new routing's
  // arrival phase at its current position; messages stranded outside the
  // surviving component — or left in a state the new function cannot
  // continue (up*/down* legality is never violated, matching Autonet's
  // packet drops during reconfiguration) — are lost.
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    for (std::size_t k = 0; k < buffers_[b].size; ++k) {
      const Flit f = FlitAt(b, k);
      if (!IsHeadFlit(f)) continue;
      Message& m = messages_[f.msg];
      if (m.lost) continue;
      if (!covered_[m.current_switch] || !covered_[m.dst_switch]) {
        MarkMessageLost(f.msg);
        continue;
      }
      if (b >= LinkVcCount()) {
        m.phase = Phase::kUp;  // still at its source host
      } else {
        m.phase = routing->ArrivalPhase(b / vc_count_ / 2, m.current_switch);
      }
      m.on_escape = false;
      if (m.current_switch != m.dst_switch &&
          routing->NextHops(m.current_switch, m.dst_switch, m.phase).empty()) {
        MarkMessageLost(f.msg);
      }
    }
  }
  // Output claims whose head flit has not crossed yet were made under the
  // old routing function and may be illegal under the new one; release them
  // so the head re-arbitrates under the swapped-in policy (a claim whose
  // head already crossed only streams body flits and never reads
  // next_phase again, so it is left to drain the worm).
  for (std::size_t o = 0; o < LinkVcCount(); ++o) {
    OutputPort& port = outputs_[o];
    if (port.owner == OutputPort::kFree || messages_[port.owner].lost) continue;
    Buffer& src = buffers_[port.source_buffer];
    if (src.size == 0 || !IsHeadFlit(FlitAt(port.source_buffer, 0))) continue;
    src.granted_output = Buffer::kNone;
    port.owner = OutputPort::kFree;
    port.source_buffer = OutputPort::kFree;
  }
  // Queued messages to evicted destinations will never route; hosts on
  // evicted switches are cut off and stop generating, while re-covered
  // hosts (after a switch_up) resume at their configured rate.
  for (const auto& queue : source_queue_) {
    for (const std::size_t msg : queue) {
      if (!covered_[messages_[msg].dst_switch]) MarkMessageLost(msg);
    }
  }
  for (std::size_t h = 0; h < inject_prob_.size(); ++h) {
    inject_prob_[h] = covered_[graph_->SwitchOfHost(h)] ? base_inject_prob_[h] : 0.0;
  }
  PurgeLostMessages();
  active_sets_stale_ = true;

  // Atomic swap: from the next arbitration on, every routing decision uses
  // a fresh table compiled from the degraded function. The outgoing table
  // goes first: it points at the outgoing policy.
  degraded_routes_.reset();
  degraded_policy_ = std::move(policy);
  degraded_routing_ = std::move(routing);
  degraded_routes_.emplace(*degraded_policy_);

  obs::Registry::Global().GetCounter("fault.reconfigs").Add(1);
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    const faults::Reconfiguration& reconfig = degraded_routing_->reconfig();
    tracer->Emit(obs::TraceEvent("fault.reconfig_done")
                     .F("cycle", cycle_)
                     .F("surviving_switches", reconfig.graph.switch_count())
                     .F("surviving_links", reconfig.graph.link_count())
                     .F("dead_switches", reconfig.dead.size())
                     .F("evicted_switches", reconfig.evicted.size())
                     .F("dropped_flits", dropped_flits_)
                     .F("messages_lost", messages_lost_));
  }
}

void NetworkSimulator::AdvanceFaultState() {
  if (reconfiguring_ && cycle_ >= reconfig_until_) {
    CompleteReconfiguration();
  }
  bool applied = false;
  while (next_fault_ < plan_events_.size() && plan_events_[next_fault_].at_cycle <= cycle_) {
    const faults::FaultEvent& event = plan_events_[next_fault_++];
    view_->Apply(event);
    ++fault_events_applied_;
    applied = true;
    obs::Registry::Global().GetCounter("fault.events").Add(1);
    if (obs::Tracer* tracer = obs::ActiveTracer()) {
      obs::TraceEvent trace(std::string("fault.") + faults::FaultPlan::KindName(event.kind));
      trace.F("cycle", cycle_);
      if (event.kind == faults::FaultKind::kLinkDown ||
          event.kind == faults::FaultKind::kLinkUp) {
        trace.F("a", event.a).F("b", event.b);
      } else {
        trace.F("switch", event.switch_id);
      }
      tracer->Emit(trace);
    }
  }
  if (applied) {
    DropDeadTraffic();
    if (!reconfiguring_ && obs::TraceEnabled()) {
      obs::ActiveTracer()->Emit(obs::TraceEvent("fault.reconfig_start").F("cycle", cycle_));
    }
    reconfiguring_ = true;
    reconfig_until_ = std::max(reconfig_until_, cycle_ + config_.reconfig_downtime_cycles);
    if (cycle_ >= reconfig_until_) {
      CompleteReconfiguration();  // zero-downtime: swap within this cycle
    }
  }
  if (reconfiguring_) ++reconfig_cycles_count_;
}

void NetworkSimulator::StepCycle(std::size_t limit) {
  any_movement_this_cycle_ = false;
  if (view_ != nullptr) AdvanceFaultState();
  if (active_sets_stale_) RebuildActiveSets();
  // During the reconfiguration downtime no new output claims are made —
  // in-flight worms keep draining ("blocked VCs are drained") but no new
  // routing decisions happen until the swapped-in function is live.
  if (!reconfiguring_) ArbitratePhase();
  TransferPhase();
  InjectPhase();
  GeneratePhase();
  FinalizeCycle();
  ++cycle_;
  if (!deadlock_) SkipIdleSpan(limit);
}

SimMetrics NetworkSimulator::Run(double injection_flits_per_switch_cycle) {
  CS_CHECK(injection_flits_per_switch_cycle >= 0.0, "negative injection rate");
  obs::Registry& registry = obs::Registry::Global();
  const obs::Span run_span("sim.run", "horizon",
                           config_.warmup_cycles + config_.measure_cycles,
                           &registry.GetTimer("sim.run"));
  ResetState();

  // Per-host Bernoulli message probability.
  const std::size_t hosts = graph_->host_count();
  inject_prob_ = HostMessageProbabilities(*graph_, *pattern_, config_.message_length_flits,
                                          injection_flits_per_switch_cycle);
  for (const double p : inject_prob_) {
    CS_CHECK(p <= 1.0, "offered load exceeds host injection bandwidth (p=", p, ")");
  }
  // Faults zero the rates of cut-off hosts; a later switch_up restores them.
  base_inject_prob_ = inject_prob_;

  // Seed the per-host arrival streams and schedule each host's first
  // arrival.
  arrivals_.Reset(config_.rng_seed, hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    if (base_inject_prob_[h] > 0.0) {
      arrival_queue_.Push(GeometricGap(arrivals_.Stream(h), base_inject_prob_[h]) - 1, h);
    }
  }

  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    tracer->Emit(obs::TraceEvent("sim.start")
                     .F("rate", injection_flits_per_switch_cycle)
                     .F("warmup", config_.warmup_cycles)
                     .F("measure", config_.measure_cycles)
                     .F("vcs", vc_count_));
  }

  const std::size_t horizon = config_.warmup_cycles + config_.measure_cycles;
  std::size_t measured_cycles = 0;
  const auto maybe_milestone = [&] {
    if (obs::Tracer* tracer = obs::ActiveTracer();
        tracer != nullptr && config_.trace_milestone_cycles > 0 &&
        cycle_ % config_.trace_milestone_cycles == 0) {
      tracer->Emit(obs::TraceEvent("sim.milestone")
                       .F("cycle", cycle_)
                       .F("in_flight_flits", flits_in_network_)
                       .F("delivered_flits", delivered_flits_measured_)
                       .F("generated_flits", generated_flits_measured_));
    }
  };
  {
    const obs::Span warmup_span("sim.warmup", "cycles", config_.warmup_cycles);
    while (cycle_ < config_.warmup_cycles && !deadlock_) {
      measuring_ = false;
      StepCycle(config_.warmup_cycles);
      maybe_milestone();
    }
  }
  {
    const obs::Span measure_span("sim.measure", "cycles", config_.measure_cycles);
    telemetry_last_cycle_ = cycle_;  // utilization windows exclude warmup
    while (cycle_ < horizon && !deadlock_) {
      measuring_ = true;
      const std::size_t before = cycle_;
      StepCycle(horizon);
      // A step may advance many cycles at once; skipped spans are simulated
      // time and count toward the measurement window.
      measured_cycles += cycle_ - before;
      maybe_milestone();
      if (config_.telemetry_sample_cycles > 0 &&
          measured_cycles % config_.telemetry_sample_cycles == 0) {
        SampleTelemetry();
      }
    }
  }

  // Source-queue backlog in flits (unsent messages + remainder of each
  // host's partially injected head message).
  auto backlog = [&]() -> double {
    double flits = 0.0;
    for (std::size_t h = 0; h < hosts; ++h) {
      flits += static_cast<double>(source_queue_[h].size()) *
               static_cast<double>(config_.message_length_flits);
      flits -= static_cast<double>(source_flits_pushed_[h]);
    }
    return flits;
  };

  SimMetrics metrics;
  const double s = static_cast<double>(graph_->switch_count());
  const double mc = static_cast<double>(std::max<std::size_t>(measured_cycles, 1));
  metrics.offered_flits_per_switch_cycle =
      static_cast<double>(generated_flits_measured_) / (mc * s);
  metrics.accepted_flits_per_switch_cycle =
      static_cast<double>(delivered_flits_measured_) / (mc * s);
  metrics.messages_generated = messages_generated_measured_;
  metrics.messages_delivered = messages_delivered_measured_;
  metrics.flits_delivered = delivered_flits_measured_;
  metrics.simulated_cycles = cycle_;
  if (messages_delivered_measured_ > 0) {
    metrics.avg_latency_cycles =
        static_cast<double>(latency_sum_ / messages_delivered_measured_);
    metrics.avg_total_latency_cycles =
        static_cast<double>(total_latency_sum_ / messages_delivered_measured_);
    std::sort(latency_samples_.begin(), latency_samples_.end());
    auto percentile = [&](double q) {
      const std::size_t idx = static_cast<std::size_t>(
          q * static_cast<double>(latency_samples_.size() - 1));
      return static_cast<double>(latency_samples_[idx]);
    };
    metrics.p50_latency_cycles = percentile(0.50);
    metrics.p95_latency_cycles = percentile(0.95);
    metrics.p99_latency_cycles = percentile(0.99);
    metrics.max_latency_cycles = static_cast<double>(latency_samples_.back());
  }
  metrics.source_queue_growth = backlog() / (mc * s);
  // Physical link utilization: sum the VC outputs of each directed channel.
  double util_sum = 0.0;
  for (std::size_t c = 0; c < ChannelCount(); ++c) {
    std::uint64_t moved = 0;
    for (std::size_t vc = 0; vc < vc_count_; ++vc) {
      moved += outputs_[c * vc_count_ + vc].flits_moved_measured;
    }
    const double util = static_cast<double>(moved) / mc;
    util_sum += util;
    metrics.max_link_utilization = std::max(metrics.max_link_utilization, util);
  }
  if (ChannelCount() > 0) {
    metrics.avg_link_utilization = util_sum / static_cast<double>(ChannelCount());
  }
  metrics.deadlock_detected = deadlock_;
  metrics.fault_events_applied = fault_events_applied_;
  metrics.dropped_flits = dropped_flits_;
  metrics.messages_lost = messages_lost_;
  metrics.reconfig_cycles = reconfig_cycles_count_;
  metrics.per_app.resize(pattern_->app_count());
  for (std::size_t a = 0; a < pattern_->app_count(); ++a) {
    metrics.per_app[a].messages_delivered = app_messages_[a];
    metrics.per_app[a].flits_delivered = app_flits_[a];
    if (app_messages_[a] > 0) {
      metrics.per_app[a].avg_latency_cycles =
          static_cast<double>(app_latency_sum_[a] / app_messages_[a]);
    }
  }
  if (!pair_flits_.empty()) {
    const std::size_t n = graph_->switch_count();
    metrics.switch_pair_flit_rate.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        metrics.switch_pair_flit_rate[i][j] =
            static_cast<double>(pair_flits_[i * n + j]) / mc;
      }
    }
  }

  registry.GetCounter("sim.runs").Add(1);
  registry.GetCounter("sim.cycles").Add(cycle_);
  registry.GetCounter("sim.measured_cycles").Add(measured_cycles);
  registry.GetCounter("sim.flits_generated").Add(generated_flits_measured_);
  registry.GetCounter("sim.flits_delivered").Add(delivered_flits_measured_);
  registry.GetCounter("sim.messages_generated").Add(messages_generated_measured_);
  registry.GetCounter("sim.messages_delivered").Add(messages_delivered_measured_);
  if (deadlock_) registry.GetCounter("sim.deadlocks").Add(1);
  registry.GetCounter("sim.event.skipped_cycles").Add(skipped_cycles_);
  registry.GetCounter("sim.event.skips").Add(skip_spans_);
  if (view_ != nullptr) {
    registry.GetCounter("fault.dropped_flits").Add(dropped_flits_);
    registry.GetCounter("fault.messages_lost").Add(messages_lost_);
    registry.GetCounter("fault.reconfig_cycles").Add(reconfig_cycles_count_);
  }
  FlushDistributionMetrics();
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    obs::TraceEvent done("sim.done");
    done.F("rate", injection_flits_per_switch_cycle)
        .F("cycles", cycle_)
        .F("delivered_flits", delivered_flits_measured_)
        .F("delivered_messages", messages_delivered_measured_)
        .F("accepted", metrics.accepted_flits_per_switch_cycle)
        .F("avg_latency", metrics.avg_latency_cycles)
        .F("p50_latency", metrics.p50_latency_cycles)
        .F("p99_latency", metrics.p99_latency_cycles)
        .F("deadlock", deadlock_);
    // Fault fields only appear in degraded-mode runs so that the trace of a
    // fault-free run stays byte-identical to previous releases.
    if (view_ != nullptr) {
      done.F("fault_events", fault_events_applied_)
          .F("dropped_flits", dropped_flits_)
          .F("messages_lost", messages_lost_)
          .F("reconfig_cycles", reconfig_cycles_count_);
    }
    tracer->Emit(done);
  }
  return metrics;
}

SimTotals NetworkSimulator::Totals() const {
  SimTotals totals;
  totals.flits_injected = flits_injected_total_;
  totals.flits_delivered = flits_delivered_total_;
  totals.flits_dropped = dropped_flits_;
  totals.flits_in_network = flits_in_network_;
  totals.messages_enqueued = messages_enqueued_total_;
  totals.messages_born_dead = messages_born_dead_;
  totals.messages_lost = messages_lost_;
  for (const Buffer& buffer : buffers_) totals.flits_buffered += buffer.size;
  return totals;
}

}  // namespace commsched::sim
