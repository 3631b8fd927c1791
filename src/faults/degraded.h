// Degraded topology view and up*/down* reconfiguration (ISSUE 3 tentpole,
// part 2).
//
// A DegradedView sits over an immutable base SwitchGraph and tracks which
// links and switches are currently failed.  Reconfigure() extracts the
// largest surviving connected component as a compact SwitchGraph (re-indexed
// switches and links) plus both directions of the id mapping, so the
// existing UpDownRouting / DistanceTable builders — which require a
// connected graph — can be reused unchanged on the surviving hardware.
//
// DegradedRouting then adapts the compact routing back into base switch/link
// ids, so consumers that key state by base ids (the flit simulator's buffer
// arrays, the scheduler's cluster numbering) keep working across a
// reconfiguration without reindexing anything.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "faults/fault_plan.h"
#include "routing/updown.h"
#include "topology/graph.h"

namespace commsched::faults {

/// Thrown when a reconfiguration is asked to produce a fully connected
/// surviving topology but the failures have partitioned the network.
/// Carries the switches that would have to be evicted (alive but cut off
/// from the largest surviving component).
class PartitionedNetworkError : public commsched::ConfigError {
 public:
  PartitionedNetworkError(const std::string& what, std::vector<topo::SwitchId> evicted)
      : ConfigError(what), evicted_(std::move(evicted)) {}

  [[nodiscard]] const std::vector<topo::SwitchId>& evicted_switches() const { return evicted_; }

 private:
  std::vector<topo::SwitchId> evicted_;
};

/// The result of rebuilding the surviving topology: a compact connected
/// graph plus the base<->compact id mappings and the casualty lists.
struct Reconfiguration {
  topo::SwitchGraph graph;  // compact graph over the largest alive component

  // Switch id mappings.  to_base[c] is the base id of compact switch c;
  // to_compact[s] is nullopt when base switch s is dead or evicted.
  std::vector<topo::SwitchId> to_base;
  std::vector<std::optional<std::size_t>> to_compact;

  // Link id mappings, same convention (order-preserving over base links).
  std::vector<topo::LinkId> link_to_base;
  std::vector<std::optional<topo::LinkId>> link_to_compact;

  std::vector<topo::SwitchId> dead;     // switches currently failed
  std::vector<topo::SwitchId> evicted;  // alive, but outside the largest component

  [[nodiscard]] bool Covers(topo::SwitchId base_switch) const {
    return to_compact[base_switch].has_value();
  }
};

/// Mutable failure mask over an immutable base graph.
class DegradedView {
 public:
  explicit DegradedView(const topo::SwitchGraph& base);

  /// Applies one fault event (validated against the base graph).
  void Apply(const FaultEvent& event);

  void FailLink(topo::SwitchId a, topo::SwitchId b);
  void RestoreLink(topo::SwitchId a, topo::SwitchId b);
  void FailSwitch(topo::SwitchId s);
  void RestoreSwitch(topo::SwitchId s);

  [[nodiscard]] const topo::SwitchGraph& base() const { return *base_; }
  [[nodiscard]] bool SwitchAlive(topo::SwitchId s) const { return !switch_down_[s]; }

  /// A link is alive when it has not itself failed and both endpoints are
  /// alive switches.
  [[nodiscard]] bool LinkAlive(topo::LinkId l) const;

  /// Switch ids of the largest connected component of the alive subgraph,
  /// sorted ascending.  Ties break toward the component with the lowest
  /// switch id (deterministic).  Empty when every switch is down.
  [[nodiscard]] std::vector<topo::SwitchId> LargestAliveComponent() const;

  /// Rebuilds the surviving topology.  With `allow_partition` (the graceful
  /// path), alive-but-disconnected switches are evicted into
  /// Reconfiguration::evicted; otherwise a partition throws
  /// PartitionedNetworkError.  Throws ConfigError when no switch survives.
  [[nodiscard]] Reconfiguration Reconfigure(bool allow_partition = true) const;

 private:
  const topo::SwitchGraph* base_;
  std::vector<bool> link_down_;
  std::vector<bool> switch_down_;
};

/// Routing over the surviving topology, exposed in *base* switch/link ids.
///
/// graph() returns the base graph; MinimalDistance/NextHops answer in base
/// ids by translating through the Reconfiguration mapping into an inner
/// UpDownRouting built on the compact graph.  Queries touching a dead or
/// evicted switch return "unreachable": MinimalDistance = SIZE_MAX,
/// NextHops = {} — the simulator treats such messages as lost.
class DegradedRouting final : public route::Routing {
 public:
  DegradedRouting(const topo::SwitchGraph& base, Reconfiguration reconfig,
                  route::RootPolicy policy = route::RootPolicy::kMaxDegree);

  DegradedRouting(const DegradedRouting&) = delete;
  DegradedRouting& operator=(const DegradedRouting&) = delete;

  [[nodiscard]] const topo::SwitchGraph& graph() const override { return *base_; }
  [[nodiscard]] std::size_t MinimalDistance(topo::SwitchId s, topo::SwitchId t) const override;
  void NextHopsInto(topo::SwitchId current, topo::SwitchId dest, route::Phase phase,
                    std::vector<route::NextHop>& out) const override;
  [[nodiscard]] route::Phase ArrivalPhase(topo::LinkId link, topo::SwitchId into) const override;
  [[nodiscard]] std::string Name() const override { return "up*/down* (degraded)"; }

  /// True when `base_switch` is part of the surviving routed component.
  [[nodiscard]] bool Covers(topo::SwitchId base_switch) const {
    return reconfig_.Covers(base_switch);
  }

  [[nodiscard]] const Reconfiguration& reconfig() const { return reconfig_; }

  /// The inner routing over the compact surviving graph — feed this to
  /// DistanceTable::Build to get the degraded equivalent-distance table.
  [[nodiscard]] const route::UpDownRouting& compact_routing() const { return *compact_routing_; }

 private:
  const topo::SwitchGraph* base_;
  Reconfiguration reconfig_;
  // Heap-held so the compact graph inside reconfig_ has a stable address
  // for the inner routing regardless of how this object was constructed.
  std::unique_ptr<route::UpDownRouting> compact_routing_;
};

}  // namespace commsched::faults
