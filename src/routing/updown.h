// Up*/down* routing (Autonet [21]).
//
// A BFS spanning tree is built from a root switch; every link gets an "up"
// end (the end closer to the root, ties broken by lower switch id — the
// standard Autonet ordering). A legal path is zero or more up traversals
// followed by zero or more down traversals; this breaks every cycle in the
// channel dependency graph, making the routing deadlock-free on a single
// virtual channel. The routing function supplies the *minimal-length legal*
// paths, mirroring the paper's setting where some minimal physical paths are
// forbidden and traffic concentrates near the root.
#pragma once

#include <string>
#include <vector>

#include "routing/routing.h"

namespace commsched::route {

/// Thrown when up*/down* routing is asked to cover a disconnected graph.
/// Names the switches unreachable from the chosen root so fault-handling
/// callers can report (or evict) exactly the stranded part of the network.
class DisconnectedGraphError : public commsched::ConfigError {
 public:
  DisconnectedGraphError(const std::string& what, std::vector<SwitchId> unreachable)
      : ConfigError(what), unreachable_(std::move(unreachable)) {}

  [[nodiscard]] const std::vector<SwitchId>& unreachable_switches() const {
    return unreachable_;
  }

 private:
  std::vector<SwitchId> unreachable_;
};

/// How the spanning-tree root is chosen.
enum class RootPolicy {
  kLowestId,         // switch 0
  kMaxDegree,        // highest inter-switch degree, ties to lower id
  kMinEccentricity,  // most central switch, ties to lower id
};

/// The complete precomputed state of an UpDownRouting, detached from any
/// graph: the spanning-tree root, per-switch BFS levels, per-link up ends,
/// and the per-destination legal-hop distance tables. Exported so the
/// service's artifact store can persist a routing to disk and restore it on
/// a later boot without re-running any BFS (DESIGN.md §14).
struct UpDownState {
  SwitchId root = 0;
  std::vector<std::size_t> level;                      // per switch
  std::vector<SwitchId> up_end;                        // per link
  std::vector<std::vector<std::size_t>> dist_to_dest;  // [dest][switch*2+phase]
};

class UpDownRouting final : public Routing {
 public:
  /// Builds the routing function; the graph must stay alive and unchanged
  /// for the lifetime of this object. Requires a connected graph; a
  /// disconnected one raises DisconnectedGraphError naming the stranded
  /// switches.
  UpDownRouting(const SwitchGraph& graph, RootPolicy policy = RootPolicy::kMaxDegree);

  /// Explicit root override.
  UpDownRouting(const SwitchGraph& graph, SwitchId root);

  /// Restores a routing from previously exported state instead of running
  /// the BFS passes — the warm-boot path. Throws ConfigError when the state
  /// shape does not match the graph (wrong switch/link counts).
  UpDownRouting(const SwitchGraph& graph, UpDownState state);

  [[nodiscard]] const SwitchGraph& graph() const override { return *graph_; }
  [[nodiscard]] std::size_t MinimalDistance(SwitchId s, SwitchId t) const override;
  void NextHopsInto(SwitchId current, SwitchId dest, Phase phase,
                    std::vector<NextHop>& out) const override;
  [[nodiscard]] Phase ArrivalPhase(LinkId link, SwitchId into) const override;
  [[nodiscard]] std::string Name() const override { return "up*/down*"; }

  [[nodiscard]] SwitchId root() const { return root_; }

  /// Copies out the full precomputed state (see UpDownState).
  [[nodiscard]] UpDownState ExportState() const;

  /// The "up" end of a link (closer to the root / lower id on ties).
  [[nodiscard]] SwitchId UpEnd(LinkId link) const;

  /// True if traversing `link` out of switch `from` moves up (toward root).
  [[nodiscard]] bool IsUpTraversal(LinkId link, SwitchId from) const;

  /// BFS level of a switch in the spanning tree (root = 0).
  [[nodiscard]] std::size_t Level(SwitchId s) const;

 private:
  void Build();

  // State index in the doubled (switch, phase) graph.
  [[nodiscard]] std::size_t StateIndex(SwitchId s, Phase p) const {
    return s * 2 + static_cast<std::size_t>(p);
  }

  const SwitchGraph* graph_;
  SwitchId root_;
  std::vector<std::size_t> level_;      // BFS level from root
  std::vector<SwitchId> up_end_;        // per link
  // dist_to_dest_[t][state]: minimal legal hops from (switch,phase) to t;
  // SIZE_MAX when t is unreachable in that phase (descent-only dead ends).
  std::vector<std::vector<std::size_t>> dist_to_dest_;
};

/// Picks the root for a graph under a policy (exposed for tests/reports).
[[nodiscard]] SwitchId SelectRoot(const SwitchGraph& graph, RootPolicy policy);

}  // namespace commsched::route
