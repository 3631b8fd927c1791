// Routing abstraction shared by the distance model and the simulator.
//
// A message carries a routing phase: up*/down* routing (Autonet, [21]) allows
// zero or more "up" traversals followed by zero or more "down" traversals.
// Routing functions that have no phase restriction simply keep every message
// in the Up phase.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "topology/graph.h"

namespace commsched::route {

using topo::LinkId;
using topo::SwitchGraph;
using topo::SwitchId;

/// Routing phase of an in-flight message.
enum class Phase : std::uint8_t {
  kUp = 0,   // may still climb toward the root
  kDown = 1  // committed to descending
};

/// A candidate next traversal for a message.
struct NextHop {
  LinkId link = 0;     // physical link to traverse
  SwitchId next = 0;   // switch at the far end
  Phase phase = Phase::kUp;  // message phase after the traversal

  friend bool operator==(const NextHop&, const NextHop&) = default;
};

/// Set-up loops that run once per destination switch (the up*/down*
/// backward BFS, the distance table's columns) run inline on networks of
/// fewer switches than this: there a whole loop costs less than handing
/// its work to the thread pool (DESIGN.md §5).
inline constexpr std::size_t kParallelSetupMinSwitches = 32;

/// Interface implemented by every routing function.
///
/// All paths "supplied by the routing algorithm" between s and t are the
/// minimal-length paths that the function permits; LinksOnMinimalPaths
/// returns the union of links appearing on any of them, which is exactly the
/// resistor network of the equivalent-distance model (§3).
class Routing {
 public:
  virtual ~Routing() = default;

  /// The topology this routing function was built for.
  [[nodiscard]] virtual const SwitchGraph& graph() const = 0;

  /// Length (hops) of a minimal permitted path from s to t; 0 when s == t.
  [[nodiscard]] virtual std::size_t MinimalDistance(SwitchId s, SwitchId t) const = 0;

  /// Union of links on every minimal permitted path from s to t (sorted,
  /// deduplicated). Empty when s == t. A walk over NextHopsInto from
  /// (s, kUp): the per-pair reference that DistanceTable::Build's
  /// per-destination sets are tested against.
  [[nodiscard]] std::vector<LinkId> LinksOnMinimalPaths(SwitchId s, SwitchId t) const;

  /// Candidate next traversals for a message at `current` heading to `dest`
  /// in phase `phase`, restricted to minimal remaining paths. Sorted by link
  /// id (so "deterministic" routing = take the first). Empty when
  /// current == dest, or when no permitted path exists from this phase
  /// (possible only for states no real message ever reaches; probed by the
  /// deadlock analyzer).
  [[nodiscard]] std::vector<NextHop> NextHops(SwitchId current, SwitchId dest,
                                              Phase phase) const {
    std::vector<NextHop> hops;
    NextHopsInto(current, dest, phase, hops);
    return hops;
  }

  /// NextHops written into `out`, replacing its contents, so a caller that
  /// queries many states (the deadlock analyzer) reuses one buffer.
  virtual void NextHopsInto(SwitchId current, SwitchId dest, Phase phase,
                            std::vector<NextHop>& out) const = 0;

  /// Phase a message is in right after traversing `link` into `into`.
  /// Phase-free routing functions return kUp.
  [[nodiscard]] virtual Phase ArrivalPhase(LinkId link, SwitchId into) const = 0;

  /// Human-readable name for reports.
  [[nodiscard]] virtual std::string Name() const = 0;
};

/// Enumerates every minimal permitted path from s to t (as switch sequences).
/// Exponential in the worst case; intended for tests and small networks.
[[nodiscard]] std::vector<std::vector<SwitchId>> EnumerateMinimalPaths(const Routing& routing,
                                                                       SwitchId s, SwitchId t,
                                                                       std::size_t limit = 100000);

}  // namespace commsched::route
