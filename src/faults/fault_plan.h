// Declarative fault schedules (ISSUE 3 tentpole, part 1).
//
// A FaultPlan is an ordered list of component failure/repair events pinned
// to simulation cycles, mirroring the Autonet setting (paper §5) where the
// network self-reconfigures after link or switch failures.  Plans are
// loadable from a small JSON document so chaos scenarios can be described
// next to the experiment that runs them:
//
//   {"events": [
//     {"at": 6000,  "kind": "link_down",   "a": 0, "b": 1},
//     {"at": 6000,  "kind": "switch_down", "switch": 3},
//     {"at": 20000, "kind": "link_up",     "a": 0, "b": 1}
//   ]}
//
// All malformed input is reported as ConfigError — a fault plan is user
// configuration, never a programming contract.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "topology/graph.h"

namespace commsched::faults {

/// What happens to the network at a fault event.
enum class FaultKind {
  kLinkDown,    // an undirected link a--b fails
  kLinkUp,      // a previously failed link a--b is repaired
  kSwitchDown,  // a switch (and every incident link + attached hosts) fails
  kSwitchUp,    // a previously failed switch is repaired
};

/// One scheduled event.  `a`/`b` are used by link events, `switch_id` by
/// switch events; the unused fields are zero.
struct FaultEvent {
  std::size_t at_cycle = 0;
  FaultKind kind = FaultKind::kLinkDown;
  topo::SwitchId a = 0;
  topo::SwitchId b = 0;
  topo::SwitchId switch_id = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// An immutable, cycle-ordered schedule of fault events.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Builds a plan from events; sorts them by cycle (stable, so same-cycle
  /// events keep their declaration order).
  static FaultPlan FromEvents(std::vector<FaultEvent> events);

  /// Parses the JSON document format shown in the header comment with the
  /// common parser (common/json.h); cycles and ids must be exact integers up
  /// to 2^53. Throws ConfigError ("fault plan: ...") on any malformed input,
  /// unknown keys included.
  static FaultPlan FromJson(const std::string& text);

  /// Serializes back to the JSON document format (round-trips FromJson).
  [[nodiscard]] std::string ToJson() const;

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Checks every event references a switch/link that exists in `graph`;
  /// throws ConfigError naming the offending event otherwise.  Link events
  /// must name a link present in the base topology (a link can only fail if
  /// it was built in the first place).
  void ValidateFor(const topo::SwitchGraph& graph) const;

  /// Stable short name for a kind ("link_down", ...), used in JSON and in
  /// fault.* trace events.
  [[nodiscard]] static const char* KindName(FaultKind kind);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace commsched::faults
