// Virtual-channel routing policies.
//
// The simulator multiplexes each physical link into `vc_count` virtual
// channels (flit-level interleaving, one flit per physical link per cycle).
// A policy maps a header's state to the set of (link, virtual channel)
// outputs it may claim:
//
//   * SingleClassVcPolicy — every VC carries the same routing function
//     (up*/down* or unrestricted shortest path), deterministic or adaptive
//     across links. VCs only add buffering/head-of-line relief.
//   * DuatoFullyAdaptivePolicy — Duato's design-methodology routing [8]:
//     VCs 1..V-1 are *adaptive* channels usable on any minimal physical
//     path; VC 0 is the *escape* channel restricted to up*/down*. A message
//     that takes the escape channel stays on it to the destination (the
//     conservative variant, provably deadlock-free: the escape subnetwork
//     has an acyclic CDG and every adaptive channel can drain into it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "routing/routing.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"

namespace commsched::sim {

using route::LinkId;
using route::Phase;
using route::Routing;
using route::SwitchId;
using topo::SwitchGraph;

/// One claimable output: a virtual channel of a directed link.
struct VcCandidate {
  LinkId link = 0;
  SwitchId next = 0;
  Phase phase = Phase::kUp;  // message phase after the traversal
  std::size_t vc = 0;
  bool escape = false;       // message commits to the escape network

  friend bool operator==(const VcCandidate&, const VcCandidate&) = default;
};

class VcRoutingPolicy {
 public:
  virtual ~VcRoutingPolicy() = default;

  [[nodiscard]] virtual const SwitchGraph& graph() const = 0;
  [[nodiscard]] virtual std::size_t vc_count() const = 0;

  /// Outputs a header at `current` heading to `dest` may claim, in
  /// preference order (the simulator tries them first to last).
  /// `phase`/`on_escape` describe the message's routing state.
  [[nodiscard]] virtual std::vector<VcCandidate> Candidates(SwitchId current, SwitchId dest,
                                                            Phase phase,
                                                            bool on_escape) const = 0;

  [[nodiscard]] virtual std::string Name() const = 0;
};

/// Same routing function on every VC. `adaptive` selects among all offered
/// links (and VCs); otherwise only the first offered link (still any VC).
class SingleClassVcPolicy final : public VcRoutingPolicy {
 public:
  /// `routing` must outlive the policy.
  SingleClassVcPolicy(const Routing& routing, std::size_t vc_count, bool adaptive);

  [[nodiscard]] const SwitchGraph& graph() const override { return routing_->graph(); }
  [[nodiscard]] std::size_t vc_count() const override { return vc_count_; }
  [[nodiscard]] std::vector<VcCandidate> Candidates(SwitchId current, SwitchId dest, Phase phase,
                                                    bool on_escape) const override;
  [[nodiscard]] std::string Name() const override;

 private:
  const Routing* routing_;
  std::size_t vc_count_;
  bool adaptive_;
};

/// Duato fully-adaptive minimal routing with an up*/down* escape channel.
/// Requires vc_count >= 2. Owns its two routing functions.
class DuatoFullyAdaptivePolicy final : public VcRoutingPolicy {
 public:
  /// `graph` must outlive the policy.
  DuatoFullyAdaptivePolicy(const SwitchGraph& graph, std::size_t vc_count,
                           route::RootPolicy root_policy = route::RootPolicy::kMaxDegree);

  [[nodiscard]] const SwitchGraph& graph() const override { return *graph_; }
  [[nodiscard]] std::size_t vc_count() const override { return vc_count_; }
  [[nodiscard]] std::vector<VcCandidate> Candidates(SwitchId current, SwitchId dest, Phase phase,
                                                    bool on_escape) const override;
  [[nodiscard]] std::string Name() const override { return "duato-fully-adaptive"; }

  [[nodiscard]] const route::UpDownRouting& escape_routing() const { return escape_; }
  [[nodiscard]] const route::ShortestPathRouting& adaptive_routing() const { return adaptive_; }

 private:
  const SwitchGraph* graph_;
  std::size_t vc_count_;
  route::UpDownRouting escape_;
  route::ShortestPathRouting adaptive_;
};

/// One ready-to-claim output of a compiled routing state: the simulator's
/// output-port index of a link VC (`channel * V + vc`, channel = 2*link +
/// dir, dir 0 when leaving through the link's `a` end) plus the routing
/// state the message carries across.
struct CompiledCandidate {
  std::uint32_t port = 0;
  Phase phase = Phase::kUp;  // message phase after the traversal
  bool escape = false;       // message commits to the escape network

  friend bool operator==(const CompiledCandidate&, const CompiledCandidate&) = default;
};

/// A VcRoutingPolicy compiled into flat per-state runs of output ports,
/// keyed by (switch, destination, phase, on_escape). Each run holds
/// exactly the policy's Candidates() in the same preference order, so
/// arbitration over it is interchangeable with arbitration over the policy.
/// Runs live in one CSR-style arena and are compiled on first lookup: a
/// large network pays only for the states its traffic reaches. Not
/// thread-safe (lookups fill the table); each simulator owns its own, while
/// the policy itself may be shared.
class CompiledVcRoutes {
 public:
  /// `policy` must outlive the table.
  explicit CompiledVcRoutes(const VcRoutingPolicy& policy);

  /// Candidates of a header at `current` heading to `dest` (current !=
  /// dest), compiled on first use. The span is valid until the next lookup.
  [[nodiscard]] std::span<const CompiledCandidate> Lookup(SwitchId current, SwitchId dest,
                                                          Phase phase, bool on_escape) {
    const std::size_t state =
        ((current * switch_count_ + dest) * 2 + static_cast<std::size_t>(phase)) * 2 +
        (on_escape ? 1 : 0);
    if (runs_[state].begin == kUncompiled) Compile(state, current, dest, phase, on_escape);
    const Run run = runs_[state];
    return {arena_.data() + run.begin, run.size};
  }

 private:
  struct Run {
    std::uint32_t begin;
    std::uint32_t size;
  };
  static constexpr std::uint32_t kUncompiled = static_cast<std::uint32_t>(-1);

  void Compile(std::size_t state, SwitchId current, SwitchId dest, Phase phase, bool on_escape);

  const VcRoutingPolicy* policy_;
  std::size_t switch_count_;
  std::vector<Run> runs_;                 // per state; begin == kUncompiled until used
  std::vector<CompiledCandidate> arena_;  // every compiled run, back to back
};

/// Structural safety check for the Duato policy, following the design
/// methodology's two obligations:
///   1. the escape subnetwork (up*/down* on VC 0) has an acyclic channel
///      dependency graph — deadlock-free on its own; and
///   2. every adaptive-phase state (switch, destination) is offered at
///      least one escape candidate, so blocked messages can always drain.
/// Returns true iff both hold (they do by construction; this makes the
/// argument machine-checked).
[[nodiscard]] bool VerifyDuatoSafety(const DuatoFullyAdaptivePolicy& policy);

}  // namespace commsched::sim
