#include "simnet/vc_routing.h"

#include <algorithm>

#include "common/check.h"
#include "routing/deadlock.h"

namespace commsched::sim {

SingleClassVcPolicy::SingleClassVcPolicy(const Routing& routing, std::size_t vc_count,
                                         bool adaptive)
    : routing_(&routing), vc_count_(vc_count), adaptive_(adaptive) {
  CS_CHECK(vc_count >= 1, "need at least one virtual channel");
}

std::vector<VcCandidate> SingleClassVcPolicy::Candidates(SwitchId current, SwitchId dest,
                                                         Phase phase, bool /*on_escape*/) const {
  std::vector<VcCandidate> candidates;
  const auto hops = routing_->NextHops(current, dest, phase);
  const std::size_t links = adaptive_ ? hops.size() : std::min<std::size_t>(1, hops.size());
  candidates.reserve(links * vc_count_);
  // VC-major order so a blocked VC 0 falls through to VC 1 of the same link
  // before trying the next link (keeps deterministic routing on one path).
  for (std::size_t l = 0; l < links; ++l) {
    for (std::size_t vc = 0; vc < vc_count_; ++vc) {
      candidates.push_back({hops[l].link, hops[l].next, hops[l].phase, vc, false});
    }
  }
  return candidates;
}

std::string SingleClassVcPolicy::Name() const {
  return routing_->Name() + (adaptive_ ? "/adaptive" : "/deterministic") + "/vc" +
         std::to_string(vc_count_);
}

DuatoFullyAdaptivePolicy::DuatoFullyAdaptivePolicy(const SwitchGraph& graph,
                                                   std::size_t vc_count,
                                                   route::RootPolicy root_policy)
    : graph_(&graph), vc_count_(vc_count), escape_(graph, root_policy), adaptive_(graph) {
  CS_CHECK(vc_count >= 2, "Duato fully-adaptive routing needs an escape VC plus at least one "
                          "adaptive VC (vc_count >= 2)");
}

std::vector<VcCandidate> DuatoFullyAdaptivePolicy::Candidates(SwitchId current, SwitchId dest,
                                                              Phase phase,
                                                              bool on_escape) const {
  std::vector<VcCandidate> candidates;
  if (on_escape) {
    // Committed to the escape network: deterministic up*/down* on VC 0.
    const auto hops = escape_.NextHops(current, dest, phase);
    CS_CHECK(!hops.empty(), "escape network must offer a hop");
    candidates.push_back({hops.front().link, hops.front().next, hops.front().phase, 0, true});
    return candidates;
  }
  // Adaptive channels on every minimal physical hop, preferred.
  const auto minimal = adaptive_.NextHops(current, dest, Phase::kUp);
  for (const route::NextHop& hop : minimal) {
    for (std::size_t vc = 1; vc < vc_count_; ++vc) {
      candidates.push_back({hop.link, hop.next, Phase::kUp, vc, false});
    }
  }
  // Escape channel as the fallback. A message enters the escape network as
  // if freshly injected at `current` (phase restarts at kUp) — legal because
  // the escape subfunction routes from the current switch.
  const auto escape_hops = escape_.NextHops(current, dest, Phase::kUp);
  for (const route::NextHop& hop : escape_hops) {
    candidates.push_back({hop.link, hop.next, hop.phase, 0, true});
  }
  return candidates;
}

CompiledVcRoutes::CompiledVcRoutes(const VcRoutingPolicy& policy)
    : policy_(&policy),
      switch_count_(policy.graph().switch_count()),
      runs_(switch_count_ * switch_count_ * 4, Run{kUncompiled, 0}) {
  CS_CHECK(2 * policy.graph().link_count() * policy.vc_count() < kUncompiled,
           "too many link VCs for 32-bit output ports");
}

void CompiledVcRoutes::Compile(std::size_t state, SwitchId current, SwitchId dest, Phase phase,
                               bool on_escape) {
  const SwitchGraph& graph = policy_->graph();
  const std::size_t vc_count = policy_->vc_count();
  const std::vector<VcCandidate> candidates =
      policy_->Candidates(current, dest, phase, on_escape);
  const std::size_t begin = arena_.size();
  CS_CHECK(begin + candidates.size() < kUncompiled, "compiled route table overflow");
  for (const VcCandidate& cand : candidates) {
    const topo::Link& link = graph.link(cand.link);
    CS_DCHECK(link.a == current || link.b == current, "candidate not incident");
    const std::size_t channel = 2 * cand.link + (link.a == current ? 0 : 1);
    arena_.push_back({static_cast<std::uint32_t>(channel * vc_count + cand.vc), cand.phase,
                      cand.escape});
  }
  runs_[state] = {static_cast<std::uint32_t>(begin),
                  static_cast<std::uint32_t>(candidates.size())};
}

bool VerifyDuatoSafety(const DuatoFullyAdaptivePolicy& policy) {
  // Obligation 1: acyclic escape CDG.
  if (!route::IsDeadlockFree(policy.escape_routing())) {
    return false;
  }
  // Obligation 2: an escape candidate from every adaptive state.
  const std::size_t n = policy.graph().switch_count();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto candidates = policy.Candidates(s, t, Phase::kUp, /*on_escape=*/false);
      const bool has_escape = std::any_of(candidates.begin(), candidates.end(),
                                          [](const VcCandidate& c) { return c.escape; });
      if (!has_escape) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace commsched::sim
