#include "faults/degraded.h"

#include <algorithm>
#include <sstream>

namespace commsched::faults {
namespace {

std::string JoinIds(const std::vector<topo::SwitchId>& ids) {
  std::ostringstream out;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (k > 0) out << ", ";
    out << ids[k];
  }
  return out.str();
}

}  // namespace

DegradedView::DegradedView(const topo::SwitchGraph& base)
    : base_(&base),
      link_down_(base.link_count(), false),
      switch_down_(base.switch_count(), false) {}

void DegradedView::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kLinkDown: FailLink(event.a, event.b); return;
    case FaultKind::kLinkUp: RestoreLink(event.a, event.b); return;
    case FaultKind::kSwitchDown: FailSwitch(event.switch_id); return;
    case FaultKind::kSwitchUp: RestoreSwitch(event.switch_id); return;
  }
  CS_UNREACHABLE("bad FaultKind");
}

void DegradedView::FailLink(topo::SwitchId a, topo::SwitchId b) {
  const auto link = base_->FindLink(a, b);
  if (!link.has_value()) {
    throw ConfigError("cannot fail link " + std::to_string(a) + "--" + std::to_string(b) +
                      ": no such link");
  }
  link_down_[*link] = true;
}

void DegradedView::RestoreLink(topo::SwitchId a, topo::SwitchId b) {
  const auto link = base_->FindLink(a, b);
  if (!link.has_value()) {
    throw ConfigError("cannot restore link " + std::to_string(a) + "--" + std::to_string(b) +
                      ": no such link");
  }
  link_down_[*link] = false;
}

void DegradedView::FailSwitch(topo::SwitchId s) {
  if (s >= switch_down_.size()) {
    throw ConfigError("cannot fail switch " + std::to_string(s) + ": out of range");
  }
  switch_down_[s] = true;
}

void DegradedView::RestoreSwitch(topo::SwitchId s) {
  if (s >= switch_down_.size()) {
    throw ConfigError("cannot restore switch " + std::to_string(s) + ": out of range");
  }
  switch_down_[s] = false;
}

bool DegradedView::LinkAlive(topo::LinkId l) const {
  if (link_down_[l]) return false;
  const topo::Link& link = base_->link(l);
  return !switch_down_[link.a] && !switch_down_[link.b];
}

std::vector<topo::SwitchId> DegradedView::LargestAliveComponent() const {
  const std::size_t n = base_->switch_count();
  std::vector<std::size_t> component(n, SIZE_MAX);
  std::vector<std::vector<topo::SwitchId>> members;
  std::vector<topo::SwitchId> stack;
  for (topo::SwitchId seed = 0; seed < n; ++seed) {
    if (switch_down_[seed] || component[seed] != SIZE_MAX) continue;
    const std::size_t id = members.size();
    members.emplace_back();
    component[seed] = id;
    stack.push_back(seed);
    while (!stack.empty()) {
      const topo::SwitchId s = stack.back();
      stack.pop_back();
      members[id].push_back(s);
      for (const topo::LinkId l : base_->incident_links(s)) {
        if (!LinkAlive(l)) continue;
        const topo::SwitchId t = base_->OtherEnd(l, s);
        if (component[t] == SIZE_MAX) {
          component[t] = id;
          stack.push_back(t);
        }
      }
    }
  }
  // Largest component; components were seeded in ascending switch order, so
  // taking the first maximum breaks ties toward the lowest-id component.
  std::size_t best = SIZE_MAX;
  for (std::size_t k = 0; k < members.size(); ++k) {
    if (best == SIZE_MAX || members[k].size() > members[best].size()) best = k;
  }
  if (best == SIZE_MAX) return {};
  std::vector<topo::SwitchId> result = members[best];
  std::sort(result.begin(), result.end());
  return result;
}

Reconfiguration DegradedView::Reconfigure(bool allow_partition) const {
  const std::size_t n = base_->switch_count();
  const std::vector<topo::SwitchId> survivors = LargestAliveComponent();
  if (survivors.empty()) {
    throw ConfigError("reconfiguration impossible: every switch has failed");
  }

  std::vector<std::optional<std::size_t>> to_compact(n);
  for (std::size_t c = 0; c < survivors.size(); ++c) to_compact[survivors[c]] = c;

  std::vector<topo::SwitchId> dead;
  std::vector<topo::SwitchId> evicted;
  for (topo::SwitchId s = 0; s < n; ++s) {
    if (switch_down_[s]) {
      dead.push_back(s);
    } else if (!to_compact[s].has_value()) {
      evicted.push_back(s);
    }
  }
  if (!evicted.empty() && !allow_partition) {
    throw PartitionedNetworkError(
        "network partitioned: switches {" + JoinIds(evicted) +
            "} are alive but disconnected from the largest surviving component",
        evicted);
  }

  topo::SwitchGraph compact(survivors.size(), base_->hosts_per_switch());
  std::vector<topo::LinkId> link_to_base;
  std::vector<std::optional<topo::LinkId>> link_to_compact(base_->link_count());
  for (topo::LinkId l = 0; l < base_->link_count(); ++l) {
    if (!LinkAlive(l)) continue;
    const topo::Link& link = base_->link(l);
    if (!to_compact[link.a].has_value() || !to_compact[link.b].has_value()) continue;
    const topo::LinkId cl = compact.AddLink(*to_compact[link.a], *to_compact[link.b]);
    CS_DCHECK(cl == link_to_base.size(), "compact link ids must be dense");
    link_to_base.push_back(l);
    link_to_compact[l] = cl;
  }

  return Reconfiguration{std::move(compact), survivors,          std::move(to_compact),
                         std::move(link_to_base), std::move(link_to_compact),
                         std::move(dead),     std::move(evicted)};
}

DegradedRouting::DegradedRouting(const topo::SwitchGraph& base, Reconfiguration reconfig,
                                 route::RootPolicy policy)
    : base_(&base), reconfig_(std::move(reconfig)) {
  CS_CHECK(reconfig_.to_compact.size() == base.switch_count(),
           "reconfiguration was built for a different base graph");
  compact_routing_ = std::make_unique<route::UpDownRouting>(reconfig_.graph, policy);
}

std::size_t DegradedRouting::MinimalDistance(topo::SwitchId s, topo::SwitchId t) const {
  if (s == t) return 0;
  const auto cs = reconfig_.to_compact[s];
  const auto ct = reconfig_.to_compact[t];
  if (!cs.has_value() || !ct.has_value()) return SIZE_MAX;
  return compact_routing_->MinimalDistance(*cs, *ct);
}

void DegradedRouting::NextHopsInto(topo::SwitchId current, topo::SwitchId dest,
                                   route::Phase phase, std::vector<route::NextHop>& out) const {
  const auto cc = reconfig_.to_compact[current];
  const auto cd = reconfig_.to_compact[dest];
  if (!cc.has_value() || !cd.has_value()) {
    out.clear();
    return;
  }
  compact_routing_->NextHopsInto(*cc, *cd, phase, out);
  for (route::NextHop& hop : out) {
    hop.link = reconfig_.link_to_base[hop.link];
    hop.next = reconfig_.to_base[hop.next];
  }
  // Compact link ids are order-preserving over base ids, so the Routing
  // contract's sorted-by-link-id order survives the translation.
}

route::Phase DegradedRouting::ArrivalPhase(topo::LinkId link, topo::SwitchId into) const {
  const auto cl = reconfig_.link_to_compact[link];
  const auto ci = reconfig_.to_compact[into];
  if (!cl.has_value() || !ci.has_value()) return route::Phase::kUp;
  return compact_routing_->ArrivalPhase(*cl, *ci);
}

}  // namespace commsched::faults
