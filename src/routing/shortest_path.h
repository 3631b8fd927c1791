// Unrestricted minimal-path routing: every physical shortest path is
// permitted. Used for regular topologies (where dimension-ordered or other
// deadlock-free schedules exist) and as the ablation contrast for the
// up*/down* restriction. Note: on topologies with cycles this routing is
// NOT deadlock-free on a single virtual channel — the deadlock checker in
// routing/deadlock.h demonstrates this.
#pragma once

#include "routing/routing.h"

namespace commsched::route {

class ShortestPathRouting final : public Routing {
 public:
  /// Builds all-pairs BFS tables; the graph must stay alive and unchanged.
  explicit ShortestPathRouting(const SwitchGraph& graph);

  [[nodiscard]] const SwitchGraph& graph() const override { return *graph_; }
  [[nodiscard]] std::size_t MinimalDistance(SwitchId s, SwitchId t) const override;
  void NextHopsInto(SwitchId current, SwitchId dest, Phase phase,
                    std::vector<NextHop>& out) const override;
  [[nodiscard]] Phase ArrivalPhase(LinkId link, SwitchId into) const override;
  [[nodiscard]] std::string Name() const override { return "shortest-path"; }

 private:
  const SwitchGraph* graph_;
  std::vector<std::vector<std::size_t>> dist_;  // dist_[t][u]
};

}  // namespace commsched::route
