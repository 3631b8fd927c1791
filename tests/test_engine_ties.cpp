// The engine's delta-space tie rule: once a scan holds a candidate, a later
// one must beat it by kSearchEps. Evaluator deltas carry last-bit noise (the
// O(1) gain-table deltas differ from a re-summed delta in the last bits), so
// two candidates closer than kSearchEps are a tie and the first one scanned
// wins — under both the margin rule (tabu) and the strict rule (steepest
// descent, repair).
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "sched/engine.h"

namespace commsched {
namespace {

using Move = std::pair<std::size_t, std::size_t>;

/// Two clusters {0,1} and {2,3}. The first scan sees the scripted costs
/// (every unscripted pair costs +1); once a swap is applied every swap costs
/// +1, so the walk has nothing left to descend.
class ScriptedObjective final : public sched::Objective {
 public:
  explicit ScriptedObjective(std::map<Move, double> first_scan)
      : first_scan_(std::move(first_scan)), partition_(std::vector<std::size_t>{0, 0, 1, 1}) {}

  double SwapCost(std::size_t a, std::size_t b) override {
    if (!applied_.empty()) return 1.0;
    const auto it = first_scan_.find({a, b});
    return it == first_scan_.end() ? 1.0 : it->second;
  }
  [[nodiscard]] double Value() const override { return value_; }
  [[nodiscard]] double TraceFg() const override { return value_; }
  [[nodiscard]] double AspirantValue(double cost, double current_value) override {
    return current_value + cost;
  }
  void Apply(std::size_t a, std::size_t b) override {
    value_ += SwapCost(a, b);
    applied_.emplace_back(a, b);
    partition_.Swap(a, b);
  }
  [[nodiscard]] const qual::Partition& partition() const override { return partition_; }
  void FinalizeSeed(sched::SearchResult& /*result*/) const override {}

  [[nodiscard]] const std::vector<Move>& applied() const { return applied_; }

 private:
  std::map<Move, double> first_scan_;
  qual::Partition partition_;
  std::vector<Move> applied_;
  double value_ = 0.0;
};

/// The first move a one-iteration walk under `rules` takes.
Move FirstMove(const sched::ScanRules& rules, const std::map<Move, double>& first_scan) {
  sched::EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = 1;
  const sched::SearchEngine engine("tie_test", options, rules);
  ScriptedObjective objective(first_scan);
  static_cast<void>(engine.RunSeed(objective, 0));
  EXPECT_EQ(objective.applied().size(), 1u);
  return objective.applied().empty() ? Move{0, 0} : objective.applied().front();
}

TEST(EngineTieRule, CandidatesWithinEpsKeepTheFirst) {
  // (0,3) is lower than (0,2) by less than kSearchEps: a tie.
  const std::map<Move, double> tie = {{{0, 2}, -1.0}, {{0, 3}, -1.0 - 0.5 * sched::kSearchEps}};
  EXPECT_EQ(FirstMove(sched::ScanRules::TabuMargin(), tie), Move(0, 2));
  EXPECT_EQ(FirstMove(sched::ScanRules::GreedyDescent(), tie), Move(0, 2));
  EXPECT_EQ(FirstMove(sched::ScanRules::GreedyGain(-sched::kSearchEps), tie), Move(0, 2));
}

TEST(EngineTieRule, CandidatesBeyondEpsTakeTheLower) {
  const std::map<Move, double> clear = {{{0, 2}, -1.0}, {{0, 3}, -1.0 - 1e3 * sched::kSearchEps}};
  EXPECT_EQ(FirstMove(sched::ScanRules::TabuMargin(), clear), Move(0, 3));
  EXPECT_EQ(FirstMove(sched::ScanRules::GreedyDescent(), clear), Move(0, 3));
}

TEST(EngineTieRule, StrictRuleKeepsItsThresholdForTheFirstPick) {
  // GreedyGain(t) takes any first candidate strictly below t, even one
  // within kSearchEps of t — only later candidates need the margin.
  const double threshold = -1.0;
  const std::map<Move, double> near = {{{0, 2}, threshold - 0.5 * sched::kSearchEps}};
  EXPECT_EQ(FirstMove(sched::ScanRules::GreedyGain(threshold), near), Move(0, 2));
}

}  // namespace
}  // namespace commsched
