// The engine's one scan rule and the Objective contract it relies on.
//
// Tie rule: a decrease must be below -kSearchEps. Evaluator deltas carry
// last-bit noise (the O(1) gain-table deltas differ from a re-summed delta
// in the last bits), so candidates within kSearchEps of the least cost are
// tied, and the lexicographically smallest pair among them wins, whatever
// the scan order — for the Tabu walk and for pure descent alike.
//
// Contract: every objective's SwapCost is the change in Value() the swap
// causes, so the scan, aspiration and best-tracking all work in one space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "routing/updown.h"
#include "sched/engine.h"
#include "topology/generator.h"

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

/// One walk over the scripted objective.
sched::SeedRun Walk(ScriptedObjective& objective, std::size_t local_min_repeats,
                    std::size_t max_iterations) {
  sched::EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = max_iterations;
  options.local_min_repeats = local_min_repeats;
  const sched::SearchEngine engine("tie_test", options);
  return engine.RunSeed(objective, 0);
}

/// The first move a one-iteration walk takes.
Move FirstMove(std::size_t local_min_repeats, const std::map<Move, double>& first_scan) {
  ScriptedObjective objective(first_scan);
  static_cast<void>(Walk(objective, local_min_repeats, 1));
  EXPECT_EQ(objective.applied().size(), 1u);
  return objective.applied().empty() ? Move{0, 0} : objective.applied().front();
}

TEST(EngineTieRule, CandidatesWithinEpsTakeTheSmallestPair) {
  // (0,3) is lower than (0,2) by less than kSearchEps: a tie.
  const std::map<Move, double> tie = {{{0, 2}, -1.0}, {{0, 3}, -1.0 - 0.5 * sched::kSearchEps}};
  EXPECT_EQ(FirstMove(3, tie), Move(0, 2));
  EXPECT_EQ(FirstMove(1, tie), Move(0, 2));
}

TEST(EngineTieRule, CandidatesBeyondEpsTakeTheLower) {
  const std::map<Move, double> clear = {{{0, 2}, -1.0}, {{0, 3}, -1.0 - 1e3 * sched::kSearchEps}};
  EXPECT_EQ(FirstMove(3, clear), Move(0, 3));
  EXPECT_EQ(FirstMove(1, clear), Move(0, 3));
}

// Ties are measured from the least cost, not from whichever candidate was
// held: (0,3) is within kSearchEps of the least, (1,2), and wins as the
// smaller pair; (0,2) is not, though it is within kSearchEps of (0,3).
TEST(EngineTieRule, TiesAreMeasuredFromTheLeastCost) {
  const std::map<Move, double> chain = {{{0, 2}, -1.0},
                                        {{0, 3}, -1.0 - 0.6 * sched::kSearchEps},
                                        {{1, 2}, -1.0 - 1.2 * sched::kSearchEps}};
  EXPECT_EQ(FirstMove(3, chain), Move(0, 3));
  EXPECT_EQ(FirstMove(1, chain), Move(0, 3));
}

TEST(EngineTieRule, DescentStopsAtTheFirstLocalMinimum) {
  const std::map<Move, double> one_drop = {{{0, 2}, -1.0}};

  ScriptedObjective descent(one_drop);
  const sched::SeedRun stopped = Walk(descent, 1, 5);
  EXPECT_EQ(descent.applied().size(), 1u);
  EXPECT_EQ(stopped.escapes, 0u);

  ScriptedObjective tabu(one_drop);
  const sched::SeedRun escaped = Walk(tabu, 3, 5);
  EXPECT_GT(tabu.applied().size(), 1u);
  EXPECT_GT(escaped.escapes, 0u);
}

dist::DistanceTable IrregularTable(std::size_t switches) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = 3;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(graph);
  return dist::DistanceTable::Build(routing);
}

/// Applies `swaps` random inter-cluster swaps and checks, before each one,
/// that Value() + SwapCost(a, b) is the Value() the swap leaves behind.
/// Inadmissible swaps (non-finite cost) are drawn but not applied.
void ExpectSwapCostIsValueDelta(sched::Objective& objective, std::uint64_t seed,
                                std::size_t swaps, const std::string& label) {
  Rng rng(seed);
  for (std::size_t k = 0; k < swaps; ++k) {
    const auto [a, b] = sched::RandomInterClusterPair(objective.partition(), rng);
    const double cost = objective.SwapCost(a, b);
    if (!std::isfinite(cost)) continue;
    const double predicted = objective.Value() + cost;
    objective.Apply(a, b);
    const double actual = objective.Value();
    ASSERT_NEAR(predicted, actual, 1e-9 * std::max(1.0, std::abs(actual)))
        << label << " swap " << k << " (" << a << "," << b << ")";
  }
}

TEST(EngineObjective, ValuePlusSwapCostIsValueAfterApply) {
  constexpr std::size_t kSwaps = 200;
  for (const std::size_t switches : {std::size_t{16}, std::size_t{24}}) {
    const dist::DistanceTable table = IrregularTable(switches);
    const std::vector<std::size_t> sizes(4, switches / 4);
    Rng rng(switches);
    const qual::Partition start = qual::Partition::Random(sizes, rng);
    const qual::Partition anchor = qual::Partition::Random(sizes, rng);
    const std::vector<double> intensity = {1.0, 1.5, 2.0, 3.5};
    const std::string net = std::to_string(switches) + "-switch ";

    sched::TabuObjective plain(table, start, nullptr, 0.0);
    ExpectSwapCostIsValueDelta(plain, 1, kSwaps, net + "tabu");
    sched::TabuObjective anchored(table, start, &anchor, 0.25);
    ExpectSwapCostIsValueDelta(anchored, 2, kSwaps, net + "anchored tabu");
    sched::TabuObjective bounded(table, anchor, &anchor, 0.25, 5);
    ExpectSwapCostIsValueDelta(bounded, 6, kSwaps, net + "budget-bounded tabu");
    sched::TabuObjective intensity_fg(table, start, nullptr, 0.0, SIZE_MAX, intensity);
    ExpectSwapCostIsValueDelta(intensity_fg, 4, kSwaps, net + "intensity");
    qual::SwapEvaluator eval(table, start);
    sched::IntraSumObjective intra(table, eval);
    ExpectSwapCostIsValueDelta(intra, 5, kSwaps, net + "intra sum");
  }
}

/// All unordered switch pairs (a, b) lying in different clusters — the swap
/// neighbourhood of §4.2.
std::vector<std::pair<std::size_t, std::size_t>> InterClusterPairs(
    const qual::Partition& partition) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < partition.switch_count(); ++a) {
    for (std::size_t b = a + 1; b < partition.switch_count(); ++b) {
      if (partition.ClusterOf(a) != partition.ClusterOf(b)) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

// An anchored TabuObjective with a migration budget prices a swap at +inf
// exactly when it would leave more than `budget` switches off their anchor
// cluster; every other swap keeps its finite F_G + migration cost.
TEST(EngineObjective, BudgetMakesExactlyTheOverBudgetSwapsInadmissible) {
  constexpr std::size_t kBudget = 3;
  const dist::DistanceTable table = IrregularTable(16);
  Rng rng(9);
  const qual::Partition anchor = qual::Partition::Random({4, 4, 4, 4}, rng);
  sched::TabuObjective objective(table, anchor, &anchor, 0.5, kBudget);
  std::size_t inadmissible = 0;
  for (int step = 0; step < 60; ++step) {
    const qual::Partition current = objective.partition();
    ASSERT_EQ(objective.moved(), sched::CountMovedFromAnchor(current, anchor));
    ASSERT_LE(objective.moved(), kBudget);
    for (const auto& [a, b] : InterClusterPairs(current)) {
      qual::Partition after = current;
      after.Swap(a, b);
      const bool over = sched::CountMovedFromAnchor(after, anchor) > kBudget;
      const double cost = objective.SwapCost(a, b);
      if (over) {
        EXPECT_EQ(cost, std::numeric_limits<double>::infinity()) << step << ": " << a << "," << b;
        ++inadmissible;
      } else {
        EXPECT_TRUE(std::isfinite(cost)) << step << ": " << a << "," << b;
      }
    }
    // Walk on through a random admissible swap.
    for (;;) {
      const auto [a, b] = sched::RandomInterClusterPair(current, rng);
      if (std::isfinite(objective.SwapCost(a, b))) {
        objective.Apply(a, b);
        break;
      }
    }
  }
  EXPECT_GT(inadmissible, 0u);
}

// Seeds combine by the same margin: a later seed wins only by more than
// kSearchEps. Of the planted bests {1, 1 - 1e-13, 0.5, 0.5 - 1e-13}, seed 1
// ties seed 0 and seed 3 ties seed 2, so seed 2 wins (a combine without
// the margin would pick seed 3). Sequential or on the thread pool, the runs
// come back in seed order and the same seed wins.
TEST(EngineMultiStart, TiesKeepTheEarliestSeed) {
  const std::vector<double> planted = {1.0, 1.0 - 1e-13, 0.5, 0.5 - 1e-13};
  const std::vector<qual::Partition> bests = {
      qual::Partition(std::vector<std::size_t>{0, 0, 1, 1}),
      qual::Partition(std::vector<std::size_t>{0, 1, 0, 1}),
      qual::Partition(std::vector<std::size_t>{0, 1, 1, 0}),
      qual::Partition(std::vector<std::size_t>{1, 0, 0, 1})};
  const dist::DistanceTable table(4, 1.0);
  for (const bool parallel : {false, true}) {
    sched::MultiStartSpec spec;
    spec.algo = "tie_test";
    spec.options.seeds = planted.size();
    spec.options.parallel_seeds = parallel;
    spec.run_seed = [&](std::size_t k) {
      sched::SeedRun run;
      run.result.best = bests[k];
      run.result.best_fg = planted[k];
      run.result.iterations = k + 1;
      run.result.evaluations = 10 * (k + 1);
      run.best_value = planted[k];
      return run;
    };
    spec.combine_key = [](const sched::SeedRun& run) { return run.best_value; };
    spec.finalize_combined = false;

    const std::vector<sched::SeedRun> runs = sched::RunSeeds(spec.options, spec.run_seed);
    ASSERT_EQ(runs.size(), planted.size());
    for (std::size_t k = 0; k < runs.size(); ++k) {
      EXPECT_EQ(runs[k].best_value, planted[k]) << "parallel=" << parallel;
    }
    EXPECT_EQ(sched::BestSeed(runs, spec.combine_key), 2u) << "parallel=" << parallel;

    const sched::SearchResult combined = sched::RunMultiStart(table, spec);
    EXPECT_EQ(combined.best.ToString(), bests[2].ToString()) << "parallel=" << parallel;
    EXPECT_EQ(combined.best_fg, planted[2]);
    EXPECT_EQ(combined.iterations, 10u);  // summed over all four seeds
    EXPECT_EQ(combined.evaluations, 100u);
  }
}

}  // namespace
}  // namespace commsched
