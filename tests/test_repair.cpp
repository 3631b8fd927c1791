// Anchored repair scheduling (ISSUE 3 tentpole part 3): forced migration of
// processes off lost hardware, then budget-bounded swap refinement anchored
// at the current mapping.
#include "sched/repair.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/quality.h"
#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::sched {
namespace {

struct Fixture {
  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  dist::DistanceTable table;

  Fixture()
      : graph(topo::MakeFourRingsOfSix()),
        routing(graph),
        table(dist::DistanceTable::Build(routing)) {}
};

TEST(Repair, ForcedDraftingFillsDeficitsFromSpare) {
  Fixture f;
  // Clusters 0/1 lost switches (deficit 2 and 1); cluster 2 is the free
  // pool holding everything else.
  const qual::Partition anchor = qual::Partition::Blocked({4, 4, 16});
  const RepairOptions options{.migration_budget = 0};  // isolate phase 1
  const RepairOutcome outcome = AnchoredRepair(f.table, anchor, {2, 1, 0}, 2, options);
  EXPECT_EQ(outcome.forced_moves, 3u);
  EXPECT_EQ(outcome.refinement_swaps, 0u);
  EXPECT_EQ(outcome.repaired.ClusterSize(0), 6u);
  EXPECT_EQ(outcome.repaired.ClusterSize(1), 5u);
  EXPECT_EQ(outcome.repaired.ClusterSize(2), 13u);
  // Drafting is greedy-minimal: every drafted switch really came out of the
  // spare pool (clusters 0/1 kept their original members).
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(outcome.repaired.ClusterOf(s), 0u);
  for (std::size_t s = 4; s < 8; ++s) EXPECT_EQ(outcome.repaired.ClusterOf(s), 1u);
}

TEST(Repair, DraftingStopsWhenPoolRunsDry) {
  Fixture f;
  const qual::Partition anchor = qual::Partition::Blocked({10, 12, 2});
  const RepairOptions options{.migration_budget = 0};
  const RepairOutcome outcome = AnchoredRepair(f.table, anchor, {5, 0, 0}, 2, options);
  // A cluster can never be emptied, so only 1 of the 2 spares is draftable.
  EXPECT_EQ(outcome.forced_moves, 1u);
  EXPECT_EQ(outcome.repaired.ClusterSize(0), 11u);
  EXPECT_EQ(outcome.repaired.ClusterSize(2), 1u);
}

TEST(Repair, RefinementImprovesFgWithoutExceedingBudget) {
  Fixture f;
  Rng rng(7);
  const qual::Partition anchor = qual::Partition::Random({6, 6, 6, 6}, rng);
  RepairOptions options;
  options.migration_budget = 6;
  const RepairOutcome outcome = AnchoredRepair(f.table, anchor, {}, std::nullopt, options);
  EXPECT_LE(outcome.repaired_fg, outcome.anchor_fg + 1e-9);
  EXPECT_LE(outcome.displaced, 6u);
  // displaced counts switches whose cluster differs from the anchor.
  std::size_t moved = 0;
  for (std::size_t s = 0; s < 24; ++s) {
    if (outcome.repaired.ClusterOf(s) != anchor.ClusterOf(s)) ++moved;
  }
  EXPECT_EQ(moved, outcome.displaced);
  EXPECT_DOUBLE_EQ(outcome.repaired_fg, qual::GlobalSimilarity(f.table, outcome.repaired));
}

TEST(Repair, ZeroBudgetFreezesTheAnchor) {
  Fixture f;
  Rng rng(11);
  const qual::Partition anchor = qual::Partition::Random({6, 6, 6, 6}, rng);
  const RepairOptions options{.migration_budget = 0};
  const RepairOutcome outcome = AnchoredRepair(f.table, anchor, {}, std::nullopt, options);
  EXPECT_EQ(outcome.refinement_swaps, 0u);
  EXPECT_EQ(outcome.displaced, 0u);
  for (std::size_t s = 0; s < 24; ++s) {
    EXPECT_EQ(outcome.repaired.ClusterOf(s), anchor.ClusterOf(s));
  }
}

TEST(Repair, MigrationPenaltySuppressesMarginalSwaps) {
  Fixture f;
  Rng rng(7);
  const qual::Partition anchor = qual::Partition::Random({6, 6, 6, 6}, rng);
  RepairOptions cheap;
  cheap.migration_penalty = 0.0;
  RepairOptions expensive;
  expensive.migration_penalty = 1e6;  // any displacement is prohibitive
  const RepairOutcome free_moves = AnchoredRepair(f.table, anchor, {}, std::nullopt, cheap);
  const RepairOutcome costly = AnchoredRepair(f.table, anchor, {}, std::nullopt, expensive);
  EXPECT_GT(free_moves.refinement_swaps, 0u);  // random start leaves easy gains
  EXPECT_EQ(costly.refinement_swaps, 0u);
  EXPECT_GE(free_moves.displaced, costly.displaced);
}

TEST(Repair, RefinementStopsAtItsLocalMinimum) {
  // An 8-switch irregular network whose random anchor has equal-valued
  // swaps at its local minimum: refinement must stop there instead of
  // swapping tied pairs back and forth until the round budget runs out.
  topo::IrregularTopologyOptions topo_options;
  topo_options.switch_count = 8;
  topo_options.seed = 1;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(topo_options);
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const std::vector<std::size_t> sizes = {2, 2, 2, 2};
  Rng rng(41);
  const qual::Partition anchor = qual::Partition::Random(sizes, rng);

  const RepairOptions options;
  const RepairOutcome outcome = AnchoredRepair(table, anchor, {}, std::nullopt, options);
  ASSERT_GT(outcome.refinement_swaps, 0u);
  EXPECT_LT(outcome.refinement_swaps, options.max_refinement_rounds);

  // A budget of exactly the swaps it took reaches the same mapping.
  RepairOptions exact = options;
  exact.max_refinement_rounds = outcome.refinement_swaps;
  const RepairOutcome rerun = AnchoredRepair(table, anchor, {}, std::nullopt, exact);
  EXPECT_EQ(rerun.repaired.ToString(), outcome.repaired.ToString());
}

TEST(Repair, DeficitVectorMustMatchClusterCount) {
  Fixture f;
  const qual::Partition anchor = qual::Partition::Blocked({12, 12});
  EXPECT_THROW((void)AnchoredRepair(f.table, anchor, {1, 0, 0}, 0), ContractError);
  EXPECT_THROW((void)AnchoredRepair(f.table, anchor, {1, 0}, 5), ContractError);  // spare range
}

}  // namespace
}  // namespace commsched::sched
