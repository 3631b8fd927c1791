// Multilevel mapping pipeline invariants (sched/multilevel/, DESIGN.md §13).
//
// The structural invariants the pipeline's correctness rests on:
//   * heavy-edge matching is an involution that respects the size cap,
//   * contraction conserves total edge weight (coarse + absorbed == fine)
//     and total vertex size,
//   * every uncoarsening level's refined cost is <= its projected cost
//     (refinement applies only strictly improving moves),
//   * the final assignment is feasible (max_load <= hosts per switch) and
//     deterministic in the seed.
#include "sched/multilevel/multilevel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "distance/distance_table.h"
#include "quality/comm_graph.h"
#include "sched/multilevel/coarsen.h"
#include "topology/library.h"
#include "workload/procgen.h"

namespace commsched {
namespace {

using sched::ml::Coarsen;
using sched::ml::CoarsenOptions;
using sched::ml::Contract;
using sched::ml::Contraction;
using sched::ml::HeavyEdgeMatching;
using sched::ml::MapMultilevel;
using sched::ml::MatchingOptions;
using sched::ml::MultilevelOptions;
using sched::ml::MultilevelResult;

constexpr double kTol = 1e-9;

TEST(Multilevel, MatchingIsInvolutionAndRespectsSizeCap) {
  const qual::CommGraph graph = work::MakeRandomComm(80, 4, 11);
  MatchingOptions options;
  options.max_vertex_size = 1;  // nothing may merge
  const std::vector<std::size_t> capped = HeavyEdgeMatching(graph, options);
  for (std::size_t v = 0; v < capped.size(); ++v) EXPECT_EQ(capped[v], v);

  options.max_vertex_size = 2;
  const std::vector<std::size_t> match = HeavyEdgeMatching(graph, options);
  std::size_t matched = 0;
  for (std::size_t v = 0; v < match.size(); ++v) {
    EXPECT_EQ(match[match[v]], v);  // involution
    if (match[v] != v) ++matched;
  }
  EXPECT_GT(matched, 0u);  // a connected-ish graph always matches something
}

TEST(Multilevel, ContractionConservesWeightAndSize) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const qual::CommGraph graph = work::MakeRandomComm(60, 5, seed);
    MatchingOptions options;
    options.max_vertex_size = 8;
    options.rng_seed = seed;
    const Contraction level = Contract(graph, HeavyEdgeMatching(graph, options));

    EXPECT_NEAR(level.coarse.TotalEdgeWeight() + level.absorbed_weight,
                graph.TotalEdgeWeight(), kTol)
        << "seed=" << seed;
    EXPECT_EQ(level.coarse.total_vertex_size(), graph.total_vertex_size());
    EXPECT_LT(level.coarse.vertex_count(), graph.vertex_count());
    for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
      ASSERT_LT(level.coarse_of_fine[v], level.coarse.vertex_count());
    }
  }
}

TEST(Multilevel, CoarsenReachesTargetAndChainsProjections) {
  const qual::CommGraph graph = work::MakeGridComm(400);
  CoarsenOptions options;
  options.target_vertices = 50;
  options.max_vertex_size = 16;
  const std::vector<Contraction> hierarchy = Coarsen(graph, options);
  ASSERT_FALSE(hierarchy.empty());
  EXPECT_LE(hierarchy.back().coarse.vertex_count(), 2u * options.target_vertices);
  // Weight conservation composes across the whole hierarchy.
  double absorbed = 0.0;
  for (const Contraction& level : hierarchy) absorbed += level.absorbed_weight;
  EXPECT_NEAR(hierarchy.back().coarse.TotalEdgeWeight() + absorbed,
              graph.TotalEdgeWeight(), kTol);
}

TEST(Multilevel, MapIsFeasibleAndPerLevelMonotone) {
  const topo::SwitchGraph fabric = topo::MakeTorus3D(3, 3, 3, 8);
  const dist::DistanceTable table = dist::DistanceTable::BuildGraphHops(fabric);
  const qual::CommGraph processes = work::MakeGridComm(200);

  const MultilevelResult result = MapMultilevel(processes, table, 8, {});

  ASSERT_EQ(result.switch_of_process.size(), 200u);
  for (std::size_t s : result.switch_of_process) EXPECT_LT(s, fabric.switch_count());
  EXPECT_LE(result.max_load, 8u);
  ASSERT_FALSE(result.level_stats.empty());
  for (const sched::ml::LevelStats& stats : result.level_stats) {
    EXPECT_LE(stats.cost_after, stats.cost_before + kTol);
  }
  // The ledger's finest level matches the returned result.
  EXPECT_NEAR(result.level_stats.back().cost_after, result.cost, kTol);
  EXPECT_GE(result.normalized, 0.0);
}

TEST(Multilevel, DeterministicInTheSeed) {
  const topo::SwitchGraph fabric = topo::MakeFatTree(4, 16);
  const dist::DistanceTable table = dist::DistanceTable::BuildGraphHops(fabric);
  const qual::CommGraph processes = work::MakeRandomComm(300, 4, 5);

  MultilevelOptions options;
  options.rng_seed = 42;
  const MultilevelResult a = MapMultilevel(processes, table, 16, options);
  const MultilevelResult b = MapMultilevel(processes, table, 16, options);
  EXPECT_EQ(a.switch_of_process, b.switch_of_process);
  EXPECT_EQ(a.cost, b.cost);

  options.rng_seed = 43;
  const MultilevelResult c = MapMultilevel(processes, table, 16, options);
  EXPECT_LE(c.max_load, 16u);  // a different seed is still feasible
}

TEST(Multilevel, EngineRefinementImprovesOnGreedy) {
  // Small instance: the coarsest graph fits the engine, which must never
  // end above the greedy start it was given.
  const topo::SwitchGraph fabric = topo::MakeMesh2D(4, 4, 4);
  const dist::DistanceTable table = dist::DistanceTable::BuildGraphHops(fabric);
  const qual::CommGraph processes = work::MakeRingComm(64);

  const MultilevelResult result = MapMultilevel(processes, table, 4, {});
  EXPECT_GT(result.engine_seeds, 0u);
  ASSERT_FALSE(result.level_stats.empty());
  EXPECT_LE(result.level_stats.front().cost_after,
            result.level_stats.front().cost_before + kTol);
}

TEST(Multilevel, RejectsDegenerateConfigurations) {
  const dist::DistanceTable table(4, 1.0);
  const qual::CommGraph small = work::MakeRingComm(8);

  EXPECT_THROW(MapMultilevel(small, table, 0, {}), ConfigError);  // zero hosts
  EXPECT_THROW(MapMultilevel(work::MakeRingComm(100), table, 2, {}),
               ConfigError);  // 100 > 4 switches * 2 hosts
  MultilevelOptions zero_seeds;
  zero_seeds.seeds = 0;
  EXPECT_THROW(MapMultilevel(small, table, 4, zero_seeds), ConfigError);
  MultilevelOptions zero_rounds;
  zero_rounds.refine_rounds = 0;
  EXPECT_THROW(MapMultilevel(small, table, 4, zero_rounds), ConfigError);

  // A super-vertex bigger than a switch can never be placed.
  const qual::CommGraph fat =
      qual::CommGraph::FromEdges(2, {{0, 1, 1.0}}, {5, 1});
  EXPECT_THROW(MapMultilevel(fat, table, 4, {}), ConfigError);
}

TEST(Multilevel, LargeFabricScaleSmoke) {
  // 512-switch torus + 10k processes: exercises the hops distance path and
  // the engine-skipped (greedy + refinement) regime end to end.
  const topo::SwitchGraph fabric = topo::MakeTorus3D(8, 8, 8, 32);
  const dist::DistanceTable table = dist::DistanceTable::BuildGraphHops(fabric);
  const qual::CommGraph processes = work::MakeGridComm(10000);

  MultilevelOptions options;
  // The size cap floors coarsening at 10000/32 > 256 vertices, so this
  // keeps the test in the greedy + refinement regime (no engine scan).
  options.engine_max_vertices = 256;
  const MultilevelResult result = MapMultilevel(processes, table, 32, options);
  EXPECT_LE(result.max_load, 32u);
  EXPECT_GT(result.levels, 0u);
  for (const sched::ml::LevelStats& stats : result.level_stats) {
    EXPECT_LE(stats.cost_after, stats.cost_before + kTol);
  }
  // A grid mapped onto a torus must beat a random-quality placement.
  EXPECT_LT(result.normalized, 0.5);
}

}  // namespace
}  // namespace commsched
