#include "sched/weighted_tabu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "routing/updown.h"
#include "sched/engine.h"
#include "sched/tabu.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::sched {
namespace {

DistanceTable PaperTable(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return DistanceTable::Build(routing);
}

TEST(WeightedTabu, UniformWeightsMatchUnweightedTabu) {
  const DistanceTable t = PaperTable(16, 1);
  const qual::WeightMatrix uniform(16, 1.0);
  TabuOptions options;
  options.rng_seed = 4;
  const SearchResult weighted = WeightedTabuSearch(t, uniform, {4, 4, 4, 4}, options);
  const SearchResult plain = TabuSearch(t, {4, 4, 4, 4}, options);
  // Identical walk (same starts, same objective values) -> identical optimum.
  EXPECT_NEAR(weighted.best_fg, plain.best_fg, 1e-9);
}

TEST(WeightedTabu, Deterministic) {
  const DistanceTable t = PaperTable(12, 5);
  qual::WeightMatrix w(12, 1.0);
  w.Set(0, 1, 20.0);
  TabuOptions options;
  options.rng_seed = 11;
  const SearchResult a = WeightedTabuSearch(t, w, {3, 3, 3, 3}, options);
  const SearchResult b = WeightedTabuSearch(t, w, {3, 3, 3, 3}, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_fg, b.best_fg);
}

TEST(WeightedTabu, HotApplicationGetsTheTightRegion) {
  // The designed 24-switch network has four identical rings; give one
  // "application pair structure" huge weight between two specific switch
  // groups... simplest expressive test: weights model one hot application
  // (cluster 0's future switches talk 10x more). The weighted mapping's
  // weighted F_G must beat the unweighted mapping's weighted F_G.
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const route::UpDownRouting routing(g);
  const DistanceTable t = DistanceTable::Build(routing);

  // Build weights from a reference placement: hot app on ring 0 with
  // intensity 10, others 1. (What a traffic monitor would report.)
  qual::WeightMatrix w(24, 0.0);
  auto ring = [](std::size_t s) { return s / 6; };
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = i + 1; j < 24; ++j) {
      if (ring(i) == ring(j)) {
        w.Set(i, j, ring(i) == 0 ? 10.0 : 1.0);
      } else {
        w.Set(i, j, 0.01);  // background noise
      }
    }
  }
  TabuOptions options;
  options.max_iterations_per_seed = 60;
  const SearchResult weighted = WeightedTabuSearch(t, w, {6, 6, 6, 6}, options);
  const SearchResult plain = TabuSearch(t, {6, 6, 6, 6}, options);
  EXPECT_LE(weighted.best_fg,
            qual::WeightedGlobalSimilarity(t, w, plain.best) + 1e-9);
}

TEST(WeightedTabu, TraceAndBudgetRespected) {
  const DistanceTable t = PaperTable(12, 8);
  const qual::WeightMatrix w(12, 1.0);
  TabuOptions options;
  options.seeds = 2;
  options.max_iterations_per_seed = 5;
  options.record_trace = true;
  const SearchResult result = WeightedTabuSearch(t, w, {3, 3, 3, 3}, options);
  EXPECT_LE(result.iterations, 10u);
  std::size_t restarts = 0;
  for (const TracePoint& p : result.trace) {
    if (p.is_restart) ++restarts;
  }
  EXPECT_EQ(restarts, 2u);
}

// Swapping 1 and 4 out of {0,1,2,3 | 4,5,6,7} moves the only intracluster
// weight, (0,1), across clusters: F_G^w of the result is undefined, so the
// swap is inadmissible rather than an error.
TEST(WeightedTabu, SwapLeavingNoIntraWeightIsInadmissible) {
  const DistanceTable t = PaperTable(8, 1);
  qual::WeightMatrix w(8, 0.0);
  w.Set(0, 1, 1.0);
  w.Set(0, 5, 1.0);
  WeightedFgObjective objective(t, w, qual::Partition::Blocked({4, 4}));
  EXPECT_EQ(objective.SwapCost(1, 4), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isfinite(objective.SwapCost(2, 4)));
}

// The start, (0,1,4,7) (2,3,5,6), carries intracluster weight 2, but some of
// its candidate swaps leave none; the scan must skip them instead of
// throwing.
TEST(WeightedTabu, SearchSkipsSwapsLeavingNoIntraWeight) {
  const DistanceTable t = PaperTable(8, 1);
  qual::WeightMatrix w(8, 0.0);
  w.Set(0, 1, 1.0);
  w.Set(2, 5, 1.0);
  TabuOptions options;
  options.seeds = 1;
  SearchResult result;
  ASSERT_NO_THROW(result = WeightedTabuSearch(t, w, {4, 4}, options));
  EXPECT_TRUE(std::isfinite(result.best_fg));
  EXPECT_NEAR(result.best_fg, qual::WeightedGlobalSimilarity(t, w, result.best), 1e-12);
}

}  // namespace
}  // namespace commsched::sched
