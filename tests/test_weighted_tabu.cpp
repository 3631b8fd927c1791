#include "sched/weighted_tabu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/rng.h"
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

// Sparse weights on 8 switches, (0,1) and (2,5) only, in {4,4}: some
// random starts carry no intracluster weight, and some walks end on a best
// mapping that keeps all of it inside clusters. Every seed must finish:
// the start is repaired by co-locating the first weighted pair, and a best
// with no intercluster weight reports D_G^w and C_c^w as NaN.
TEST(WeightedTabu, SparseWeightsFinishOnEverySeed) {
  const DistanceTable t = PaperTable(8, 3);
  qual::WeightMatrix w(8, 0.0);
  w.Set(0, 1, 1.0);
  w.Set(2, 5, 1.0);
  std::size_t undefined_dg = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("rng_seed " + std::to_string(seed));
    TabuOptions options;
    options.seeds = 1;
    options.rng_seed = seed;
    SearchResult result;
    ASSERT_NO_THROW(result = WeightedTabuSearch(t, w, {4, 4}, options));
    EXPECT_TRUE(std::isfinite(result.best_fg));
    EXPECT_EQ(result.best_fg, qual::WeightedGlobalSimilarity(t, w, result.best));
    const bool split = result.best.ClusterOf(0) != result.best.ClusterOf(1) ||
                       result.best.ClusterOf(2) != result.best.ClusterOf(5);
    if (split) {
      EXPECT_TRUE(std::isfinite(result.best_dg));
      EXPECT_TRUE(std::isfinite(result.best_cc));
    } else {
      EXPECT_TRUE(std::isnan(result.best_dg));
      EXPECT_TRUE(std::isnan(result.best_cc));
      ++undefined_dg;
    }
  }
  EXPECT_GT(undefined_dg, 0u);
}

// A start without intracluster weight is repaired before the walk by one
// swap: switch 1 trades places with the lowest-numbered other member of
// switch 0's cluster. The trace's restart point is the repaired start.
TEST(WeightedTabu, WeightlessStartCoLocatesFirstWeightedPair) {
  const DistanceTable t = PaperTable(8, 3);
  qual::WeightMatrix w(8, 0.0);
  w.Set(0, 1, 1.0);
  w.Set(2, 5, 1.0);
  std::size_t weightless = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("rng_seed " + std::to_string(seed));
    Rng rng(seed);
    qual::Partition start = qual::Partition::Random({4, 4}, rng);
    if (start.ClusterOf(0) == start.ClusterOf(1) || start.ClusterOf(2) == start.ClusterOf(5)) {
      continue;
    }
    ++weightless;
    for (const std::size_t m : start.Members(start.ClusterOf(0))) {
      if (m != 0) {
        start.Swap(1, m);
        break;
      }
    }
    TabuOptions options;
    options.seeds = 1;
    options.rng_seed = seed;
    options.record_trace = true;
    const SearchResult result = WeightedTabuSearch(t, w, {4, 4}, options);
    ASSERT_FALSE(result.trace.empty());
    EXPECT_TRUE(result.trace.front().is_restart);
    EXPECT_EQ(result.trace.front().fg, qual::WeightedGlobalSimilarity(t, w, start));
  }
  EXPECT_GT(weightless, 0u);
}

// Only weights no partition of these sizes can hold inside a cluster are
// rejected up front, with a ConfigError.
TEST(WeightedTabu, WeightsNoPartitionCanHoldAreAConfigError) {
  const DistanceTable t = PaperTable(8, 3);
  const qual::WeightMatrix zero(8, 0.0);
  EXPECT_THROW((void)WeightedTabuSearch(t, zero, {4, 4}), ConfigError);
  qual::WeightMatrix w(8, 0.0);
  w.Set(3, 6, 2.0);
  EXPECT_THROW((void)WeightedTabuSearch(t, w, {1, 1, 1, 1, 1, 1, 1, 1}), ConfigError);
  EXPECT_NO_THROW((void)WeightedTabuSearch(t, w, {1, 1, 1, 1, 1, 1, 2}));
}

}  // namespace
}  // namespace commsched::sched
