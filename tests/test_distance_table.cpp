#include "distance/distance_table.h"

#include <gtest/gtest.h>

#include "faults/degraded.h"
#include "linalg/resistance.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::dist {
namespace {

using route::ShortestPathRouting;
using route::UpDownRouting;

TEST(DistanceTable, PathGraphMatchesHops) {
  // On a tree every pair has exactly one path: equivalent distance == hops.
  topo::SwitchGraph path(5, 1);
  for (std::size_t i = 0; i + 1 < 5; ++i) path.AddLink(i, i + 1);
  const UpDownRouting routing(path, topo::SwitchId{0});
  const DistanceTable table = DistanceTable::Build(routing, /*parallel=*/false);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(table(i, j), std::abs(static_cast<double>(i) - static_cast<double>(j)), 1e-9);
    }
  }
}

TEST(DistanceTable, SymmetricZeroDiagonal) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 2;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  const DistanceTable table = DistanceTable::Build(routing);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(table(i, i), 0.0);
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_DOUBLE_EQ(table(i, j), table(j, i));
    }
  }
}

TEST(DistanceTable, ParallelEqualsSequential) {
  // Above route::kParallelSetupMinSwitches, so the parallel build runs its
  // columns on the pool.
  topo::IrregularTopologyOptions options;
  options.switch_count = 2 * route::kParallelSetupMinSwitches;
  options.seed = 6;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  const DistanceTable par = DistanceTable::Build(routing, true);
  const DistanceTable seq = DistanceTable::Build(routing, false);
  EXPECT_LE(par.MaxAbsDiff(seq), 1e-12);
}

// Build solves each pair on a network of only the switches its minimal-path
// links touch. That must reproduce, bit for bit, the definition's solve on a
// full-size network over every switch.
double FullSizeReference(const route::Routing& routing, topo::SwitchId i, topo::SwitchId j) {
  linalg::ResistorNetwork network(routing.graph().switch_count());
  for (topo::LinkId l : routing.LinksOnMinimalPaths(i, j)) {
    const topo::Link& link = routing.graph().link(l);
    network.Add(link.a, link.b, 1.0);
  }
  return network.EffectiveResistance(i, j);
}

void ExpectBuildEqualsFullSizeReference(const route::Routing& routing) {
  const DistanceTable serial = DistanceTable::Build(routing, /*parallel=*/false);
  const DistanceTable parallel = DistanceTable::Build(routing, /*parallel=*/true);
  EXPECT_EQ(parallel.values(), serial.values());
  const std::size_t n = routing.graph().switch_count();
  std::size_t mismatches = 0;
  for (topo::SwitchId i = 0; i < n; ++i) {
    for (topo::SwitchId j = i + 1; j < n; ++j) {
      if (serial(i, j) != FullSizeReference(routing, i, j)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

void ExpectBuildEqualsFullSizeReference(const topo::SwitchGraph& graph) {
  ExpectBuildEqualsFullSizeReference(UpDownRouting(graph));
}

TEST(DistanceTable, EqualsFullSizeReferenceOnRandomNets) {
  for (const std::size_t switches : {16, 64}) {
    for (const std::uint64_t seed : {1, 2}) {
      SCOPED_TRACE("random " + std::to_string(switches) + " seed " + std::to_string(seed));
      topo::IrregularTopologyOptions options;
      options.switch_count = switches;
      options.seed = seed;
      ExpectBuildEqualsFullSizeReference(topo::GenerateIrregularTopology(options));
    }
  }
}

TEST(DistanceTable, EqualsFullSizeReferenceOnRegularNets) {
  ExpectBuildEqualsFullSizeReference(topo::MakeRing(12));
  ExpectBuildEqualsFullSizeReference(topo::MakeMesh2D(4, 5));
  ExpectBuildEqualsFullSizeReference(topo::MakeTorus2D(4, 4));
}

TEST(DistanceTable, EqualsFullSizeReferenceOnShortestPathRouting) {
  for (const std::size_t switches : {16, 64}) {
    SCOPED_TRACE("random " + std::to_string(switches));
    topo::IrregularTopologyOptions options;
    options.switch_count = switches;
    options.seed = 3;
    const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
    ExpectBuildEqualsFullSizeReference(ShortestPathRouting(g));
  }
  const topo::SwitchGraph torus = topo::MakeTorus2D(4, 4);
  ExpectBuildEqualsFullSizeReference(ShortestPathRouting(torus));
}

TEST(DistanceTable, EqualsFullSizeReferenceOnDegradedRouting) {
  // One failed link that leaves the net connected: the degraded routing
  // covers every switch and answers in base ids, with a link id gap.
  topo::IrregularTopologyOptions options;
  options.switch_count = 64;
  options.seed = 4;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  faults::DegradedView view(g);
  view.FailLink(g.link(5).a, g.link(5).b);
  const faults::DegradedRouting routing(g, view.Reconfigure(/*allow_partition=*/false));
  ASSERT_EQ(routing.reconfig().graph.link_count() + 1, g.link_count());
  ExpectBuildEqualsFullSizeReference(routing);
}

// Property sweep: the equivalent distance never exceeds the legal hop count
// (parallel resistors only shrink), and is at least 1 for distinct switches
// reached over >= 1 link... (actually >= the parallel combination, so > 0).
class DistanceBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceBounds, EquivalentDistanceBoundedByLegalHops) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 14;
  options.seed = GetParam();
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  const DistanceTable eq = DistanceTable::Build(routing);
  const DistanceTable hops = DistanceTable::BuildHopCount(routing);
  for (std::size_t i = 0; i < g.switch_count(); ++i) {
    for (std::size_t j = 0; j < g.switch_count(); ++j) {
      EXPECT_LE(eq(i, j), hops(i, j) + 1e-9);
      if (i != j) {
        EXPECT_GT(eq(i, j), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceBounds, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DistanceTable, AdjacentSwitchesWithSingleLinkAtDistanceOne) {
  // The one-link path between adjacent switches is always the unique
  // minimal legal path, so T = 1 exactly.
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 10;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  const DistanceTable table = DistanceTable::Build(routing);
  for (const topo::Link& link : g.links()) {
    EXPECT_NEAR(table(link.a, link.b), 1.0, 1e-9);
  }
}

TEST(DistanceTable, CompleteGraphAllOnes) {
  const topo::SwitchGraph g = topo::MakeComplete(5);
  const ShortestPathRouting routing(g);
  const DistanceTable table = DistanceTable::Build(routing);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_NEAR(table(i, j), 1.0, 1e-9);
      }
    }
  }
}

TEST(DistanceTable, MeshParallelPathsShrinkDistance) {
  // Corner-to-corner on a 2x2 mesh (4-cycle): two 2-hop paths in parallel
  // give equivalent distance 1 < 2 hops.
  const topo::SwitchGraph mesh = topo::MakeMesh2D(2, 2);
  const ShortestPathRouting routing(mesh);
  const DistanceTable table = DistanceTable::Build(routing);
  EXPECT_NEAR(table(0, 3), 1.0, 1e-9);
  EXPECT_NEAR(table(1, 2), 1.0, 1e-9);
}

TEST(DistanceTable, TriangleInequalityGenerallyViolated) {
  // The paper stresses the table does not define a metric space. Build the
  // classic witness: adjacent pair at distance 1 whose two-step detour is
  // shorter through parallel-path shrinkage. A 16-switch irregular network
  // almost always violates the inequality somewhere.
  std::size_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    topo::IrregularTopologyOptions options;
    options.switch_count = 16;
    options.seed = seed;
    const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
    const UpDownRouting routing(g);
    const DistanceTable table = DistanceTable::Build(routing);
    if (!table.SatisfiesTriangleInequality()) ++violations;
  }
  EXPECT_GT(violations, 0u);
}

TEST(DistanceTable, MeanSquaredDistanceMatchesDefinition) {
  DistanceTable table(3, 0.0);
  table.Set(0, 1, 1.0);
  table.Set(0, 2, 2.0);
  table.Set(1, 2, 3.0);
  EXPECT_NEAR(table.SumSquaredAllPairs(), 1.0 + 4.0 + 9.0, 1e-12);
  EXPECT_NEAR(table.MeanSquaredDistance(), 14.0 / 3.0, 1e-12);
}

TEST(DistanceTable, SetValidation) {
  DistanceTable table(3, 0.0);
  EXPECT_THROW(table.Set(0, 0, 1.0), commsched::ContractError);
  EXPECT_THROW(table.Set(0, 1, -1.0), commsched::ContractError);
  EXPECT_THROW(table.Set(0, 3, 1.0), commsched::ContractError);
  table.Set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(table(2, 1), 5.0);
}

TEST(DistanceTable, HopCountTableMatchesRouting) {
  const topo::SwitchGraph ring = topo::MakeRing(6);
  const UpDownRouting routing(ring, topo::SwitchId{0});
  const DistanceTable hops = DistanceTable::BuildHopCount(routing);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(hops(i, j), static_cast<double>(routing.MinimalDistance(i, j)));
    }
  }
}

TEST(DistanceTable, CorrelationWithHopsIsStrong) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 9;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const UpDownRouting routing(g);
  const DistanceTable eq = DistanceTable::Build(routing);
  const DistanceTable hops = DistanceTable::BuildHopCount(routing);
  EXPECT_GT(CorrelateTables(eq, hops), 0.8);
}

TEST(DistanceTable, CsvHasHeaderAndRows) {
  DistanceTable table(2, 1.0);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("switch,0,1"), std::string::npos);
  EXPECT_NE(csv.find("0,0,1"), std::string::npos);
}

}  // namespace
}  // namespace commsched::dist
