#include "topology/generator.h"

#include <gtest/gtest.h>

namespace commsched::topo {
namespace {

TEST(Generator, PaperConfigurationSixteenSwitches) {
  IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 1;
  const SwitchGraph g = GenerateIrregularTopology(options);
  EXPECT_EQ(g.switch_count(), 16u);
  EXPECT_EQ(g.hosts_per_switch(), 4u);
  EXPECT_EQ(g.host_count(), 64u);
  EXPECT_TRUE(g.IsConnected());
  for (SwitchId s = 0; s < 16; ++s) {
    EXPECT_EQ(g.Degree(s), 3u) << "switch " << s;
  }
  EXPECT_EQ(g.link_count(), 16u * 3 / 2);
}

TEST(Generator, DeterministicInSeed) {
  IrregularTopologyOptions options;
  options.switch_count = 20;
  options.seed = 77;
  const SwitchGraph a = GenerateIrregularTopology(options);
  const SwitchGraph b = GenerateIrregularTopology(options);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.link(l).a, b.link(l).a);
    EXPECT_EQ(a.link(l).b, b.link(l).b);
  }
}

TEST(Generator, DifferentSeedsGiveDifferentTopologies) {
  IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = 1;
  const SwitchGraph a = GenerateIrregularTopology(options);
  options.seed = 2;
  const SwitchGraph b = GenerateIrregularTopology(options);
  bool differs = false;
  for (LinkId l = 0; l < a.link_count() && !differs; ++l) {
    differs = !(a.link(l) == b.link(l));
  }
  EXPECT_TRUE(differs);
}

// Parameterized sweep over the paper's network size range (16..24 switches).
class GeneratorSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorSizeSweep, DegreeConstraintAndConnectivityHold) {
  IrregularTopologyOptions options;
  options.switch_count = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    options.seed = seed;
    const SwitchGraph g = GenerateIrregularTopology(options);
    EXPECT_TRUE(g.IsConnected());
    std::size_t short_switches = 0;
    for (SwitchId s = 0; s < g.switch_count(); ++s) {
      EXPECT_LE(g.Degree(s), 3u);
      if (g.Degree(s) < 3) ++short_switches;
    }
    // At most one switch may be one link short (odd port pairing).
    EXPECT_LE(short_switches, (options.switch_count * 3) % 2 == 0 ? 0u : 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, GeneratorSizeSweep,
                         ::testing::Values(16, 17, 18, 19, 20, 21, 22, 23, 24));

TEST(Generator, CustomDegreeRespected) {
  IrregularTopologyOptions options;
  options.switch_count = 12;
  options.interswitch_degree = 4;
  options.seed = 5;
  const SwitchGraph g = GenerateIrregularTopology(options);
  for (SwitchId s = 0; s < 12; ++s) {
    EXPECT_EQ(g.Degree(s), 4u);
  }
}

TEST(Generator, InfeasibleParametersThrow) {
  IrregularTopologyOptions options;
  options.switch_count = 4;
  options.interswitch_degree = 4;  // degree >= switch count
  EXPECT_THROW((void)GenerateIrregularTopology(options), ConfigError);
  options.switch_count = 0;
  EXPECT_THROW((void)GenerateIrregularTopology(options), ConfigError);
  options.switch_count = 4;
  options.interswitch_degree = 0;
  EXPECT_THROW((void)GenerateIrregularTopology(options), ConfigError);
}

// Degree one connects two switches and no more: a larger request is a
// typed error, not the tree builder's contract violation.
TEST(Generator, DegreeOneConnectsOnlyTwoSwitches) {
  IrregularTopologyOptions options;
  options.switch_count = 2;
  options.interswitch_degree = 1;
  EXPECT_TRUE(GenerateIrregularTopology(options).IsConnected());
  for (const std::size_t switches : {3, 4, 16}) {
    options.switch_count = switches;
    EXPECT_THROW((void)GenerateIrregularTopology(options), ConfigError) << switches;
  }
}

TEST(Generator, SingleSwitchTrivial) {
  IrregularTopologyOptions options;
  options.switch_count = 1;
  const SwitchGraph g = GenerateIrregularTopology(options);
  EXPECT_EQ(g.switch_count(), 1u);
  EXPECT_EQ(g.link_count(), 0u);
}

TEST(Generator, RandomTreeIsSpanningTree) {
  Rng rng(41);
  const SwitchGraph g = GenerateRandomTree(10, 4, 3, rng);
  EXPECT_EQ(g.link_count(), 9u);
  EXPECT_TRUE(g.IsConnected());
  for (SwitchId s = 0; s < 10; ++s) {
    EXPECT_LE(g.Degree(s), 3u);
  }
}

TEST(Generator, RandomTreeDegreeTwoIsAPath) {
  Rng rng(43);
  const SwitchGraph g = GenerateRandomTree(8, 1, 2, rng);
  EXPECT_TRUE(g.IsConnected());
  std::size_t leaves = 0;
  for (SwitchId s = 0; s < 8; ++s) {
    EXPECT_LE(g.Degree(s), 2u);
    if (g.Degree(s) == 1) ++leaves;
  }
  EXPECT_EQ(leaves, 2u);
}

TEST(Generator, HostsPerSwitchConfigurable) {
  IrregularTopologyOptions options;
  options.switch_count = 16;
  options.hosts_per_switch = 2;
  const SwitchGraph g = GenerateIrregularTopology(options);
  EXPECT_EQ(g.host_count(), 32u);
}

}  // namespace
}  // namespace commsched::topo
