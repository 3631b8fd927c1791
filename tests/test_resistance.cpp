#include "linalg/resistance.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace commsched::linalg {
namespace {

TEST(Resistance, SingleResistor) {
  ResistorNetwork net(2);
  net.Add(0, 1, 5.0);
  EXPECT_NEAR(net.EffectiveResistance(0, 1), 5.0, 1e-12);
}

TEST(Resistance, SeriesAdds) {
  ResistorNetwork net(3);
  net.Add(0, 1, 2.0);
  net.Add(1, 2, 3.0);
  EXPECT_NEAR(net.EffectiveResistance(0, 2), 5.0, 1e-12);
}

TEST(Resistance, ParallelCombines) {
  ResistorNetwork net(2);
  net.Add(0, 1, 2.0);
  net.Add(0, 1, 2.0);
  EXPECT_NEAR(net.EffectiveResistance(0, 1), 1.0, 1e-12);
}

TEST(Resistance, WheatstoneBridgeBalanced) {
  // Balanced bridge: the middle resistor carries no current, R = 1.
  ResistorNetwork net(4);
  net.Add(0, 1, 1.0);
  net.Add(1, 3, 1.0);
  net.Add(0, 2, 1.0);
  net.Add(2, 3, 1.0);
  net.Add(1, 2, 7.0);  // arbitrary bridge resistor
  EXPECT_NEAR(net.EffectiveResistance(0, 3), 1.0, 1e-12);
}

TEST(Resistance, UnitSquareCycle) {
  // A 4-cycle of unit resistors: opposite corners see 1Ω (2 || 2);
  // adjacent corners see 3/4 (1 || 3).
  ResistorNetwork net(4);
  net.Add(0, 1);
  net.Add(1, 2);
  net.Add(2, 3);
  net.Add(3, 0);
  EXPECT_NEAR(net.EffectiveResistance(0, 2), 1.0, 1e-12);
  EXPECT_NEAR(net.EffectiveResistance(0, 1), 0.75, 1e-12);
}

TEST(Resistance, SameTerminalIsZero) {
  ResistorNetwork net(3);
  net.Add(0, 1);
  net.Add(1, 2);
  EXPECT_DOUBLE_EQ(net.EffectiveResistance(1, 1), 0.0);
}

TEST(Resistance, DisconnectedThrows) {
  ResistorNetwork net(4);
  net.Add(0, 1);
  net.Add(2, 3);
  EXPECT_THROW((void)net.EffectiveResistance(0, 3), commsched::ContractError);
  EXPECT_FALSE(net.Connected(0, 2));
  EXPECT_TRUE(net.Connected(0, 1));
}

TEST(Resistance, InvalidResistorsRejected) {
  ResistorNetwork net(3);
  EXPECT_THROW(net.Add(0, 0), commsched::ContractError);
  EXPECT_THROW(net.Add(0, 1, 0.0), commsched::ContractError);
  EXPECT_THROW(net.Add(0, 1, -1.0), commsched::ContractError);
  EXPECT_THROW(net.Add(0, 3), commsched::ContractError);
}

TEST(Resistance, SymmetricInTerminals) {
  ResistorNetwork net(5);
  net.Add(0, 1);
  net.Add(1, 2);
  net.Add(2, 3);
  net.Add(3, 4);
  net.Add(4, 0);
  net.Add(1, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_NEAR(net.EffectiveResistance(i, j), net.EffectiveResistance(j, i), 1e-12);
    }
  }
}

// Property: Rayleigh monotonicity — adding a resistor can only lower (or
// keep) every effective resistance.
TEST(Resistance, RayleighMonotonicity) {
  commsched::Rng rng(17);
  ResistorNetwork net(6);
  // ring skeleton keeps it connected
  for (std::size_t i = 0; i < 6; ++i) net.Add(i, (i + 1) % 6);
  auto all_pairs = [](const ResistorNetwork& n) {
    std::vector<double> r;
    for (std::size_t i = 0; i < n.node_count(); ++i)
      for (std::size_t j = i + 1; j < n.node_count(); ++j)
        r.push_back(n.EffectiveResistance(i, j));
    return r;
  };
  auto before = all_pairs(net);
  net.Add(0, 3);  // chord
  auto after = all_pairs(net);
  for (std::size_t k = 0; k < before.size(); ++k) {
    EXPECT_LE(after[k], before[k] + 1e-12);
  }
  EXPECT_LT(after[2], before[2]);  // the (0,3) pair strictly improves
}

// Property: effective resistance is bounded by the shortest path length in
// unit-resistor networks.
TEST(Resistance, BoundedByShortestPath) {
  ResistorNetwork net(6);
  for (std::size_t i = 0; i + 1 < 6; ++i) net.Add(i, i + 1);
  net.Add(0, 5);
  // path 0..5 length 5 in series with direct link 1 => R(0,5) = 5*1/(5+1)
  EXPECT_NEAR(net.EffectiveResistance(0, 5), 5.0 / 6.0, 1e-12);
  EXPECT_LE(net.EffectiveResistance(0, 5), 1.0);
}

TEST(Resistance, IgnoresIrrelevantDisconnectedComponent) {
  // Nodes 3,4 are a separate component; R(0,2) must still work.
  ResistorNetwork net(5);
  net.Add(0, 1);
  net.Add(1, 2);
  net.Add(3, 4);
  EXPECT_NEAR(net.EffectiveResistance(0, 2), 2.0, 1e-12);
}

}  // namespace
}  // namespace commsched::linalg
