// Random-topology byte golden: one 64-bit FNV-1a hash of topo::ToText per
// (switches, degree, seed) of GenerateIrregularTopology.
//
// The corpus covers n in {2, 3, 5, 6, 8, 9, 16, 17, 24, 32, 64, 128, 256} at
// every degree 2-5 below n (n = 2 at its only legal degree, 1), seeds 1-10,
// and 1024 switches at degree 3 with seeds 1-2. It holds odd n * degree
// (one switch ends a port short) and near-complete nets such as n = 6 at
// degree 4 and n = 8 at degree 5, whose pairings get stuck for some seeds
// and restart on a fresh Rng::Split stream. A net that cannot be generated
// records "error". Every link and its order must keep their exact bytes: a
// speed-only change to the generator passes this file unchanged.
// Regenerate only for an intentional change of the network model:
//
//   COMMSCHED_UPDATE_GOLDEN=1 ./build/tests/test_generator_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "topology/generator.h"
#include "topology/serialize.h"

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

namespace commsched::topo {
namespace {

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/topology_gen.golden.txt";

std::uint64_t HashText(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void AppendLine(std::ostringstream& out, std::size_t switches, std::size_t degree,
                std::uint64_t seed) {
  IrregularTopologyOptions options;
  options.switch_count = switches;
  options.interswitch_degree = degree;
  options.seed = seed;
  out << 'n' << switches << ".d" << degree << ".s" << seed << ' ';
  try {
    const SwitchGraph graph = GenerateIrregularTopology(options);
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(HashText(ToText(graph))));
    out << graph.link_count() << ' ' << hash << '\n';
  } catch (const ConfigError&) {
    out << "error\n";
  }
}

std::string CollectCurrent() {
  std::ostringstream out;
  for (const std::size_t n : {2, 3, 5, 6, 8, 9, 16, 17, 24, 32, 64, 128, 256}) {
    for (std::size_t degree = n == 2 ? 1 : 2; degree <= 5 && degree < n; ++degree) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) AppendLine(out, n, degree, seed);
    }
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) AppendLine(out, 1024, 3, seed);
  return out.str();
}

TEST(GeneratorGolden, TextHashesMatchRecordedHashes) {
  const std::string current = CollectCurrent();
  if (std::getenv("COMMSCHED_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << current;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing golden " << kGoldenPath
                  << " (generate with COMMSCHED_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(current, golden.str());
}

}  // namespace
}  // namespace commsched::topo
