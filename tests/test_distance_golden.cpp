// Distance-table byte golden: one 64-bit FNV-1a hash of the raw value bytes
// of DistanceTable::Build per network and root policy.
//
// The corpus covers random 16-switch nets (seeds 1-4), the paper's four
// rings of six, and random 64- and 128-switch nets, each under the
// max-degree, the lowest-id and the min-eccentricity root. On the random
// nets every switch has the same degree, so the max-degree root is switch 0
// and those lines equal the lowest-id ones; the min-eccentricity root moves
// it. Every equivalent distance must keep its exact bits: a speed-only
// change to the routing walk or the resistance solve passes this file
// unchanged. Regenerate only for an intentional change of the model:
//
//   COMMSCHED_UPDATE_GOLDEN=1 ./build/tests/test_distance_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "distance/distance_table.h"
#include "routing/updown.h"
#include "topology/generator.h"
#include "topology/library.h"

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

namespace commsched::dist {
namespace {

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/distance_table.golden.txt";

std::uint64_t HashValueBytes(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double value : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    for (const unsigned char byte : bytes) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

topo::SwitchGraph Random(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  return topo::GenerateIrregularTopology(options);
}

std::string CollectCurrent() {
  const std::pair<std::string, topo::SwitchGraph> nets[] = {
      {"random16_seed1", Random(16, 1)}, {"random16_seed2", Random(16, 2)},
      {"random16_seed3", Random(16, 3)}, {"random16_seed4", Random(16, 4)},
      {"rings", topo::MakeFourRingsOfSix()}, {"random64_seed1", Random(64, 1)},
      {"random128_seed1", Random(128, 1)},
  };
  const std::pair<const char*, route::RootPolicy> policies[] = {
      {"max_degree", route::RootPolicy::kMaxDegree},
      {"lowest_id", route::RootPolicy::kLowestId},
      {"min_eccentricity", route::RootPolicy::kMinEccentricity},
  };
  std::ostringstream out;
  for (const auto& [net_name, graph] : nets) {
    for (const auto& [policy_name, policy] : policies) {
      const route::UpDownRouting routing(graph, policy);
      const DistanceTable serial = DistanceTable::Build(routing, /*parallel=*/false);
      const DistanceTable parallel = DistanceTable::Build(routing, /*parallel=*/true);
      EXPECT_EQ(parallel.values(), serial.values()) << net_name << "." << policy_name;
      char hash[32];
      std::snprintf(hash, sizeof(hash), "%016llx",
                    static_cast<unsigned long long>(HashValueBytes(serial.values())));
      out << net_name << '.' << policy_name << ' ' << serial.size() << ' ' << hash << '\n';
    }
  }
  return out.str();
}

TEST(DistanceTableGolden, ValueBytesMatchRecordedHashes) {
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
}  // namespace commsched::dist
