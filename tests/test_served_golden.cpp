// Byte golden of served schedule replies.
//
// One fresh SchedulingService answers, in order: a standalone schedule
// (model and result cache miss) and its repeat under an id that needs
// escaping (hit/hit); a MixedBatch(64)-shaped frame, as served cold and
// then warm (the served_hot steady state); a small frame with a malformed
// entry; and a schedule on an inline "text" topology, whose request and
// reply texts carry escaped newlines. Every reply is one line of the golden
// file. A speed-only change to the parser or the reply rendering passes it
// unchanged. Regenerate only for an intended change of the protocol:
//
//   COMMSCHED_UPDATE_GOLDEN=1 ./build/tests/test_served_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "topology/library.h"
#include "topology/serialize.h"

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

namespace commsched::svc {
namespace {

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/served_replies.golden.jsonl";

std::string Schedule(const std::string& id, std::uint64_t topo_seed, const std::string& algo) {
  return R"({"id":")" + JsonEscape(id) +
         R"(","op":"schedule","topology":{"kind":"random","switches":12,"seed":)" +
         std::to_string(topo_seed) + R"(},"apps":4,"algo":")" + algo + "\"}";
}

/// bench/service_load.cpp's MixedBatch(64) as one frame: entry i is a tabu,
/// sd or random schedule on topology 1 + i % 3, or (every fourth) a ping.
std::string MixedFrame(const std::string& id) {
  const char* const algos[] = {"tabu", "sd", "random"};
  std::string frame = R"({"id":")" + id + R"(","op":"batch","requests":[)";
  for (std::size_t i = 0; i < 64; ++i) {
    if (i > 0) frame += ",";
    frame += i % 4 == 3 ? R"({"id":"p)" + std::to_string(i) + R"(","op":"ping"})"
                        : Schedule("s" + std::to_string(i), 1 + i % 3, algos[i % 4]);
  }
  return frame + "]}";
}

std::string CollectCurrent() {
  const std::string text_topology = JsonEscape(topo::ToText(topo::MakeMixedDensity16()));
  const std::vector<std::string> lines = {
      Schedule("g1", 5, "tabu"),
      Schedule("g\"2\t", 5, "tabu"),
      MixedFrame("cold"),
      MixedFrame("warm"),
      R"({"id":"f3","op":"batch","requests":[)" + Schedule("a", 1, "sd") +
          R"(,{"id":"b","op":"ping","bogus":1},{"id":"c","op":"ping"},)" + Schedule("", 1, "sd") +
          "]}",
      R"({"id":"t1","op":"schedule","topology":{"kind":"text","text":")" + text_topology +
          R"("},"apps":4})",
  };
  SchedulingService service;
  std::string out;
  for (const std::string& line : lines) out += service.Execute(ParseRequest(line)) + "\n";
  return out;
}

TEST(ServedGolden, ScheduleRepliesMatchRecordedBytes) {
  const std::string current = CollectCurrent();
  if (std::getenv("COMMSCHED_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << current;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << kGoldenPath
                  << " (generate with COMMSCHED_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(current, golden.str());
}

}  // namespace
}  // namespace commsched::svc
