// Golden trace test (observability regression): TabuSearch on a fixed
// 16-switch topology with a pinned seed must emit the exact same JSONL event
// stream — schema and move sequence — as the checked-in golden file.
//
// The trace intentionally carries no timestamps, so the stream is fully
// deterministic for sequential (parallel_seeds = false) runs. Regenerate the
// golden after an intentional trace change with:
//
//   COMMSCHED_UPDATE_GOLDEN=1 ./build/tests/test_trace_golden
//
// Edited once since: the scan's order-free tie rule swapped two pairs of
// equal-F_G escape moves in seed 1 (four search.move lines, same fg), and
// the four "evals" fields count only the pairs the scan priced.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "distance/distance_table.h"
#include "jsonl_test_util.h"
#include "obs/trace.h"
#include "routing/updown.h"
#include "sched/tabu.h"
#include "topology/generator.h"

namespace commsched {
namespace {

std::string GoldenPath() {
  return std::string(COMMSCHED_TEST_DATA_DIR) + "/tabu_trace16.golden.jsonl";
}

/// Runs the pinned scenario under a scoped tracer and returns the JSONL text.
std::string CaptureTrace() {
  topo::IrregularTopologyOptions topo_options;
  topo_options.switch_count = 16;
  topo_options.seed = 1;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(topo_options);
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);

  sched::TabuOptions options;
  options.seeds = 3;
  options.rng_seed = 42;
  options.parallel_seeds = false;  // sequential => deterministic event order

  std::ostringstream out;
  obs::Tracer tracer(out);
  {
    const obs::ScopedTracer scope(tracer);
    (void)sched::TabuSearch(table, {4, 4, 4, 4}, options);
  }
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Required fields per event type; every line must carry seq + type, and the
/// identifying payload fields listed here.
void ExpectSchema(const JsonValue& fields, const std::string& line) {
  ASSERT_NE(fields.Find("seq"), nullptr) << line;
  const JsonValue* type_value = fields.Find("type");
  ASSERT_NE(type_value, nullptr) << line;
  const std::string type = type_value->AsString("type");
  ASSERT_NE(type, "") << line;
  const auto require = [&](std::initializer_list<const char*> keys) {
    for (const char* key : keys) {
      EXPECT_NE(fields.Find(key), nullptr) << "missing '" << key << "' in " << line;
    }
  };
  if (type == "search.restart") {
    require({"algo", "seed", "fg"});
  } else if (type == "search.move") {
    require({"algo", "seed", "iter", "a", "b", "fg", "escape"});
  } else if (type == "search.local_min") {
    require({"algo", "seed", "iter", "fg", "hits"});
  } else if (type == "search.seed_done") {
    require({"algo", "seed", "iters", "evals", "best_fg"});
  } else if (type == "search.done") {
    require({"algo", "best_fg", "iters"});
  } else {
    ADD_FAILURE() << "unexpected event type '" << type << "' in " << line;
  }
}

/// The comparison key: event type plus the move-identifying integer fields.
/// Floats are deliberately excluded — the move sequence is the contract, the
/// fg values are covered by EXPECT_NEAR elsewhere and by schema checks here.
std::string CanonicalKey(const JsonValue& fields) {
  std::string key = testutil::Member(fields, "type").AsString("type");
  for (const char* field : {"seed", "iter", "a", "b", "escape", "iters", "evals", "hits"}) {
    const JsonValue* value = fields.Find(field);
    if (value != nullptr) {
      key += ' ';
      key += field;
      key += '=';
      key += value->is_bool() ? (value->AsBool(field) ? "true" : "false")
                              : std::to_string(value->AsUint(field));
    }
  }
  return key;
}

TEST(TraceGolden, TabuTraceMatchesGoldenFile) {
  const std::string trace = CaptureTrace();
  const std::vector<std::string> lines = SplitLines(trace);
  ASSERT_FALSE(lines.empty());

  if (std::getenv("COMMSCHED_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << trace;
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  // Every emitted line parses and satisfies the per-type schema, with
  // sequential seq numbers.
  std::vector<std::string> actual_keys;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const JsonValue fields = ParseJson(lines[k]);
    ASSERT_TRUE(fields.is_object()) << lines[k];
    ExpectSchema(fields, lines[k]);
    EXPECT_EQ(testutil::Member(fields, "seq").AsUint("seq"), k);
    actual_keys.push_back(CanonicalKey(fields));
  }

  std::ifstream golden(GoldenPath());
  ASSERT_TRUE(golden.good()) << "missing golden file " << GoldenPath()
                             << " (regenerate with COMMSCHED_UPDATE_GOLDEN=1)";
  std::vector<std::string> golden_keys;
  std::string line;
  while (std::getline(golden, line)) {
    if (line.empty()) continue;
    const JsonValue fields = ParseJson(line);
    ASSERT_TRUE(fields.is_object()) << "golden line is not an object: " << line;
    ExpectSchema(fields, line);
    golden_keys.push_back(CanonicalKey(fields));
  }

  ASSERT_EQ(actual_keys.size(), golden_keys.size())
      << "event count changed; regenerate the golden if intentional";
  for (std::size_t k = 0; k < actual_keys.size(); ++k) {
    EXPECT_EQ(actual_keys[k], golden_keys[k]) << "at line " << k + 1;
  }
}

// Re-running the pinned scenario yields byte-identical traces — the property
// the golden file depends on.
TEST(TraceGolden, CaptureIsDeterministic) {
  EXPECT_EQ(CaptureTrace(), CaptureTrace());
}

}  // namespace
}  // namespace commsched
