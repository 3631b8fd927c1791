// Span profiling and the Chrome trace-event exporter: RAII begin/end with
// nesting depth and thread ids, a valid trace-event JSON array, and stable
// span sequences for seeded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "distance/distance_table.h"
#include "jsonl_test_util.h"
#include "obs/request.h"
#include "obs/span.h"
#include "routing/updown.h"
#include "sched/tabu.h"
#include "topology/generator.h"

namespace commsched {
namespace {

using obs::ScopedSpanCollector;
using obs::Span;
using obs::SpanCollector;
using obs::SpanRecord;

/// Parses a Chrome trace written by WriteChromeTrace: strips the array
/// brackets and trailing commas, then parses each line as one JSON object.
std::vector<JsonValue> ParseChromeTrace(const std::string& text) {
  std::vector<JsonValue> events;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line == "[" || line == "]" || line.empty()) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    JsonValue event = ParseJson(line);
    EXPECT_TRUE(event.is_object()) << line;
    if (event.is_object()) events.push_back(std::move(event));
  }
  return events;
}

TEST(SpanTest, DisabledByDefaultAndScopedInstall) {
  EXPECT_EQ(obs::ActiveSpanCollector(), nullptr);
  { const Span span("noop"); }  // no collector: must be a no-op
  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    EXPECT_EQ(obs::ActiveSpanCollector(), &collector);
    const Span span("work");
  }
  EXPECT_EQ(obs::ActiveSpanCollector(), nullptr);
  EXPECT_EQ(collector.size(), 1u);
}

TEST(SpanTest, TimerRecordsOneSampleWithoutCollector) {
  ASSERT_EQ(obs::ActiveSpanCollector(), nullptr);
  obs::Timer timer;
  { const Span span("scope", "arg", 0, &timer); }
  EXPECT_EQ(timer.count(), 1u);
}

TEST(SpanTest, TimerAndCollectorEachGetOneSample) {
  obs::Timer timer;
  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    const Span span("scope", "arg", 3, &timer);
  }
  EXPECT_EQ(timer.count(), 1u);
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.Records()[0].name, "scope");
}

TEST(SpanTest, NestedScopedCollectorsRestoreThePreviousOne) {
  SpanCollector outer;
  SpanCollector inner;
  {
    const ScopedSpanCollector outer_scope(outer);
    {
      const ScopedSpanCollector inner_scope(inner);
      EXPECT_EQ(obs::ActiveSpanCollector(), &inner);
    }
    EXPECT_EQ(obs::ActiveSpanCollector(), &outer);
  }
  EXPECT_EQ(obs::ActiveSpanCollector(), nullptr);
}

TEST(SpanTest, RecordsNestingDepthAndContainment) {
  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    const Span outer("outer", "k", 1);
    {
      const Span middle("middle");
      const Span innermost("innermost", "k", 3);
    }
  }
  const std::vector<SpanRecord> records = collector.Records();
  ASSERT_EQ(records.size(), 3u);
  const auto find = [&](const std::string& name) -> const SpanRecord& {
    const auto it = std::find_if(records.begin(), records.end(),
                                 [&](const SpanRecord& r) { return r.name == name; });
    EXPECT_NE(it, records.end()) << name;
    return *it;
  };
  const SpanRecord& outer = find("outer");
  const SpanRecord& middle = find("middle");
  const SpanRecord& innermost = find("innermost");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(middle.depth, 1u);
  EXPECT_EQ(innermost.depth, 2u);
  // All on the registering thread; children nest inside the parent interval.
  EXPECT_EQ(middle.tid, outer.tid);
  EXPECT_EQ(innermost.tid, outer.tid);
  EXPECT_LE(outer.start_us, innermost.start_us);
  EXPECT_GE(outer.start_us + outer.dur_us, innermost.start_us + innermost.dur_us);
  EXPECT_EQ(outer.arg_key, "k");
  EXPECT_EQ(outer.arg, 1u);
  EXPECT_EQ(middle.arg_key, "");
}

TEST(SpanTest, SetArgOverridesTheConstructorArgument) {
  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    Span span("iter", "iter", 7);
    span.SetArg("escape_iter", 7);
  }
  const std::vector<SpanRecord> records = collector.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].arg_key, "escape_iter");
  EXPECT_EQ(records[0].arg, 7u);
}

TEST(SpanTest, ThreadsGetDenseDistinctIds) {
  SpanCollector collector;
  constexpr std::size_t kTasks = 16;
  {
    const ScopedSpanCollector scope(collector);
    ThreadPool pool(4);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.Submit([t] { const Span span("task", "t", t); });
    }
  }
  const std::vector<SpanRecord> records = collector.Records();
  ASSERT_EQ(records.size(), kTasks);
  std::uint32_t max_tid = 0;
  for (const SpanRecord& r : records) max_tid = std::max(max_tid, r.tid);
  EXPECT_LT(max_tid, 4u);  // dense ids: at most one per pool worker
}

TEST(ChromeTraceTest, WritesValidCompleteEvents) {
  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    const Span outer("phase", "point", 2);
    const Span inner("step");
  }
  const std::string json = collector.ToChromeTraceJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after ']'
  const auto events = ParseChromeTrace(json);
  ASSERT_EQ(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_EQ(testutil::Member(event, "ph").AsString("ph"), "X");
    EXPECT_EQ(testutil::Member(event, "cat").AsString("cat"), "commsched");
    EXPECT_EQ(testutil::Member(event, "pid").AsUint("pid"), 1u);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    const JsonValue& args = testutil::Member(event, "args");
    ASSERT_TRUE(args.is_object());
    EXPECT_NE(args.Find("depth"), nullptr);
  }
  const auto phase_event =
      std::find_if(events.begin(), events.end(), [](const JsonValue& event) {
        return testutil::Member(event, "name").AsString("name") == "phase";
      });
  ASSERT_NE(phase_event, events.end());
  const JsonValue& outer_args = testutil::Member(*phase_event, "args");
  ASSERT_TRUE(outer_args.is_object());
  EXPECT_EQ(testutil::Member(outer_args, "point").AsUint("point"), 2u);
}

TEST(ChromeTraceTest, EmptyCollectorWritesAnEmptyArray) {
  SpanCollector collector;
  std::ostringstream out;
  collector.WriteChromeTrace(out);
  const auto events = ParseChromeTrace(out.str());
  EXPECT_TRUE(events.empty());
}

// A served request id is client text: a newline, a control byte or a quote
// in it must come out escaped, one event per line.
TEST(ChromeTraceTest, ControlCharactersInRequestIdStayValidJson) {
  const std::string id = "a\nb\x01\"";
  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    obs::RequestContext context(id);
    const obs::ScopedRequestContext request_scope(context);
    const Span span("served");
  }
  const std::string json = collector.ToChromeTraceJson();
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'),
            static_cast<std::ptrdiff_t>(collector.size() + 2))
      << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
  // ParseJson takes raw control bytes inside strings, hence the checks above.
  const JsonValue root = ParseJson(json);
  ASSERT_EQ(root.AsArray("trace").size(), 1u);
  const JsonValue* args = root.AsArray("trace")[0].Find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->Find("req"), nullptr);
  EXPECT_EQ(args->Find("req")->AsString("req"), id);
}

/// The span *sequence* (names + args in start order) of a seeded sequential
/// Tabu run must be identical across runs — wall-clock jitter may change
/// timestamps but never which spans open in which order.
std::vector<std::string> SeededTabuSpanSequence() {
  topo::IrregularTopologyOptions topo_options;
  topo_options.switch_count = 16;
  topo_options.seed = 1;
  const topo::SwitchGraph graph = topo::GenerateIrregularTopology(topo_options);
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  sched::TabuOptions options;
  options.seeds = 3;
  options.max_iterations_per_seed = 8;
  options.parallel_seeds = false;

  SpanCollector collector;
  {
    const ScopedSpanCollector scope(collector);
    (void)sched::TabuSearch(table, {4, 4, 4, 4}, options);
  }
  std::vector<std::string> sequence;
  for (const SpanRecord& r : collector.Records()) {
    sequence.push_back(r.name + "/" + r.arg_key + "=" + std::to_string(r.arg));
  }
  return sequence;
}

TEST(ChromeTraceTest, SeededRunProducesAStableSpanSequence) {
  std::vector<std::string> first = SeededTabuSpanSequence();
  std::vector<std::string> second = SeededTabuSpanSequence();
  ASSERT_FALSE(first.empty());
  // The run profiles each seed's set-up, walk, iterations and
  // finalisation, seed 0's set-up opening first.
  EXPECT_EQ(first[0], "tabu.seed_setup/seed=0");
  for (const char* span : {"tabu.seed/seed=0", "tabu.iter/iter=0", "tabu.finalize/seed=0",
                           "tabu.seed_setup/seed=2", "tabu.finalize/seed=2"}) {
    EXPECT_NE(std::find(first.begin(), first.end(), span), first.end()) << span;
  }
  // Identical seeded runs must produce the same spans with the same args
  // (compared as sorted multisets: sub-microsecond sibling spans may tie on
  // start time, making their relative order timing noise).
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace commsched
