// End-to-end observability acceptance test: drives the installed
// commsched_cli binary (path injected by CMake as COMMSCHED_CLI_PATH) and
// validates that --trace produces parseable JSONL and --metrics dumps the
// registry with the swap-evaluation and tabu-hit counters populated.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "jsonl_test_util.h"

namespace commsched {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> NonEmptyLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Runs the CLI with `args`, stdout redirected to `stdout_path`.
int RunCli(const std::string& args, const std::string& stdout_path) {
  const std::string command =
      std::string(COMMSCHED_CLI_PATH) + " " + args + " > " + stdout_path;
  return std::system(command.c_str());
}

/// Every line of a trace file must parse as a JSON object with seq + type;
/// returns the set of event types seen.
std::set<std::string> ValidateTrace(const std::string& trace_path) {
  const std::vector<std::string> lines = NonEmptyLines(ReadFile(trace_path));
  EXPECT_FALSE(lines.empty()) << "empty trace " << trace_path;
  std::set<std::string> types;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const JsonValue fields = ParseJson(lines[k]);
    if (!fields.is_object()) {
      ADD_FAILURE() << "trace line is not an object: " << lines[k];
      continue;
    }
    EXPECT_EQ(testutil::Member(fields, "seq").AsUint("seq"), k) << lines[k];
    const std::string type = testutil::Member(fields, "type").AsString("type");
    EXPECT_NE(type, "") << lines[k];
    types.insert(type);
  }
  return types;
}

/// The --metrics dump is the last stdout line; parse its counters object.
JsonValue MetricsCounters(const std::string& stdout_path) {
  const std::vector<std::string> lines = NonEmptyLines(ReadFile(stdout_path));
  if (lines.empty() || lines.back().front() != '{') {
    ADD_FAILURE() << "no metrics line in " << stdout_path;
    return {};
  }
  const JsonValue fields = ParseJson(lines.back());
  const JsonValue* counters = fields.is_object() ? fields.Find("counters") : nullptr;
  if (counters == nullptr || !counters->is_object()) {
    ADD_FAILURE() << "metrics line has no counters object: " << lines.back();
    return {};
  }
  return *counters;
}

/// A counter of a MetricsCounters object (0 when absent).
std::uint64_t CounterValue(const JsonValue& counters, const std::string& name) {
  const JsonValue* value = counters.is_object() ? counters.Find(name) : nullptr;
  return value == nullptr ? 0 : value->AsUint(name);
}

// The ISSUE acceptance scenario: schedule on a 16-switch random topology
// with --trace and --metrics; the trace parses line-by-line and the metrics
// dump carries swap-evaluation and tabu-hit counters.
TEST(CliTrace, ScheduleEmitsTraceAndMetrics) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "cli_sched_trace.jsonl";
  const std::string stdout_path = dir + "cli_sched_stdout.txt";
  ASSERT_EQ(RunCli("schedule --kind random --switches 16 --apps 4 --seeds 3 --trace " +
                       trace_path + " --metrics",
                   stdout_path),
            0);

  const std::set<std::string> types = ValidateTrace(trace_path);
  EXPECT_TRUE(types.count("search.restart")) << "no restart events";
  EXPECT_TRUE(types.count("search.move")) << "no move events";
  EXPECT_TRUE(types.count("search.done")) << "no done event";

  const auto counters = MetricsCounters(stdout_path);
  EXPECT_GT(CounterValue(counters, "search.tabu.evaluations"), 0u);
  EXPECT_NE(counters.Find("search.tabu.tabu_hits"), nullptr) << "tabu-hit counter missing";
  EXPECT_EQ(CounterValue(counters, "search.tabu.seeds"), 3u);
}

// A short simulate run: the trace carries simulator and sweep lifecycle
// events and the metrics dump has flit/cycle counters.
TEST(CliTrace, SimulateEmitsSimAndSweepEvents) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "cli_sim_trace.jsonl";
  const std::string stdout_path = dir + "cli_sim_stdout.txt";
  ASSERT_EQ(RunCli("simulate --kind random --switches 8 --apps 2 --mapping blocked "
                   "--points 2 --min-rate 0.1 --max-rate 0.2 --warmup 200 --measure 400 "
                   "--trace " +
                       trace_path + " --metrics",
                   stdout_path),
            0);

  const std::set<std::string> types = ValidateTrace(trace_path);
  EXPECT_TRUE(types.count("sim.start"));
  EXPECT_TRUE(types.count("sim.done"));
  EXPECT_TRUE(types.count("sweep.point"));
  EXPECT_TRUE(types.count("sweep.done"));

  const auto counters = MetricsCounters(stdout_path);
  EXPECT_EQ(CounterValue(counters, "sim.runs"), 2u);
  EXPECT_GT(CounterValue(counters, "sim.flits_delivered"), 0u);
  EXPECT_GT(CounterValue(counters, "sim.cycles"), 0u);
}

// The full observability round-trip on the ISSUE acceptance scenario: a
// seeded 16-switch simulate run producing a JSONL trace + metrics dump +
// Chrome trace, then `report` consuming the first two. The report must show
// packet-latency percentiles, the hottest-links table and per-seed F_G/C_c;
// the Chrome trace must be a valid array of complete events.
TEST(CliTrace, ReportRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "cli_report_trace.jsonl";
  const std::string metrics_path = dir + "cli_report_metrics.json";
  const std::string chrome_path = dir + "cli_report_chrome.json";
  const std::string csv_path = dir + "cli_report_sweep.csv";
  const std::string stdout_path = dir + "cli_report_stdout.txt";
  ASSERT_EQ(RunCli("simulate --kind random --switches 16 --apps 4 --mapping op "
                   "--points 3 --min-rate 0.1 --max-rate 0.6 --warmup 500 --measure 2000 "
                   "--telemetry 500 --trace " +
                       trace_path + " --metrics-out " + metrics_path + " --chrome-trace " +
                       chrome_path,
                   stdout_path),
            0);

  // The trace carries the deep-telemetry samples; the metrics dump exists.
  const std::set<std::string> types = ValidateTrace(trace_path);
  EXPECT_TRUE(types.count("net.sample")) << "no telemetry samples";
  EXPECT_TRUE(types.count("search.seed_done"));
  ASSERT_FALSE(ReadFile(metrics_path).empty());

  // The Chrome trace is a JSON array of complete ("ph":"X") events covering
  // the search seeds and the simulator phases.
  const std::vector<std::string> chrome_lines = NonEmptyLines(ReadFile(chrome_path));
  ASSERT_GE(chrome_lines.size(), 3u);
  EXPECT_EQ(chrome_lines.front(), "[");
  EXPECT_EQ(chrome_lines.back(), "]");
  std::set<std::string> span_names;
  for (std::size_t k = 1; k + 1 < chrome_lines.size(); ++k) {
    std::string line = chrome_lines[k];
    if (line.back() == ',') line.pop_back();
    const JsonValue event = ParseJson(line);
    ASSERT_TRUE(event.is_object()) << line;
    EXPECT_EQ(testutil::Member(event, "ph").AsString("ph"), "X") << line;
    span_names.insert(testutil::Member(event, "name").AsString("name"));
  }
  EXPECT_TRUE(span_names.count("tabu.seed"));
  EXPECT_TRUE(span_names.count("sim.warmup"));
  EXPECT_TRUE(span_names.count("sim.measure"));
  EXPECT_TRUE(span_names.count("sweep.point"));

  // `report` renders the percentiles, the link table, per-seed C_c and the
  // sweep CSV.
  const std::string report_stdout = dir + "cli_report_report.txt";
  ASSERT_EQ(RunCli("report --trace " + trace_path + " --metrics-file " + metrics_path +
                       " --csv " + csv_path + " --top 5",
                   report_stdout),
            0);
  const std::string text = ReadFile(report_stdout);
  EXPECT_NE(text.find("Packet latency"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p90="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  EXPECT_NE(text.find("hottest links"), std::string::npos);
  EXPECT_NE(text.find("Search convergence"), std::string::npos);
  EXPECT_NE(text.find("C_c"), std::string::npos);
  EXPECT_NE(text.find("net.sample telemetry events:"), std::string::npos);

  const std::vector<std::string> csv_lines = NonEmptyLines(ReadFile(csv_path));
  ASSERT_EQ(csv_lines.size(), 4u);  // header + 3 sweep points
  EXPECT_EQ(csv_lines[0], "offered,accepted,avg_latency,saturated");
}

// --metrics without --trace still works (counters only, no tracer).
TEST(CliTrace, MetricsWithoutTrace) {
  const std::string dir = ::testing::TempDir();
  const std::string stdout_path = dir + "cli_metrics_stdout.txt";
  ASSERT_EQ(RunCli("schedule --kind random --switches 8 --apps 2 --seeds 2 --metrics",
                   stdout_path),
            0);
  const auto counters = MetricsCounters(stdout_path);
  EXPECT_GT(CounterValue(counters, "search.tabu.evaluations"), 0u);
}

// Degenerate topology dimensions are clean `error:` exits naming the field
// as the protocol spells it, never a leaked contract violation from the
// topology library.
TEST(CliTopology, DegenerateDimensionsAreConfigErrors) {
  const std::string out_path = ::testing::TempDir() + "cli_topo_error.txt";
  const auto run = [&out_path](const std::string& args) {
    const std::string command =
        std::string(COMMSCHED_CLI_PATH) + " topo " + args + " > " + out_path + " 2>&1";
    const int rc = std::system(command.c_str());
    return std::make_pair(rc, ReadFile(out_path));
  };
  const std::pair<std::string, std::string> cases[] = {
      {"--kind mesh --rows 0 --cols 0", "error: mesh rows must be >= 1, got 0"},
      {"--kind mesh --rows 2 --cols 0", "error: mesh cols must be >= 1, got 0"},
      {"--kind torus --rows 2 --cols 4", "error: torus rows must be >= 3, got 2"},
      {"--kind torus3d --x 3 --y 3 --z 2", "error: torus3d z must be >= 3, got 2"},
      {"--kind fattree --k 3", "error: fattree k must be even and >= 2, got 3"},
      {"--kind hypercube --dim 0", "error: hypercube dim must be in [1, 20], got 0"},
      {"--kind hypercube --dim 21", "error: hypercube dim must be in [1, 20], got 21"},
  };
  for (const auto& [args, message] : cases) {
    const auto [rc, output] = run(args);
    EXPECT_NE(rc, 0) << args;
    EXPECT_NE(output.find(message), std::string::npos) << args << ": " << output;
    EXPECT_EQ(output.find("contract violation"), std::string::npos) << args << ": " << output;
  }
  EXPECT_EQ(run("--kind mesh --rows 1 --cols 1").first, 0);
}

// Degenerate application counts exit 1 with a typed `error:` line: no
// signal (the old `--apps 0` divided by zero) and no leaked contract
// violation from the quality functions (one-switch clusters).
TEST(CliSchedule, DegenerateApplicationCountsAreConfigErrors) {
  const std::string out_path = ::testing::TempDir() + "cli_apps_error.txt";
  const std::pair<std::string, std::string> cases[] = {
      {"schedule --kind random --switches 12 --apps 0", "error: application count must be positive"},
      {"schedule --kind random --switches 12 --apps 12",
       "error: each application needs at least two switches"},
      {"schedule --kind random --switches 12 --apps 1",
       "error: a mapping search needs at least two applications"},
      {"simulate --kind random --switches 12 --apps 0", "error: application count must be positive"},
      {"experiment --kind random --switches 12 --apps 0",
       "error: experiment needs at least two applications"},
  };
  for (const auto& [args, message] : cases) {
    // exec: the shell's status is then the CLI's own (a signal stays visible).
    const std::string command =
        "exec " + std::string(COMMSCHED_CLI_PATH) + " " + args + " > " + out_path + " 2>&1";
    const int status = std::system(command.c_str());
    const std::string output = ReadFile(out_path);
    ASSERT_TRUE(WIFEXITED(status)) << args << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << args << ": " << output;
    EXPECT_NE(output.find(message), std::string::npos) << args << ": " << output;
    EXPECT_EQ(output.find("contract violation"), std::string::npos) << args << ": " << output;
  }
}

TEST(CliSimulate, BadSweepKnobsAreConfigErrors) {
  const std::string out_path = ::testing::TempDir() + "cli_sweep_error.txt";
  const std::string simulate = "simulate --kind rings --apps 4 --warmup 100 ";
  const std::pair<std::string, std::string> cases[] = {
      {"--points 1", "error: sweep points must be >= 2 (got 1)"},
      {"--max-rate -1", "error: sweep rates need 0 < min_rate < max_rate"},
      {"--min-rate 0.5 --max-rate 0.1", "error: sweep rates need 0 < min_rate < max_rate"},
      {"--vcs 0", "error: sweep vcs must be >= 1 (got 0)"},
      {"--points 2 --measure 0", "error: sweep measure cycles must be >= 1 (got 0)"},
      {"--max-rate 100", "error: sweep rate 75.02 exceeds host injection bandwidth"},
  };
  for (const auto& [knobs, message] : cases) {
    const std::string command = "exec " + std::string(COMMSCHED_CLI_PATH) + " " + simulate +
                                knobs + " > " + out_path + " 2>&1";
    const int status = std::system(command.c_str());
    const std::string output = ReadFile(out_path);
    ASSERT_TRUE(WIFEXITED(status)) << knobs << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << knobs << ": " << output;
    EXPECT_NE(output.find(message), std::string::npos) << knobs << ": " << output;
    EXPECT_EQ(output.find("contract violation"), std::string::npos) << knobs << ": " << output;
  }
}

// Knobs the experiment cannot run with exit 1 with a typed `error:` line
// before any simulation: no partial table and no leaked contract violation.
TEST(CliExperiment, DegenerateKnobsAreConfigErrors) {
  const std::string out_path = ::testing::TempDir() + "cli_experiment_error.txt";
  const std::pair<std::string, std::string> cases[] = {
      {"experiment --kind random --switches 16 --randoms 0",
       "error: experiment needs at least one random mapping, got 0"},
      {"experiment --kind random --switches 16 --max-rate 100 --warmup 100 --measure 200",
       "error: sweep rate 75.02 exceeds host injection bandwidth"},
  };
  for (const auto& [args, message] : cases) {
    const std::string command =
        "exec " + std::string(COMMSCHED_CLI_PATH) + " " + args + " > " + out_path + " 2>&1";
    const int status = std::system(command.c_str());
    const std::string output = ReadFile(out_path);
    ASSERT_TRUE(WIFEXITED(status)) << args << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 1) << args << ": " << output;
    EXPECT_NE(output.find(message), std::string::npos) << args << ": " << output;
    EXPECT_EQ(output.find("contract violation"), std::string::npos) << args << ": " << output;
    EXPECT_EQ(output.find("| mapping"), std::string::npos) << args << ": " << output;
  }
}

}  // namespace
}  // namespace commsched
