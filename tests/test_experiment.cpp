// Integration test: the paper's end-to-end pipeline on a small scale.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "jsonl_test_util.h"
#include "obs/trace.h"
#include "topology/generator.h"
#include "topology/library.h"

namespace commsched::core {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions options;
  options.random_mappings = 2;
  options.sweep.points = 4;
  options.sweep.min_rate = 0.05;
  options.sweep.max_rate = 0.8;
  options.sweep.config.warmup_cycles = 1000;
  options.sweep.config.measure_cycles = 3000;
  options.tabu.seeds = 5;
  return options;
}

TEST(Experiment, CoefficientOnlyModeSkipsSimulation) {
  const topo::SwitchGraph g = topo::GenerateIrregularTopology({16, 4, 3, 1, 1000});
  ExperimentOptions options = FastOptions();
  options.run_simulation = false;
  const ExperimentResult result = RunPaperExperiment(g, options);
  ASSERT_EQ(result.mappings.size(), 3u);
  EXPECT_EQ(result.mappings[0].label, "OP");
  EXPECT_EQ(result.mappings[1].label, "R1");
  EXPECT_TRUE(result.mappings[0].sweep.points.empty());
  // OP's clustering coefficient beats every random mapping's.
  for (std::size_t k = 1; k < result.mappings.size(); ++k) {
    EXPECT_GE(result.mappings[0].cc, result.mappings[k].cc);
  }
}

TEST(Experiment, ScheduledMappingWinsOnThroughput) {
  // The paper's headline claim, miniaturized: OP throughput exceeds the
  // best random mapping's on the clustered 24-switch topology.
  const topo::SwitchGraph g = topo::MakeFourRingsOfSix();
  const ExperimentResult result = RunPaperExperiment(g, FastOptions());
  EXPECT_GT(result.Scheduled().Throughput(), 0.0);
  EXPECT_GT(result.ThroughputImprovement(), 1.0);
}

TEST(Experiment, SwitchCountMustDivide) {
  const topo::SwitchGraph g = topo::GenerateIrregularTopology({18, 4, 3, 1, 1000});
  ExperimentOptions options = FastOptions();
  options.applications = 4;  // 18 % 4 != 0
  EXPECT_THROW((void)RunPaperExperiment(g, options), commsched::ContractError);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const topo::SwitchGraph g = topo::GenerateIrregularTopology({16, 4, 3, 5, 1000});
  ExperimentOptions options = FastOptions();
  options.run_simulation = false;
  const ExperimentResult a = RunPaperExperiment(g, options);
  const ExperimentResult b = RunPaperExperiment(g, options);
  ASSERT_EQ(a.mappings.size(), b.mappings.size());
  for (std::size_t k = 0; k < a.mappings.size(); ++k) {
    EXPECT_EQ(a.mappings[k].partition, b.mappings[k].partition);
    EXPECT_DOUBLE_EQ(a.mappings[k].cc, b.mappings[k].cc);
  }
}

// All mappings' load points run as one work list, but the trace still tells
// the sweeps apart: one sweep.point per point and, in mapping order, one
// sweep.done per mapping carrying that mapping's throughput.
TEST(Experiment, TraceCarriesOneSweepPerMapping) {
  const topo::SwitchGraph g = topo::GenerateIrregularTopology({16, 4, 3, 1, 1000});
  ExperimentOptions options = FastOptions();
  options.sweep.points = 3;
  std::ostringstream out;
  obs::Tracer tracer(out);
  ExperimentResult result;
  {
    const obs::ScopedTracer scope(tracer);
    result = RunPaperExperiment(g, options);
  }
  std::size_t points = 0;
  std::vector<double> done_throughputs;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const JsonValue fields = ParseJson(line);
    ASSERT_TRUE(fields.is_object()) << line;
    const std::string type = testutil::Member(fields, "type").AsString("type");
    if (type == "sweep.point") ++points;
    if (type == "sweep.done") {
      EXPECT_EQ(testutil::Member(fields, "points").AsUint("points"), options.sweep.points)
          << line;
      done_throughputs.push_back(testutil::Member(fields, "throughput").AsDouble("throughput"));
    }
  }
  ASSERT_EQ(result.mappings.size(), 1 + options.random_mappings);
  EXPECT_EQ(points, result.mappings.size() * options.sweep.points);
  ASSERT_EQ(done_throughputs.size(), result.mappings.size());
  for (std::size_t k = 0; k < result.mappings.size(); ++k) {
    EXPECT_EQ(done_throughputs[k], result.mappings[k].Throughput()) << k;
  }
}

}  // namespace
}  // namespace commsched::core
