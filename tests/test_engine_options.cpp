// Degenerate-knob rejection (the formerly-silent no-op configurations).
//
// EngineOptions with seeds == 0 or max_iterations_per_seed == 0 used to run
// zero seeds / zero iterations and return an empty result; now every layer
// rejects them with a typed ConfigError: the SearchEngine constructor, the
// shared exec-layer knob validation both front ends call at parse time, the
// service protocol parser, and the multilevel knob validation.
#include <gtest/gtest.h>

#include "sched/engine.h"
#include "service/exec.h"
#include "service/protocol.h"

namespace commsched {
namespace {

TEST(EngineOptionsValidation, EngineConstructorRejectsZeroSeeds) {
  sched::EngineOptions options;
  options.seeds = 0;
  EXPECT_THROW(sched::SearchEngine("tabu", options), ConfigError);
}

TEST(EngineOptionsValidation, EngineConstructorRejectsZeroIterations) {
  sched::EngineOptions options;
  options.max_iterations_per_seed = 0;
  EXPECT_THROW(sched::SearchEngine("tabu", options), ConfigError);
}

TEST(EngineOptionsValidation, EngineConstructorAcceptsDefaults) {
  EXPECT_NO_THROW(sched::SearchEngine("tabu", sched::EngineOptions{}));
}

TEST(EngineOptionsValidation, SearchKnobsRejectExplicitZeros) {
  svc::SearchKnobs knobs;
  EXPECT_NO_THROW(svc::ValidateSearchKnobs(knobs));  // nullopt = defaults

  knobs.seeds = 0;
  EXPECT_THROW(svc::ValidateSearchKnobs(knobs), ConfigError);
  knobs.seeds.reset();
  knobs.iterations = 0;
  EXPECT_THROW(svc::ValidateSearchKnobs(knobs), ConfigError);
  knobs.iterations.reset();
  knobs.samples = 0;
  EXPECT_THROW(svc::ValidateSearchKnobs(knobs), ConfigError);
}

TEST(EngineOptionsValidation, RunMappingSearchRejectsZeroSeeds) {
  const dist::DistanceTable table(4, 1.0);
  svc::SearchKnobs knobs;
  knobs.seeds = 0;
  EXPECT_THROW((void)svc::RunMappingSearch(table, {2, 2}, knobs), ConfigError);
}

TEST(EngineOptionsValidation, ProtocolParserRejectsZeroKnobs) {
  EXPECT_THROW((void)svc::ParseRequest(R"({"op":"schedule","seeds":0})"), ConfigError);
  EXPECT_THROW((void)svc::ParseRequest(R"({"op":"schedule","iters":0})"), ConfigError);
  EXPECT_THROW((void)svc::ParseRequest(R"({"op":"schedule","algo":"random","samples":0})"),
               ConfigError);
  EXPECT_NO_THROW((void)svc::ParseRequest(R"({"op":"schedule","seeds":3,"iters":5})"));
}

TEST(EngineOptionsValidation, MultilevelKnobsRejectDegenerates) {
  svc::MultilevelKnobs knobs;
  knobs.processes = 100;
  EXPECT_NO_THROW(svc::ValidateMultilevelKnobs(knobs));

  svc::MultilevelKnobs zero_procs = knobs;
  zero_procs.processes = 0;
  EXPECT_THROW(svc::ValidateMultilevelKnobs(zero_procs), ConfigError);

  svc::MultilevelKnobs zero_seeds = knobs;
  zero_seeds.seeds = 0;
  EXPECT_THROW(svc::ValidateMultilevelKnobs(zero_seeds), ConfigError);

  svc::MultilevelKnobs zero_iters = knobs;
  zero_iters.iterations = 0;
  EXPECT_THROW(svc::ValidateMultilevelKnobs(zero_iters), ConfigError);

  svc::MultilevelKnobs bad_pattern = knobs;
  bad_pattern.pattern = "bogus";
  EXPECT_THROW(svc::ValidateMultilevelKnobs(bad_pattern), ConfigError);

  svc::MultilevelKnobs bad_distance = knobs;
  bad_distance.distance = "euclidean";
  EXPECT_THROW(svc::ValidateMultilevelKnobs(bad_distance), ConfigError);
}

TEST(EngineOptionsValidation, CanonicalMultilevelKnobsIsStable) {
  svc::MultilevelKnobs knobs;
  knobs.processes = 100;
  const std::string key = svc::CanonicalMultilevelKnobs(knobs);
  EXPECT_EQ(key, svc::CanonicalMultilevelKnobs(knobs));
  svc::MultilevelKnobs other = knobs;
  other.pattern_seed = 2;
  EXPECT_NE(key, svc::CanonicalMultilevelKnobs(other));
}

}  // namespace
}  // namespace commsched
