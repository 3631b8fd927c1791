// Scan-counter golden: the values of search.<algo>.{seeds,moves,evaluations,
// tabu_hits,aspirations,escapes} that the engine flushes for the
// test_engine_parity cases (plain, anchored and intensity Tabu,
// steepest descent, anchored repair at 8/16/24 switches), one 128-switch
// Tabu run whose disabled repeat stop forces escapes, and two long
// long-tenure walks that reach aspiration. The parity golden pins what a
// walk returns; this one pins how the scan counted its way there, so a
// faster scan must reproduce every tabu hit and aspiration, not only the
// moves. Regenerate with COMMSCHED_UPDATE_GOLDEN=1 only for an intended
// change of the move rule.
//
// Edited once since: the order-free tie rule of the bound-ordered scan
// moved sixteen lines (the ml.n16_random300 and ml.n16_ring300 walks, the
// n24 long walks, n8.atabu.escapes and the n8 tabu_hits), which the
// previous engine with only the tie rule swapped in reproduces, and twelve
// .evaluations lines now count the pairs the scan priced.
//
// The multi-seed keys pin the counters the searchers flush per restart:
// search.sa.* and search.gsa.* of restarted annealing, search.repair.* and
// sched.repair.* of four-seed repair, and search.multilevel.* of the
// multilevel coarsest-level engine search.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "obs/obs.h"
#include "routing/updown.h"
#include "sched/annealing.h"
#include "sched/local_search.h"
#include "sched/multilevel/multilevel.h"
#include "sched/repair.h"
#include "sched/tabu.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "workload/procgen.h"

namespace commsched::sched {
namespace {

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/engine_counters.golden.txt";

using Corpus = std::map<std::string, std::string>;

DistanceTable PaperTable(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return DistanceTable::Build(routing);
}

/// Runs `search` and records how much each search.<algo>.* counter grew,
/// under `key`. Differences of two snapshots, so the process-wide registry
/// may hold anything beforehand.
void RecordCounters(Corpus& corpus, const std::string& key, const std::string& algo,
                    const std::function<void()>& search) {
  obs::Registry& registry = obs::Registry::Global();
  const std::map<std::string, std::uint64_t> before = registry.CounterValues();
  search();
  const std::map<std::string, std::uint64_t> after = registry.CounterValues();
  const std::string family = "search." + algo + ".";
  for (const char* name : {"seeds", "moves", "evaluations", "tabu_hits", "aspirations",
                           "escapes"}) {
    const auto now = after.find(family + name);
    const auto then = before.find(family + name);
    const std::uint64_t grown = (now == after.end() ? 0 : now->second) -
                                (then == before.end() ? 0 : then->second);
    corpus[key + "." + name] = std::to_string(grown);
  }
}

/// Runs `search` and records how much each named counter grew, under
/// `key` + "." + the counter's name.
void RecordNamedCounters(Corpus& corpus, const std::string& key,
                         const std::vector<std::string>& names,
                         const std::function<void()>& search) {
  obs::Registry& registry = obs::Registry::Global();
  const std::map<std::string, std::uint64_t> before = registry.CounterValues();
  search();
  const std::map<std::string, std::uint64_t> after = registry.CounterValues();
  for (const std::string& name : names) {
    const auto now = after.find(name);
    const auto then = before.find(name);
    const std::uint64_t grown = (now == after.end() ? 0 : now->second) -
                                (then == before.end() ? 0 : then->second);
    corpus[key + "." + name] = std::to_string(grown);
  }
}

std::vector<double> SyntheticIntensity(std::size_t clusters) {
  std::vector<double> intensity(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    intensity[c] = 1.0 + 0.5 * static_cast<double>(c);
  }
  return intensity;
}

/// The scan searchers of test_engine_parity's RunCases, with its options.
void RunCases(Corpus& corpus, const std::string& prefix, std::size_t switches,
              std::uint64_t topo_seed, const std::vector<std::size_t>& sizes) {
  const DistanceTable table = PaperTable(switches, topo_seed);

  RecordCounters(corpus, prefix + ".tabu", "tabu", [&] {
    TabuOptions options;
    options.seeds = 4;
    options.rng_seed = 11;
    (void)TabuSearch(table, sizes, options);
  });
  RecordCounters(corpus, prefix + ".atabu", "tabu", [&] {
    TabuOptions options;
    options.seeds = 3;
    options.rng_seed = 13;
    const qual::Partition anchor = qual::Partition::Blocked(sizes);
    options.anchor = &anchor;
    options.migration_penalty = 0.25;
    (void)TabuSearch(table, sizes, options);
  });
  RecordCounters(corpus, prefix + ".tabu_from", "tabu", [&] {
    (void)TabuSearchFrom(table, qual::Partition::Blocked(sizes), TabuOptions{});
  });
  RecordCounters(corpus, prefix + ".itabu", "tabu", [&] {
    TabuOptions options;
    options.seeds = 3;
    options.rng_seed = 19;
    options.cluster_intensity = SyntheticIntensity(sizes.size());
    (void)TabuSearch(table, sizes, options);
  });
  RecordCounters(corpus, prefix + ".sd", "sd", [&] {
    SteepestDescentOptions options;
    options.restarts = 4;
    options.rng_seed = 23;
    (void)SteepestDescent(table, sizes, options);
  });
  Rng rng(41);
  const qual::Partition anchor = qual::Partition::Random(sizes, rng);
  RecordCounters(corpus, prefix + ".repair", "repair",
                 [&] { (void)AnchoredRepair(table, anchor, {}, {}, RepairOptions{}); });
  RecordCounters(corpus, prefix + ".repair_bounded", "repair", [&] {
    RepairOptions bounded;
    bounded.migration_budget = 4;
    bounded.migration_penalty = 0.5;
    (void)AnchoredRepair(table, anchor, {}, {}, bounded);
  });
}

/// The multi-seed cases of test_engine_parity's RunMultiSeedCases.
void RunMultiSeedCases(Corpus& corpus, const std::string& prefix, std::size_t switches,
                       std::uint64_t topo_seed, const std::vector<std::size_t>& sizes) {
  const DistanceTable table = PaperTable(switches, topo_seed);
  RecordNamedCounters(corpus, prefix + ".sa_multi",
                      {"search.sa.runs", "search.sa.evaluations", "search.sa.accepts",
                       "search.sa.uphill_accepts"},
                      [&] {
                        AnnealingOptions options;
                        options.iterations = 1500;
                        options.restarts = 4;
                        options.rng_seed = 31;
                        options.record_trace = true;
                        (void)SimulatedAnnealing(table, sizes, options);
                      });
  RecordNamedCounters(corpus, prefix + ".gsa_multi",
                      {"search.gsa.runs", "search.gsa.evaluations", "search.gsa.accepts"}, [&] {
                        GeneticAnnealingOptions options;
                        options.generations = 20;
                        options.restarts = 3;
                        options.rng_seed = 37;
                        (void)GeneticSimulatedAnnealing(table, sizes, options);
                      });
  Rng rng(41);
  const qual::Partition anchor = qual::Partition::Random(sizes, rng);
  for (const std::size_t budget : {std::size_t{2}, std::size_t{6}, SIZE_MAX}) {
    const std::string key =
        prefix + ".repair_multi_b" + (budget == SIZE_MAX ? "inf" : std::to_string(budget));
    const auto repair = [&] {
      RepairOptions options;
      options.seeds = 4;
      options.rng_seed = 43;
      options.migration_budget = budget;
      options.migration_penalty = 0.5;
      (void)AnchoredRepair(table, anchor, {}, {}, options);
    };
    RecordCounters(corpus, key, "repair", repair);
    RecordNamedCounters(corpus, key,
                        {"sched.repair.runs", "sched.repair.forced_moves",
                         "sched.repair.refinement_swaps"},
                        repair);
  }
}

/// The multilevel cases of test_engine_parity's RunMultilevelCases.
void RunMultilevelCases(Corpus& corpus) {
  ml::MultilevelOptions options;
  options.seeds = 4;
  RecordCounters(corpus, "ml.mesh_ring64", "multilevel", [&] {
    const topo::SwitchGraph mesh = topo::MakeMesh2D(4, 4, 4);
    (void)ml::MapMultilevel(work::MakeRingComm(64), DistanceTable::BuildGraphHops(mesh), 4,
                            options);
  });
  const DistanceTable table = PaperTable(16, 4);
  for (const char* pattern : {"grid", "ring", "random"}) {
    RecordCounters(corpus, std::string("ml.n16_") + pattern + "300", "multilevel", [&] {
      (void)ml::MapMultilevel(work::MakePatternComm(pattern, 300, 1), table, 20, options);
    });
  }
}

Corpus CollectCurrent() {
  Corpus corpus;
  RunCases(corpus, "n8", 8, 1, {2, 2, 2, 2});
  RunCases(corpus, "n16", 16, 4, {4, 4, 4, 4});
  RunCases(corpus, "n24", 24, 2, {6, 6, 6, 6});
  RunMultiSeedCases(corpus, "n16", 16, 4, {4, 4, 4, 4});
  RunMultiSeedCases(corpus, "n24", 24, 2, {6, 6, 6, 6});
  RunMultilevelCases(corpus);

  // The perfbench `schedule` shape: 128 switches in four clusters, 60
  // iterations, repeat stop off, so each walk escapes many times and its
  // inverse swaps meet the tabu list.
  const DistanceTable table = PaperTable(128, 5);
  RecordCounters(corpus, "n128.tabu", "tabu", [&] {
    TabuOptions options;
    options.seeds = 2;
    options.rng_seed = 7;
    options.max_iterations_per_seed = 60;
    options.local_min_repeats = 61;
    (void)TabuSearch(table, {32, 32, 32, 32}, options);
  });
  // Long walks with a long tenure over eight clusters of three, plain and
  // anchored: the tabu list fills up, and a few tabu swaps that would beat
  // the best so far are taken by aspiration.
  const DistanceTable n24 = PaperTable(24, 2);
  const std::vector<std::size_t> eights(8, 3);
  const qual::Partition blocked = qual::Partition::Blocked(eights);
  for (const qual::Partition* anchor : {static_cast<const qual::Partition*>(nullptr), &blocked}) {
    RecordCounters(corpus, anchor == nullptr ? "n24.tabu_long" : "n24.atabu_long", "tabu", [&] {
      TabuOptions options;
      options.seeds = 4;
      options.rng_seed = 3;
      options.max_iterations_per_seed = 150;
      options.local_min_repeats = 151;
      options.tenure = 12;
      options.anchor = anchor;
      options.migration_penalty = 0.25;
      (void)TabuSearch(n24, eights, options);
    });
  }
  return corpus;
}

Corpus LoadGolden(const std::string& path) {
  Corpus corpus;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    corpus[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return corpus;
}

TEST(EngineCounters, MatchesGolden) {
  const Corpus current = CollectCurrent();
  if (std::getenv("COMMSCHED_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    for (const auto& [key, value] : current) out << key << "=" << value << "\n";
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }
  const Corpus golden = LoadGolden(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing golden corpus " << kGoldenPath
                               << " (generate with COMMSCHED_UPDATE_GOLDEN=1)";
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "missing counter " << key;
    EXPECT_EQ(it->second, value) << "counter changed: " << key;
  }
  EXPECT_EQ(current.size(), golden.size());
}

/// The golden must actually exercise the scan's tabu machinery: escapes,
/// tabu hits and aspirations all occur somewhere in it.
TEST(EngineCounters, GoldenExercisesTabuList) {
  const Corpus golden = LoadGolden(kGoldenPath);
  ASSERT_FALSE(golden.empty());
  EXPECT_NE(golden.at("n128.tabu.escapes"), "0");
  EXPECT_NE(golden.at("n128.tabu.tabu_hits"), "0");
  std::uint64_t aspirations = 0;
  for (const auto& [key, value] : golden) {
    if (key.size() > 12 && key.compare(key.size() - 12, 12, ".aspirations") == 0) {
      aspirations += std::stoull(value);
    }
  }
  EXPECT_GT(aspirations, 0u);
}

}  // namespace
}  // namespace commsched::sched
