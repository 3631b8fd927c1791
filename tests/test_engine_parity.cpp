// Engine parity corpus (ISSUE 4): every searcher ported onto the
// Objective × SearchEngine core must return *bit-identical* results to the
// pre-refactor hand-rolled loops. The golden file was generated from the
// pre-refactor implementations (COMMSCHED_UPDATE_GOLDEN=1) and is never
// regenerated as part of the refactor itself.
//
// Two lines were edited by hand since: n8.repair.refinement_swaps and
// n8.repair_bounded.refinement_swaps went from 100 to 2 when every walk
// moved to the engine's one scan rule. The old repair refinement took any
// swap with cost below +kSearchEps, so it swapped equal-valued pairs back
// and forth until its 100-round budget ran out; it now stops at its local
// minimum after 2 swaps, with the same repaired mapping and F_G.
//
// Twelve more were regenerated when the repair refinement became an
// anchored, budgeted TabuObjective: n{8,16,24}.repair{,_bounded}
// .repaired_{fg,cc}. They moved by a few ulps because repair now reports
// the from-scratch FinalizeResult values, like every other searcher, in
// place of the evaluator's running sum. Every mapping, count, displaced and
// refinement_swaps key is unchanged.
//
// Twenty-two more changed when the scan took its order-free tie rule (the
// lexicographically smallest pair within kSearchEps of the least cost) and
// started counting only the pairs it prices. The ten
// n{8,16,24}.{tabu,tabu_from,itabu}.evaluations and n24.sd.evaluations keys
// count priced pairs: the bound-ordered scan skips rows, and a dense scan
// prices each tabu pair twice, first on its own and again in its row. The
// twelve ml.n16_random300.* and ml.n16_ring300.* keys follow the multilevel
// coarsest-level walk, whose near-tied moves the first scanned candidate or
// a later one lower by an ulp used to win. The previous engine with only
// the tie rule swapped in reproduces every changed line but the evaluation
// counts.
//
// Coverage: 8/16/24-switch irregular networks × plain/intensity/anchored
// tabu, steepest descent, random sampling, simulated annealing,
// genetic annealing, and anchored repair. Floats are serialized as hexfloats
// so the comparison is exact to the last bit.
//
// The multi-seed keys (n16/n24 .sa_multi, .gsa_multi, .repair_multi_b*, and
// the ml.* multilevel cases) pin how seeds are run and combined: restarted
// annealing with its concatenated trace, multi-seed repair under tight and
// loose migration budgets, and the multilevel coarsest-level engine search.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/distance_table.h"
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

const char* const kGoldenPath = COMMSCHED_TEST_DATA_DIR "/engine_parity.golden.txt";

using Corpus = std::map<std::string, std::string>;

DistanceTable PaperTable(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return DistanceTable::Build(routing);
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void RecordResult(Corpus& corpus, const std::string& key, const SearchResult& result) {
  corpus[key + ".best"] = result.best.ToString();
  corpus[key + ".best_fg"] = Hex(result.best_fg);
  corpus[key + ".best_dg"] = Hex(result.best_dg);
  corpus[key + ".best_cc"] = Hex(result.best_cc);
  corpus[key + ".iterations"] = std::to_string(result.iterations);
  corpus[key + ".evaluations"] = std::to_string(result.evaluations);
  corpus[key + ".moved"] = std::to_string(result.moved_from_anchor);
}

void RecordRepair(Corpus& corpus, const std::string& key, const RepairOutcome& outcome) {
  corpus[key + ".repaired"] = outcome.repaired.ToString();
  corpus[key + ".forced_moves"] = std::to_string(outcome.forced_moves);
  corpus[key + ".refinement_swaps"] = std::to_string(outcome.refinement_swaps);
  corpus[key + ".displaced"] = std::to_string(outcome.displaced);
  corpus[key + ".anchor_fg"] = Hex(outcome.anchor_fg);
  corpus[key + ".repaired_fg"] = Hex(outcome.repaired_fg);
  corpus[key + ".repaired_cc"] = Hex(outcome.repaired_cc);
}

std::vector<double> SyntheticIntensity(std::size_t clusters) {
  std::vector<double> intensity(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    intensity[c] = 1.0 + 0.5 * static_cast<double>(c);
  }
  return intensity;
}

/// Runs every searcher over one network and records the results under
/// `prefix`. The options deliberately exercise tenure/aspiration/local-min
/// machinery (small iteration budgets force escape moves).
void RunCases(Corpus& corpus, const std::string& prefix, std::size_t switches,
              std::uint64_t topo_seed, const std::vector<std::size_t>& sizes) {
  const DistanceTable table = PaperTable(switches, topo_seed);

  {
    TabuOptions options;
    options.seeds = 4;
    options.rng_seed = 11;
    RecordResult(corpus, prefix + ".tabu", TabuSearch(table, sizes, options));
  }
  {
    TabuOptions options;
    options.seeds = 3;
    options.rng_seed = 13;
    const qual::Partition anchor = qual::Partition::Blocked(sizes);
    options.anchor = &anchor;
    options.migration_penalty = 0.25;
    RecordResult(corpus, prefix + ".atabu", TabuSearch(table, sizes, options));
  }
  {
    TabuOptions options;
    options.record_trace = true;
    const SearchResult from =
        TabuSearchFrom(table, qual::Partition::Blocked(sizes), options);
    RecordResult(corpus, prefix + ".tabu_from", from);
    corpus[prefix + ".tabu_from.trace_len"] = std::to_string(from.trace.size());
  }
  {
    TabuOptions options;
    options.seeds = 3;
    options.rng_seed = 19;
    options.cluster_intensity = SyntheticIntensity(sizes.size());
    RecordResult(corpus, prefix + ".itabu", TabuSearch(table, sizes, options));
  }
  {
    SteepestDescentOptions options;
    options.restarts = 4;
    options.rng_seed = 23;
    RecordResult(corpus, prefix + ".sd", SteepestDescent(table, sizes, options));
  }
  {
    RandomSearchOptions options;
    options.samples = 50;
    options.rng_seed = 29;
    RecordResult(corpus, prefix + ".random", RandomSearch(table, sizes, options));
  }
  {
    AnnealingOptions options;
    options.iterations = 1500;
    options.rng_seed = 31;
    RecordResult(corpus, prefix + ".sa", SimulatedAnnealing(table, sizes, options));
  }
  {
    GeneticAnnealingOptions options;
    options.generations = 20;
    options.rng_seed = 37;
    RecordResult(corpus, prefix + ".gsa", GeneticSimulatedAnnealing(table, sizes, options));
  }
  {
    Rng rng(41);
    const qual::Partition anchor = qual::Partition::Random(sizes, rng);
    RepairOptions options;
    RecordRepair(corpus, prefix + ".repair", AnchoredRepair(table, anchor, {}, {}, options));
    RepairOptions bounded;
    bounded.migration_budget = 4;
    bounded.migration_penalty = 0.5;
    RecordRepair(corpus, prefix + ".repair_bounded",
                 AnchoredRepair(table, anchor, {}, {}, bounded));
  }
}

/// The multi-seed searchers over one network: restarted annealing (with a
/// trace) and genetic annealing, and four-seed repair at three budgets.
void RunMultiSeedCases(Corpus& corpus, const std::string& prefix, std::size_t switches,
                       std::uint64_t topo_seed, const std::vector<std::size_t>& sizes) {
  const DistanceTable table = PaperTable(switches, topo_seed);
  {
    AnnealingOptions options;
    options.iterations = 1500;
    options.restarts = 4;
    options.rng_seed = 31;
    options.record_trace = true;
    const SearchResult result = SimulatedAnnealing(table, sizes, options);
    RecordResult(corpus, prefix + ".sa_multi", result);
    corpus[prefix + ".sa_multi.trace_len"] = std::to_string(result.trace.size());
  }
  {
    GeneticAnnealingOptions options;
    options.generations = 20;
    options.restarts = 3;
    options.rng_seed = 37;
    RecordResult(corpus, prefix + ".gsa_multi",
                 GeneticSimulatedAnnealing(table, sizes, options));
  }
  Rng rng(41);
  const qual::Partition anchor = qual::Partition::Random(sizes, rng);
  for (const std::size_t budget : {std::size_t{2}, std::size_t{6}, SIZE_MAX}) {
    RepairOptions options;
    options.seeds = 4;
    options.rng_seed = 43;
    options.migration_budget = budget;
    options.migration_penalty = 0.5;
    RecordRepair(corpus,
                 prefix + ".repair_multi_b" + (budget == SIZE_MAX ? "inf" : std::to_string(budget)),
                 AnchoredRepair(table, anchor, {}, {}, options));
  }
}

void RecordMultilevel(Corpus& corpus, const std::string& key, const ml::MultilevelResult& result) {
  std::string assignment;
  for (const std::size_t s : result.switch_of_process) assignment += std::to_string(s) + ",";
  corpus[key + ".assignment"] = assignment;
  corpus[key + ".cost"] = Hex(result.cost);
  corpus[key + ".normalized"] = Hex(result.normalized);
  corpus[key + ".levels"] = std::to_string(result.levels);
  corpus[key + ".max_load"] = std::to_string(result.max_load);
  corpus[key + ".engine_seeds"] = std::to_string(result.engine_seeds);
  corpus[key + ".engine_iterations"] = std::to_string(result.engine_iterations);
  corpus[key + ".engine_evaluations"] = std::to_string(result.engine_evaluations);
  std::string moves;
  for (const ml::LevelStats& level : result.level_stats) {
    moves += std::to_string(level.moves) + ",";
  }
  corpus[key + ".level_moves"] = moves;
}

/// Four-seed multilevel mappings whose coarsest graph reaches the engine:
/// a ring on a 4x4 mesh (no coarsening) and grid/ring/random patterns of
/// 300 processes on the 16-switch paper network.
void RunMultilevelCases(Corpus& corpus) {
  ml::MultilevelOptions options;
  options.seeds = 4;
  {
    const topo::SwitchGraph mesh = topo::MakeMesh2D(4, 4, 4);
    RecordMultilevel(corpus, "ml.mesh_ring64",
                     ml::MapMultilevel(work::MakeRingComm(64),
                                       DistanceTable::BuildGraphHops(mesh), 4, options));
  }
  const DistanceTable table = PaperTable(16, 4);
  for (const char* pattern : {"grid", "ring", "random"}) {
    RecordMultilevel(corpus, std::string("ml.n16_") + pattern + "300",
                     ml::MapMultilevel(work::MakePatternComm(pattern, 300, 1), table, 20,
                                       options));
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

/// Serializes a SearchResult into one comparable line (hexfloats: exact).
std::string Fingerprint(const SearchResult& result) {
  std::ostringstream out;
  out << result.best.ToString() << "|" << Hex(result.best_fg) << "|" << Hex(result.best_dg)
      << "|" << Hex(result.best_cc) << "|" << result.iterations << "|" << result.evaluations
      << "|" << result.moved_from_anchor << "|" << result.trace.size();
  return out.str();
}

std::string Fingerprint(const RepairOutcome& outcome) {
  std::ostringstream out;
  out << outcome.repaired.ToString() << "|" << outcome.forced_moves << "|"
      << outcome.refinement_swaps << "|" << outcome.displaced << "|" << Hex(outcome.anchor_fg)
      << "|" << Hex(outcome.repaired_fg) << "|" << Hex(outcome.repaired_cc);
  return out.str();
}

/// Every searcher must return identical results with parallel_seeds on and
/// off (engine determinism rules 1-3): starts and RNG streams derive up
/// front and seed results combine sequentially in seed order.
TEST(EngineParity, ParallelMatchesSequential) {
  const DistanceTable table = PaperTable(16, 4);
  const std::vector<std::size_t> sizes = {4, 4, 4, 4};

  const auto both = [](auto run) {
    const std::string sequential = run(false);
    const std::string parallel = run(true);
    EXPECT_EQ(sequential, parallel);
  };

  both([&](bool parallel) {
    TabuOptions options;
    options.seeds = 6;
    options.rng_seed = 11;
    options.record_trace = true;
    options.parallel_seeds = parallel;
    return Fingerprint(TabuSearch(table, sizes, options));
  });
  both([&](bool parallel) {
    TabuOptions options;
    options.seeds = 5;
    options.rng_seed = 13;
    options.migration_penalty = 0.25;
    options.parallel_seeds = parallel;
    const qual::Partition anchor = qual::Partition::Blocked(sizes);
    options.anchor = &anchor;
    return Fingerprint(TabuSearch(table, sizes, options));
  });
  both([&](bool parallel) {
    TabuOptions options;
    options.seeds = 5;
    options.rng_seed = 19;
    options.parallel_seeds = parallel;
    options.cluster_intensity = SyntheticIntensity(4);
    return Fingerprint(TabuSearch(table, sizes, options));
  });
  both([&](bool parallel) {
    SteepestDescentOptions options;
    options.restarts = 6;
    options.rng_seed = 23;
    options.parallel_seeds = parallel;
    return Fingerprint(SteepestDescent(table, sizes, options));
  });
  both([&](bool parallel) {
    RandomSearchOptions options;
    options.samples = 64;
    options.rng_seed = 29;
    options.parallel_seeds = parallel;
    return Fingerprint(RandomSearch(table, sizes, options));
  });
  both([&](bool parallel) {
    AnnealingOptions options;
    options.iterations = 800;
    options.restarts = 4;
    options.rng_seed = 31;
    options.record_trace = true;
    options.parallel_seeds = parallel;
    return Fingerprint(SimulatedAnnealing(table, sizes, options));
  });
  both([&](bool parallel) {
    GeneticAnnealingOptions options;
    options.generations = 10;
    options.restarts = 3;
    options.rng_seed = 37;
    options.parallel_seeds = parallel;
    return Fingerprint(GeneticSimulatedAnnealing(table, sizes, options));
  });
  both([&](bool parallel) {
    Rng rng(41);
    const qual::Partition anchor = qual::Partition::Random(sizes, rng);
    RepairOptions options;
    options.seeds = 4;
    options.rng_seed = 43;
    options.migration_budget = 6;
    options.migration_penalty = 0.5;
    options.parallel_seeds = parallel;
    return Fingerprint(AnchoredRepair(table, anchor, {}, {}, options));
  });
}

/// Multi-restart annealing with restart 0 must reproduce the single-restart
/// walk's best when no extra restart wins — and restarts must never make the
/// result worse.
TEST(EngineParity, AnnealingRestartsNeverWorse) {
  const DistanceTable table = PaperTable(16, 4);
  const std::vector<std::size_t> sizes = {4, 4, 4, 4};
  AnnealingOptions single;
  single.iterations = 800;
  single.rng_seed = 31;
  const SearchResult one = SimulatedAnnealing(table, sizes, single);
  AnnealingOptions multi = single;
  multi.restarts = 4;
  const SearchResult four = SimulatedAnnealing(table, sizes, multi);
  EXPECT_LE(four.best_fg, one.best_fg + 1e-12);
}

TEST(EngineParity, MatchesPreRefactorGolden) {
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
  // Key-by-key comparison so a mismatch names the exact searcher and field.
  for (const auto& [key, value] : golden) {
    const auto it = current.find(key);
    ASSERT_NE(it, current.end()) << "missing result for " << key;
    EXPECT_EQ(it->second, value) << "bitwise parity lost for " << key;
  }
  EXPECT_EQ(current.size(), golden.size());
}

}  // namespace
}  // namespace commsched::sched
