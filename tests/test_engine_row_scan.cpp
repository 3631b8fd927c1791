// The engine's row scan against the per-pair contract it replaces.
//
//   (a) Every SwapCostRow override gives each entry the bits of SwapCost,
//       and +infinity inside a's cluster: plain and λ-weighted
//       TabuObjective and IntraSumObjective, on random 16/24/128-switch
//       partitions, before and after swaps. The budget-anchored
//       TabuObjective has no row kernel: its over-budget +infinity costs are
//       priced pair by pair.
//   (b) A walk over an objective that forwards only SwapCost (so the engine
//       gets Objective's default and prices pair by pair) equals the walk
//       over the row override: the applied swaps, the trace, the best and
//       every counter.
//   (c) The same with NaN, +infinity and -infinity costs planted on some
//       pairs: they stay inadmissible, and the exact row skip never lets
//       one through (a -infinity is not a decrease).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "quality/quality.h"
#include "routing/updown.h"
#include "sched/engine.h"
#include "topology/generator.h"

namespace commsched::sched {
namespace {

using Move = std::pair<std::size_t, std::size_t>;

constexpr double kInf = std::numeric_limits<double>::infinity();

DistanceTable PaperTable(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  const topo::SwitchGraph g = topo::GenerateIrregularTopology(options);
  const route::UpDownRouting routing(g);
  return DistanceTable::Build(routing);
}

std::vector<std::size_t> EvenSizes(std::size_t switches, std::size_t clusters) {
  return std::vector<std::size_t>(clusters, switches / clusters);
}

std::vector<double> Intensity(std::size_t clusters) {
  std::vector<double> intensity(clusters);
  for (std::size_t c = 0; c < clusters; ++c) intensity[c] = 0.75 + 0.5 * static_cast<double>(c);
  return intensity;
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// The planted cost of a pair, if it has one: about one pair in eight is
/// NaN, +infinity or -infinity.
std::optional<double> Planted(std::size_t a, std::size_t b) {
  switch ((a * 7 + b * 13) % 24) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return kInf;
    case 2: return -kInf;
    default: return std::nullopt;
  }
}

/// Forwards to an inner objective and records every applied swap. With
/// `use_row` the engine gets the inner SwapCostRow override; without it,
/// Objective's default, so the engine prices pair by pair. With `plant`,
/// the pairs that Planted() names cost their planted value on both paths.
class Forwarding final : public Objective {
 public:
  Forwarding(Objective& inner, bool use_row, bool plant)
      : inner_(&inner), use_row_(use_row), plant_(plant) {}

  double SwapCost(std::size_t a, std::size_t b) override {
    if (plant_) {
      if (const std::optional<double> cost = Planted(a, b)) return *cost;
    }
    return inner_->SwapCost(a, b);
  }
  bool SwapCostRow(std::size_t a, double* costs) override {
    if (!use_row_ || !inner_->SwapCostRow(a, costs)) return false;
    if (!plant_) return true;
    const std::vector<std::size_t>& cluster_of = partition().cluster_of_switch();
    for (std::size_t b = a + 1; b < cluster_of.size(); ++b) {
      if (cluster_of[a] == cluster_of[b]) continue;
      if (const std::optional<double> cost = Planted(a, b)) costs[b] = *cost;
    }
    return true;
  }
  [[nodiscard]] double Value() const override { return inner_->Value(); }
  [[nodiscard]] double TraceFg() const override { return inner_->TraceFg(); }
  void Apply(std::size_t a, std::size_t b) override {
    applied_.emplace_back(a, b);
    inner_->Apply(a, b);
  }
  [[nodiscard]] const Partition& partition() const override { return inner_->partition(); }
  void FinalizeSeed(SearchResult& result) const override { inner_->FinalizeSeed(result); }

  [[nodiscard]] const std::vector<Move>& applied() const { return applied_; }

 private:
  Objective* inner_;
  bool use_row_;
  bool plant_;
  std::vector<Move> applied_;
};

/// Everything a walk produces, exactly (hexfloats).
std::string Fingerprint(const SeedRun& run, const std::vector<Move>& applied) {
  std::string out = run.result.best.ToString() + "|" + Hex(run.result.best_fg) + "|" +
                    Hex(run.result.best_dg) + "|" + Hex(run.result.best_cc) + "|" +
                    std::to_string(run.result.iterations) + "|" +
                    std::to_string(run.result.evaluations) + "|" +
                    std::to_string(run.result.moved_from_anchor) + "|" + Hex(run.best_value) +
                    "|" + std::to_string(run.trace_span) + "|" + std::to_string(run.tabu_hits) +
                    "|" + std::to_string(run.aspirations) + "|" + std::to_string(run.escapes) +
                    "\nmoves:";
  for (const auto& [a, b] : applied) out += " " + std::to_string(a) + "-" + std::to_string(b);
  out += "\ntrace:";
  for (const TracePoint& point : run.result.trace) {
    out += " " + std::to_string(point.iteration) + "/" + Hex(point.fg) +
           (point.is_restart ? "r" : "");
  }
  return out;
}

/// Checks objective.SwapCostRow(a) against SwapCost(a, b) for every a and
/// b; every cross-cluster entry must be finite.
void ExpectRowsMatchPairs(Objective& objective) {
  const std::vector<std::size_t>& cluster_of = objective.partition().cluster_of_switch();
  const std::size_t n = cluster_of.size();
  constexpr double kSentinel = -12345.5;
  std::vector<double> row(n);
  for (std::size_t a = 0; a < n; ++a) {
    std::fill(row.begin(), row.end(), kSentinel);
    EXPECT_TRUE(objective.SwapCostRow(a, row.data())) << "no row kernel";
    for (std::size_t b = 0; b <= a; ++b) {
      EXPECT_EQ(row[b], kSentinel) << "row " << a << " wrote entry " << b;
    }
    for (std::size_t b = a + 1; b < n; ++b) {
      if (cluster_of[a] == cluster_of[b]) {
        EXPECT_EQ(row[b], kInf) << "same-cluster pair " << a << "," << b;
        continue;
      }
      const double pair = objective.SwapCost(a, b);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[b]), std::bit_cast<std::uint64_t>(pair))
          << "pair " << a << "," << b << ": row " << Hex(row[b]) << " vs " << Hex(pair);
      EXPECT_TRUE(std::isfinite(pair));
    }
  }
}

/// Applies a few random swaps so the gain table has moved off its build.
void Shuffle(Objective& objective, Rng& rng, std::size_t swaps) {
  for (std::size_t k = 0; k < swaps; ++k) {
    const auto [a, b] = RandomInterClusterPair(objective.partition(), rng);
    objective.Apply(a, b);
  }
}

struct Network {
  std::size_t switches;
  std::uint64_t topo_seed;
  std::size_t clusters;
};

const Network kNetworks[] = {{16, 4, 4}, {24, 2, 4}, {128, 5, 4}};

TEST(EngineRowScan, RowKernelMatchesPairCostsBitForBit) {
  for (const Network& net : kNetworks) {
    SCOPED_TRACE("switches " + std::to_string(net.switches));
    const DistanceTable table = PaperTable(net.switches, net.topo_seed);
    const std::vector<std::size_t> sizes = EvenSizes(net.switches, net.clusters);
    Rng rng(net.switches);
    const Partition start = Partition::Random(sizes, rng);
    const Partition anchor = Partition::Random(sizes, rng);

    TabuObjective plain(table, start, nullptr, 0.0);
    TabuObjective weighted(table, start, nullptr, 0.0, SIZE_MAX, Intensity(net.clusters));
    // The budget-anchored objective leaves its rows to the per-pair scan.
    TabuObjective anchored(table, start, &anchor, 0.5, CountMovedFromAnchor(start, anchor) + 1);
    qual::SwapEvaluator eval(table, start);
    IntraSumObjective intra(table, eval);

    for (Objective* objective : std::initializer_list<Objective*>{&plain, &weighted, &intra}) {
      ExpectRowsMatchPairs(*objective);
      Shuffle(*objective, rng, 5);
      ExpectRowsMatchPairs(*objective);
    }
    std::vector<double> row(net.switches);
    EXPECT_FALSE(anchored.SwapCostRow(0, row.data()));
  }
}

/// The objectives a walk is checked over, built fresh per walk.
enum class Kind { kPlain, kWeighted, kAnchored, kIntraSum };

/// One walk from `start` over a fresh objective of `kind`, through a
/// Forwarding wrapper; returns its fingerprint. Options force escapes and
/// a filling tabu list.
std::string WalkFingerprint(const DistanceTable& table, const Partition& start, Kind kind,
                            bool use_row, bool plant, std::size_t local_min_repeats = 61) {
  const std::size_t clusters = start.cluster_count();
  const Partition anchor = Partition::Blocked(EvenSizes(start.switch_count(), clusters));
  qual::SwapEvaluator eval(table, start);
  std::optional<TabuObjective> tabu;
  std::optional<IntraSumObjective> intra;
  switch (kind) {
    case Kind::kPlain: tabu.emplace(table, start, nullptr, 0.0); break;
    case Kind::kWeighted:
      tabu.emplace(table, start, nullptr, 0.0, SIZE_MAX, Intensity(clusters));
      break;
    case Kind::kAnchored:
      tabu.emplace(table, start, &anchor, 0.5, CountMovedFromAnchor(start, anchor) + 2);
      break;
    case Kind::kIntraSum: intra.emplace(table, eval); break;
  }
  Objective& inner = tabu ? static_cast<Objective&>(*tabu) : *intra;
  Forwarding objective(inner, use_row, plant);

  EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = 60;
  options.local_min_repeats = local_min_repeats;
  options.tenure = 6;
  options.record_trace = true;
  const SearchEngine engine("row_scan_test", options);
  const SeedRun run = engine.RunSeed(objective, 0);
  if (plant) {
    for (const auto& [a, b] : objective.applied()) {
      EXPECT_FALSE(Planted(a, b).has_value()) << "took planted pair " << a << "," << b;
    }
  }
  return Fingerprint(run, objective.applied());
}

void ExpectPairWalkMatchesRowWalk(bool plant) {
  for (const Network& net : kNetworks) {
    const DistanceTable table = PaperTable(net.switches, net.topo_seed);
    const std::vector<std::size_t> sizes = EvenSizes(net.switches, net.clusters);
    Rng rng(100 + net.switches);
    for (const Kind kind : {Kind::kPlain, Kind::kWeighted, Kind::kAnchored, Kind::kIntraSum}) {
      const Partition start = Partition::Random(sizes, rng);
      SCOPED_TRACE("switches " + std::to_string(net.switches) + ", kind " +
                   std::to_string(static_cast<int>(kind)));
      const std::string by_pair = WalkFingerprint(table, start, kind, false, plant);
      const std::string by_row = WalkFingerprint(table, start, kind, true, plant);
      EXPECT_EQ(by_pair, by_row);
      EXPECT_NE(by_row.find("moves: "), std::string::npos) << "the walk never moved";
    }
  }
}

TEST(EngineRowScan, PairWalkMatchesRowWalk) { ExpectPairWalkMatchesRowWalk(false); }

TEST(EngineRowScan, PlantedNonFiniteCostsStayInadmissible) {
  ExpectPairWalkMatchesRowWalk(true);
}

/// From a local minimum of the raw intra sum, a pure-descent walk stops at
/// once even when some pairs cost -infinity: a non-finite cost is neither
/// a decrease nor a move, in a skipped row or a scanned one.
TEST(EngineRowScan, MinusInfinityIsNotADecrease) {
  const DistanceTable table = PaperTable(24, 2);
  Rng rng(9);
  qual::SwapEvaluator eval(table, Partition::Random(EvenSizes(24, 4), rng));
  IntraSumObjective descent(table, eval);
  EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = 200;
  options.local_min_repeats = 1;
  static_cast<void>(SearchEngine("row_scan_test", options).RunSeed(descent, 0));
  const Partition minimum = eval.partition();

  std::size_t planted_minus_inf = 0;
  for (const auto& [a, b] : InterClusterPairs(minimum)) {
    const std::optional<double> cost = Planted(a, b);
    if (cost && *cost == -kInf) ++planted_minus_inf;
  }
  ASSERT_GT(planted_minus_inf, 0u);
  for (const bool use_row : {false, true}) {
    const std::string walk =
        WalkFingerprint(table, minimum, Kind::kIntraSum, use_row, true, /*local_min_repeats=*/1);
    EXPECT_NE(walk.find("\nmoves:\n"), std::string::npos) << walk;  // no swap applied
  }
}

}  // namespace
}  // namespace commsched::sched
