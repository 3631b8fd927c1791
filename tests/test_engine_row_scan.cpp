// The engine's two scans against a brute-force scan of every pair.
//
//   (a) SwapDeltaRow gives each entry of a row, a against one other
//       cluster or against every cluster above a's, the bits of SwapCost on
//       the pair in (min, max) orientation, and the evaluator keeps each
//       cluster's members in ascending order: plain and λ-weighted
//       TabuObjective and IntraSumObjective, on random 16/24/128-switch
//       partitions, before and after swaps. The budget-anchored
//       TabuObjective exposes no evaluator: its over-budget +infinity costs
//       are priced pair by pair.
//   (b) EngineBoundScan: on random nets of 8–128 switches in 2, 3, 4 and 8
//       clusters, with λ ≡ 1 and λ ≠ 1, a tabu list that fills and
//       aspiration on, every move and every local minimum of the dense
//       scan (bounded from six switches per cluster) equal those of a
//       brute-force walk that prices every pair and applies the tie rule as
//       written: the least cost, then the lexicographically smallest pair
//       within kSearchEps of it. Every RowBound is at most every cost of its
//       row.
//   (c) A walk priced pair by pair (the objective hides its evaluator) takes
//       the same moves as the dense walk, with the same counters but for
//       evaluations, which the bounds cut from 24 switches in four clusters.
//   (d) NaN, +infinity and -infinity costs planted on some pairs stay
//       inadmissible on the per-pair scan: it walks as the brute force does,
//       which skips them, and a -infinity is not a decrease.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "obs/trace.h"
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
/// `dense` the engine gets the inner evaluator and runs the bound-ordered
/// scan; without it, Objective's default, so the engine prices pair by
/// pair. With `plant`, the pairs that Planted() names cost their planted
/// value (the per-pair scan only: the bound scan reads the evaluator).
/// `before_apply` runs before each swap is applied.
class Forwarding final : public Objective {
 public:
  Forwarding(Objective& inner, bool dense, bool plant)
      : inner_(&inner), dense_(dense), plant_(plant) {}

  double SwapCost(std::size_t a, std::size_t b) override {
    if (plant_) {
      if (const std::optional<double> cost = Planted(a, b)) return *cost;
    }
    return inner_->SwapCost(a, b);
  }
  [[nodiscard]] DenseCost Dense() override { return dense_ ? inner_->Dense() : DenseCost{}; }
  [[nodiscard]] double Value() const override { return inner_->Value(); }
  [[nodiscard]] double TraceFg() const override { return inner_->TraceFg(); }
  void Apply(std::size_t a, std::size_t b) override {
    if (before_apply) before_apply();
    applied_.emplace_back(a, b);
    inner_->Apply(a, b);
  }
  [[nodiscard]] const Partition& partition() const override { return inner_->partition(); }
  void FinalizeSeed(SearchResult& result) const override { inner_->FinalizeSeed(result); }

  [[nodiscard]] const std::vector<Move>& applied() const { return applied_; }

  std::function<void()> before_apply;

 private:
  Objective* inner_;
  bool dense_;
  bool plant_;
  std::vector<Move> applied_;
};

/// What a walk did: its moves, the iterations that found a local minimum
/// (no decreasing swap, tabu or not) and its counters.
struct WalkLog {
  std::vector<Move> moves;
  std::vector<std::size_t> local_minima;
  std::uint64_t tabu_hits = 0;
  std::uint64_t aspirations = 0;
  std::uint64_t escapes = 0;
  std::size_t iterations = 0;
};

std::string ToString(const WalkLog& log) {
  std::string out = "iters " + std::to_string(log.iterations) + " tabu_hits " +
                    std::to_string(log.tabu_hits) + " aspirations " +
                    std::to_string(log.aspirations) + " escapes " + std::to_string(log.escapes) +
                    "\nmoves:";
  for (const auto& [a, b] : log.moves) out += " " + std::to_string(a) + "-" + std::to_string(b);
  out += "\nlocal minima at:";
  for (const std::size_t it : log.local_minima) out += " " + std::to_string(it);
  return out;
}

/// The §4.2 walk by brute force: every iteration prices every inter-cluster
/// pair through SwapCost and applies the rule as written.
WalkLog ReferenceWalk(Objective& objective, const EngineOptions& options) {
  struct TabuEntry { std::size_t a, b, until; };
  struct Candidate { double cost; std::size_t a, b; };
  // The least cost, then the smallest (a, b) within kSearchEps of it.
  const auto choose = [](const std::vector<Candidate>& group) {
    double least = kInf;
    for (const Candidate& c : group) least = std::min(least, c.cost);
    Move chosen{SIZE_MAX, SIZE_MAX};
    for (const Candidate& c : group) {
      if (c.cost <= least + kSearchEps) chosen = std::min(chosen, Move(c.a, c.b));
    }
    return chosen;
  };
  WalkLog log;
  std::vector<TabuEntry> tabu;
  std::map<long long, std::size_t> local_min_hits;
  double current = objective.Value();
  double best = current;
  const std::size_t n = objective.partition().switch_count();
  for (std::size_t iteration = 0; iteration < options.max_iterations_per_seed;) {
    std::erase_if(tabu, [iteration](const TabuEntry& e) { return e.until <= iteration; });
    std::vector<Candidate> down;
    std::vector<Candidate> up;
    bool any_decrease = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (objective.partition().ClusterOf(a) == objective.partition().ClusterOf(b)) continue;
        const double cost = objective.SwapCost(a, b);
        if (!std::isfinite(cost)) continue;
        if (cost < -kSearchEps) any_decrease = true;
        const bool is_tabu = std::any_of(tabu.begin(), tabu.end(), [a, b](const TabuEntry& e) {
          return e.a == a && e.b == b;
        });
        if (is_tabu) {
          if (options.aspiration && current + cost < best - kSearchEps) {
            ++log.aspirations;
          } else {
            ++log.tabu_hits;
            continue;
          }
        }
        if (cost < -kSearchEps) down.push_back({cost, a, b});
        if (cost > kSearchEps) up.push_back({cost, a, b});
      }
    }
    Move move;
    bool escaping = false;
    if (!down.empty()) {
      move = choose(down);
    } else {
      if (!any_decrease) {
        log.local_minima.push_back(iteration);
        const long long key = std::llround(current * 1e9);
        if (++local_min_hits[key] >= options.local_min_repeats) break;
      }
      if (up.empty()) break;
      move = choose(up);
      escaping = true;
    }
    objective.Apply(move.first, move.second);
    log.moves.push_back(move);
    current = objective.Value();
    ++iteration;
    ++log.iterations;
    if (escaping) {
      ++log.escapes;
      tabu.push_back({move.first, move.second, iteration + options.tenure});
    }
    if (current < best - kSearchEps) best = current;
  }
  return log;
}

/// One engine walk over `objective`, logged like ReferenceWalk; the local
/// minima come from the walk's search.local_min trace events.
WalkLog EngineWalk(Forwarding& objective, const EngineOptions& options,
                   SeedRun* run_out = nullptr) {
  std::ostringstream events;
  obs::Tracer tracer(events);
  SeedRun run;
  {
    const obs::ScopedTracer scoped(tracer);
    run = SearchEngine("bound_scan_test", options).RunSeed(objective, 0);
  }
  WalkLog log;
  log.moves = objective.applied();
  std::istringstream lines(events.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"search.local_min\"") == std::string::npos) continue;
    const std::size_t at = line.find("\"iter\":");
    log.local_minima.push_back(std::stoul(line.substr(at + 7)));
  }
  log.tabu_hits = run.tabu_hits;
  log.aspirations = run.aspirations;
  log.escapes = run.escapes;
  log.iterations = run.result.iterations;
  if (run_out != nullptr) *run_out = run;
  return log;
}

/// Walk options that fill the tabu list and revisit local minima.
EngineOptions WalkOptions(std::size_t iterations, std::size_t local_min_repeats) {
  EngineOptions options;
  options.seeds = 1;
  options.max_iterations_per_seed = iterations;
  options.local_min_repeats = local_min_repeats;
  options.tenure = 6;
  return options;
}

/// Checks every entry of objective's row kernel against SwapCost on the
/// same pair, for every switch a and every other cluster q.
void ExpectRowsMatchPairs(Objective& objective) {
  const Objective::DenseCost dense = objective.Dense();
  ASSERT_NE(dense.evaluator, nullptr) << "no evaluator";
  const Partition& partition = objective.partition();
  const std::size_t n = partition.switch_count();
  std::vector<double> row(n);
  for (std::size_t q = 0; q < partition.cluster_count(); ++q) {
    const std::span<const std::size_t> members = dense.evaluator->Members(q);
    ASSERT_EQ(std::vector<std::size_t>(members.begin(), members.end()), partition.Members(q));
  }
  // Rows against one other cluster and against every cluster above a's.
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::span<const std::size_t>> rows = {
        dense.evaluator->MembersFrom(partition.ClusterOf(a) + 1)};
    for (std::size_t q = 0; q < partition.cluster_count(); ++q) {
      if (q != partition.ClusterOf(a)) rows.push_back(dense.evaluator->Members(q));
    }
    for (const std::span<const std::size_t> others : rows) {
      dense.evaluator->SwapDeltaRow(a, others, dense.scale, row.data());
      for (std::size_t i = 0; i < others.size(); ++i) {
        const auto [lo, hi] = std::minmax(a, others[i]);
        const double pair = objective.SwapCost(lo, hi);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row[i]), std::bit_cast<std::uint64_t>(pair))
            << "pair " << lo << "," << hi << ": row " << Hex(row[i]) << " vs " << Hex(pair);
        EXPECT_TRUE(std::isfinite(pair));
      }
    }
  }
}

/// Checks that no cost of a row (a, q > c(a)) is below the row's bound,
/// bit for bit.
void ExpectBoundsHold(Objective& objective, const std::string& label) {
  const Objective::DenseCost dense = objective.Dense();
  qual::SwapEvaluator& eval = *dense.evaluator;
  eval.PrepareRowBounds();
  const Partition& partition = objective.partition();
  for (std::size_t a = 0; a < partition.switch_count(); ++a) {
    for (std::size_t q = partition.ClusterOf(a) + 1; q < partition.cluster_count(); ++q) {
      const double bound = eval.RowBound(a, q) * dense.scale;
      for (const std::size_t b : eval.Members(q)) {
        const auto [lo, hi] = std::minmax(a, b);
        const double cost = objective.SwapCost(lo, hi);
        ASSERT_LE(bound, cost) << label << ": row (" << a << ", " << q << ") pair " << lo << ","
                               << hi << " bound " << Hex(bound) << " cost " << Hex(cost);
      }
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
    // The budget-anchored objective leaves its pairs to the per-pair scan.
    TabuObjective anchored(table, start, &anchor, 0.5, CountMovedFromAnchor(start, anchor) + 1);
    qual::SwapEvaluator eval(table, start);
    IntraSumObjective intra(table, eval);

    for (Objective* objective : std::initializer_list<Objective*>{&plain, &weighted, &intra}) {
      ExpectRowsMatchPairs(*objective);
      Shuffle(*objective, rng, 5);
      ExpectRowsMatchPairs(*objective);
    }
    EXPECT_EQ(anchored.Dense().evaluator, nullptr);
  }
}

/// Random cluster sizes summing to `switches`, each at least 1 and the
/// first at least 2 (F_G needs an intracluster pair), shuffled.
std::vector<std::size_t> RandomSizes(std::size_t switches, std::size_t clusters, Rng& rng) {
  std::vector<std::size_t> sizes(clusters, 1);
  sizes[0] = 2;
  for (std::size_t left = switches - clusters - 1; left > 0; --left) {
    ++sizes[rng.NextIndex(clusters)];
  }
  std::swap(sizes[0], sizes[rng.NextIndex(clusters)]);
  return sizes;
}

/// Random per-cluster intensities in [0.25, 4).
std::vector<double> RandomIntensity(std::size_t clusters, Rng& rng) {
  std::vector<double> intensity(clusters);
  for (double& lambda : intensity) lambda = 0.25 + 3.75 * rng.NextDouble();
  return intensity;
}

TEST(EngineBoundScan, ChosenMoveEqualsFullScan) {
  Rng rng(33);
  std::uint64_t aspirations = 0;
  std::uint64_t tabu_hits = 0;
  std::size_t local_minima = 0;
  std::size_t walks = 0;
  for (const std::size_t switches : {8, 12, 16, 24, 40, 64, 128}) {
    const DistanceTable table = PaperTable(switches, 100 + switches);
    for (const std::size_t clusters : {2, 3, 4, 8}) {
      if (clusters >= switches) continue;  // F_G needs an intracluster pair
      for (const bool unit_lambda : {true, false}) {
        for (const bool intra_sum : {false, true}) {
          const std::vector<std::size_t> sizes = RandomSizes(switches, clusters, rng);
          const std::vector<double> intensity =
              unit_lambda ? std::vector<double>{} : RandomIntensity(clusters, rng);
          const Partition start = Partition::Random(sizes, rng);
          const std::string label = std::to_string(switches) + " switches, " +
                                    std::to_string(clusters) + " clusters, " +
                                    (unit_lambda ? "unit" : "random") + " λ, " +
                                    (intra_sum ? "intra sum" : "tabu");
          SCOPED_TRACE(label);
          // Fewer iterations on the largest net keep the brute force quick.
          const EngineOptions options = WalkOptions(switches >= 64 ? 30 : 60, 4);
          const auto run = [&](bool reference) {
            qual::SwapEvaluator eval(table, start, intensity);
            TabuObjective tabu(table, start, nullptr, 0.0, SIZE_MAX, intensity);
            IntraSumObjective intra(table, eval);
            Objective& inner = intra_sum ? static_cast<Objective&>(intra) : tabu;
            if (reference) return ReferenceWalk(inner, options);
            Forwarding objective(inner, /*dense=*/true, /*plant=*/false);
            objective.before_apply = [&] { ExpectBoundsHold(inner, label); };
            return EngineWalk(objective, options);
          };
          const WalkLog engine = run(false);
          const WalkLog reference = run(true);
          EXPECT_EQ(ToString(engine), ToString(reference));
          aspirations += engine.aspirations;
          tabu_hits += engine.tabu_hits;
          local_minima += engine.local_minima.size();
          ++walks;
        }
      }
    }
  }
  // The property was exercised where the bound scan has most to get wrong.
  EXPECT_EQ(walks, 108u);
  EXPECT_GT(aspirations, 0u);
  EXPECT_GT(tabu_hits, 0u);
  EXPECT_GT(local_minima, walks);
}

/// The objectives a walk is checked over, built fresh per walk.
enum class Kind { kPlain, kWeighted, kAnchored, kIntraSum };

/// One walk from `start` over a fresh objective of `kind`, through a
/// Forwarding wrapper.
WalkLog Walk(const DistanceTable& table, const Partition& start, Kind kind, bool dense,
             bool plant, std::size_t local_min_repeats, SeedRun* run = nullptr,
             bool reference = false) {
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
  Forwarding objective(inner, dense, plant);
  const EngineOptions options = WalkOptions(60, local_min_repeats);
  if (reference) return ReferenceWalk(objective, options);
  WalkLog log = EngineWalk(objective, options, run);
  if (plant) {
    for (const auto& [a, b] : log.moves) {
      EXPECT_FALSE(Planted(a, b).has_value()) << "took planted pair " << a << "," << b;
    }
  }
  return log;
}

TEST(EngineRowScan, PairWalkMatchesRowWalk) {
  for (const Network& net : kNetworks) {
    const DistanceTable table = PaperTable(net.switches, net.topo_seed);
    const std::vector<std::size_t> sizes = EvenSizes(net.switches, net.clusters);
    Rng rng(100 + net.switches);
    for (const Kind kind : {Kind::kPlain, Kind::kWeighted, Kind::kIntraSum}) {
      const Partition start = Partition::Random(sizes, rng);
      SCOPED_TRACE("switches " + std::to_string(net.switches) + ", kind " +
                   std::to_string(static_cast<int>(kind)));
      SeedRun by_pair;
      SeedRun by_bound;
      const WalkLog pair_log = Walk(table, start, kind, false, false, 61, &by_pair);
      const WalkLog bound_log = Walk(table, start, kind, true, false, 61, &by_bound);
      EXPECT_EQ(ToString(pair_log), ToString(bound_log));
      EXPECT_FALSE(bound_log.moves.empty()) << "the walk never moved";
      EXPECT_EQ(by_pair.result.best, by_bound.result.best);
      EXPECT_EQ(Hex(by_pair.result.best_fg), Hex(by_bound.result.best_fg));
      EXPECT_EQ(Hex(by_pair.best_value), Hex(by_bound.best_value));
      // Every pair of every scan (a walk cut short scans once more than it
      // moves), against the pairs the bounds let through.
      const std::size_t scans = by_pair.result.iterations + (by_pair.result.iterations < 60);
      EXPECT_EQ(by_pair.result.evaluations, scans * start.InterPairCountOrdered() / 2);
      // From 24 switches in four clusters the rows are long enough for bounds.
      if (net.switches >= 24) {
        EXPECT_LT(by_bound.result.evaluations, by_pair.result.evaluations);
      }
    }
  }
}

TEST(EngineRowScan, PlantedNonFiniteCostsStayInadmissible) {
  for (const Network& net : kNetworks) {
    const DistanceTable table = PaperTable(net.switches, net.topo_seed);
    const std::vector<std::size_t> sizes = EvenSizes(net.switches, net.clusters);
    Rng rng(200 + net.switches);
    for (const Kind kind : {Kind::kPlain, Kind::kWeighted, Kind::kAnchored, Kind::kIntraSum}) {
      const Partition start = Partition::Random(sizes, rng);
      SCOPED_TRACE("switches " + std::to_string(net.switches) + ", kind " +
                   std::to_string(static_cast<int>(kind)));
      const WalkLog engine = Walk(table, start, kind, false, true, 61);
      const WalkLog reference = Walk(table, start, kind, false, true, 61, nullptr, true);
      EXPECT_EQ(ToString(engine), ToString(reference));
      EXPECT_FALSE(engine.moves.empty()) << "the walk never moved";
    }
  }
}

/// All unordered switch pairs (a, b) lying in different clusters — the swap
/// neighbourhood of §4.2.
std::vector<std::pair<std::size_t, std::size_t>> InterClusterPairs(
    const qual::Partition& partition) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < partition.switch_count(); ++a) {
    for (std::size_t b = a + 1; b < partition.switch_count(); ++b) {
      if (partition.ClusterOf(a) != partition.ClusterOf(b)) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

/// From a local minimum of the raw intra sum, a pure-descent walk stops at
/// once even when some pairs cost -infinity: a non-finite cost is neither
/// a decrease nor a move.
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
  const WalkLog walk = Walk(table, minimum, Kind::kIntraSum, false, true, 1);
  EXPECT_TRUE(walk.moves.empty()) << ToString(walk);
  EXPECT_EQ(walk.local_minima, std::vector<std::size_t>{0});
}

}  // namespace
}  // namespace commsched::sched
