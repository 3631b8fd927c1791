#include "sched/repair.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "quality/quality.h"
#include "sched/engine.h"

namespace commsched::sched {
namespace {

// Added quadratic intracluster cost of drafting `spare` into `cluster`.
double DraftCost(const dist::DistanceTable& table, const qual::Partition& partition,
                 std::size_t spare, std::size_t cluster) {
  double cost = 0.0;
  for (const std::size_t m : partition.Members(cluster)) {
    const double d = table(spare, m);
    cost += d * d;
  }
  return cost;
}

}  // namespace

RepairOutcome AnchoredRepair(const dist::DistanceTable& table, const qual::Partition& anchor,
                             const std::vector<std::size_t>& deficit_per_cluster,
                             std::optional<std::size_t> spare_cluster,
                             const RepairOptions& options) {
  const std::size_t n = anchor.switch_count();
  CS_CHECK(table.size() == n, "distance table and anchor partition disagree on switch count");
  CS_CHECK(deficit_per_cluster.empty() || deficit_per_cluster.size() == anchor.cluster_count(),
           "deficit vector must have one entry per cluster");
  CS_CHECK(!spare_cluster || *spare_cluster < anchor.cluster_count(),
           "spare cluster out of range");
  CS_CHECK(options.seeds >= 1, "need at least one repair seed");

  RepairOutcome outcome{anchor};
  qual::Partition& partition = outcome.repaired;

  // Phase 1 — forced migration: refill damaged clusters from the spare
  // pool, cheapest-fit first.
  if (spare_cluster && !deficit_per_cluster.empty()) {
    for (std::size_t c = 0; c < deficit_per_cluster.size(); ++c) {
      if (c == *spare_cluster) continue;
      for (std::size_t need = deficit_per_cluster[c]; need > 0; --need) {
        const std::vector<std::size_t> pool = partition.Members(*spare_cluster);
        // Partition forbids emptying a cluster, so the pool keeps one spare.
        if (pool.size() <= 1) break;
        std::size_t best = pool.front();
        double best_cost = std::numeric_limits<double>::infinity();
        for (const std::size_t spare : pool) {
          const double cost = DraftCost(table, partition, spare, c);
          if (cost < best_cost) {
            best_cost = cost;
            best = spare;
          }
        }
        partition.Move(best, c);
        ++outcome.forced_moves;
      }
    }
  }

  // Phase 2 — bounded best-improvement swap refinement from the
  // post-forced-move anchor, via the shared search engine. Seed 0 refines
  // the anchor itself (bit-identical to the single-seed repair); extra
  // seeds perturb the anchor with up to two random admissible swaps first.
  outcome.anchor_fg = qual::SwapEvaluator(table, partition).Fg();

  EngineOptions engine_options;
  engine_options.seeds = options.seeds;
  engine_options.max_iterations_per_seed = options.max_refinement_rounds;
  engine_options.local_min_repeats = 1;  // pure descent: stop at the first minimum
  engine_options.record_trace = false;
  engine_options.parallel_seeds = options.parallel_seeds;
  const SearchEngine engine("repair", engine_options);

  // Starts up front (engine determinism rule 1).
  std::vector<qual::Partition> starts;
  std::vector<std::size_t> perturb_swaps(options.seeds, 0);
  starts.reserve(options.seeds);
  starts.push_back(partition);
  for (std::size_t k = 1; k < options.seeds; ++k) {
    qual::Partition start = partition;
    if (partition.cluster_count() >= 2) {
      Rng rng(DeriveSeedStream(options.rng_seed, k));
      std::vector<std::size_t> clusters = partition.cluster_of_switch();
      std::size_t swaps = 0;
      for (int attempt = 0; attempt < 2; ++attempt) {
        const auto [a, b] = RandomInterClusterPair(start, rng);
        std::swap(clusters[a], clusters[b]);
        ++swaps;
      }
      qual::Partition perturbed(clusters);
      // Perturbed switches count against the budget; fall back to the
      // unperturbed anchor when the budget cannot afford the perturbation.
      if (CountMovedFromAnchor(perturbed, partition) <= options.migration_budget) {
        start = std::move(perturbed);
        perturb_swaps[k] = swaps;
      }
    }
    starts.push_back(std::move(start));
  }

  const std::vector<SeedRun> runs = RunSeeds(engine_options, [&](std::size_t k) {
    // Anchored at the post-forced-move partition: F_G + penalty *
    // displaced / N, and swaps past the hard budget cost +inf.
    TabuObjective objective = engine.SetUpSeed(k, [&] {
      return TabuObjective(table, starts[k], &partition, options.migration_penalty,
                           options.migration_budget);
    });
    return engine.RunSeed(objective, k);
  });
  // Every start is within the budget and the objective never leaves it, so
  // every seed is admissible; its displaced count is its best mapping's
  // moved_from_anchor.
  const std::size_t winner = BestSeed(runs, [&](const SeedRun& run) {
    return run.result.best_fg + options.migration_penalty *
                                    static_cast<double>(run.result.moved_from_anchor) /
                                    static_cast<double>(n);
  });
  const SearchResult& best = runs[winner].result;
  outcome.repaired = best.best;
  outcome.refinement_swaps = perturb_swaps[winner] + best.iterations;
  outcome.displaced = best.moved_from_anchor;
  outcome.repaired_fg = best.best_fg;
  outcome.repaired_cc = best.best_cc;

  obs::Registry::Global().GetCounter("sched.repair.runs").Add();
  obs::Registry::Global().GetCounter("sched.repair.forced_moves").Add(outcome.forced_moves);
  obs::Registry::Global().GetCounter("sched.repair.refinement_swaps")
      .Add(outcome.refinement_swaps);
  if (obs::Tracer* t = obs::ActiveTracer()) {
    t->Emit(obs::TraceEvent("sched.repair.done")
                .F("forced_moves", outcome.forced_moves)
                .F("refinement_swaps", outcome.refinement_swaps)
                .F("displaced", outcome.displaced)
                .F("anchor_fg", outcome.anchor_fg)
                .F("repaired_fg", outcome.repaired_fg)
                .F("repaired_cc", outcome.repaired_cc));
  }
  return outcome;
}

}  // namespace commsched::sched
