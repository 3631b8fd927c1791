#include "sched/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace commsched::sched {

SearchEngine::SearchEngine(std::string algo, const EngineOptions& options)
    : algo_(std::move(algo)),
      options_(options),
      timer_name_("search." + algo_ + ".seed"),
      seed_span_name_(algo_ + ".seed"),
      iter_span_name_(algo_ + ".iter") {
  // A zero here used to silently yield an empty no-op search result; callers
  // that meant "don't search" invariably meant something else (a typoed
  // flag, an uninitialized knob), so it is a configuration error.
  if (options.seeds == 0) {
    throw ConfigError("search seeds must be >= 1 (got 0)");
  }
  if (options.max_iterations_per_seed == 0) {
    throw ConfigError("search iterations per seed must be >= 1 (got 0)");
  }
}

SeedRun SearchEngine::RunSeed(Objective& objective, std::size_t seed_index) const {
  const obs::Span seed_span(seed_span_name_, "seed", seed_index,
                            &obs::Registry::Global().GetTimer(timer_name_));
  const std::size_t n = objective.partition().switch_count();

  SeedRun run;
  run.result.best = objective.partition();
  double current_value = objective.Value();
  double best_value = current_value;

  if (options_.record_trace) {
    run.result.trace.push_back({0, objective.TraceFg(), /*is_restart=*/true});
  }
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    tracer->Emit(obs::TraceEvent("search.restart")
                     .F("algo", algo_)
                     .F("seed", seed_index)
                     .F("fg", objective.TraceFg()));
  }

  // The tabu list: swap (a, b) is forbidden while iteration < until. An
  // entry lives `tenure` iterations, so at most `tenure` are active.
  struct TabuEntry { std::size_t a, b, until; };
  std::vector<TabuEntry> tabu;

  // Cluster sizes never change during a walk, so every scan prices the same
  // number of inter-cluster pairs.
  const std::size_t cross_pairs = objective.partition().InterPairCountOrdered() / 2;
  std::vector<double> costs(n);  // one scan row

  // Local-minimum bookkeeping: values quantized to a tolerance so that
  // "the same local minimum" is robust to floating-point noise.
  std::map<long long, std::size_t> local_min_hits;
  auto quantize = [](double value) { return static_cast<long long>(std::llround(value * 1e9)); };

  std::size_t iteration = 0;
  while (iteration < options_.max_iterations_per_seed) {
    // Escape iterations are re-labelled before the span closes, so the
    // profile separates uphill moves from ordinary descent.
    obs::Span iter_span(iter_span_name_, "iter", iteration);
    std::erase_if(tabu, [iteration](const TabuEntry& e) { return e.until <= iteration; });

    // Evaluate the whole inter-cluster swap neighbourhood. A challenger must
    // beat the held candidate (initially 0: no change) by kSearchEps:
    // gain-table deltas carry last-bit noise, and an exact tie keeps the
    // first candidate scanned.
    double best_down = 0.0;  // greatest decrease
    std::pair<std::size_t, std::size_t> down_move{n, n};
    double best_up = std::numeric_limits<double>::infinity();  // smallest increase
    std::pair<std::size_t, std::size_t> up_move{n, n};
    bool any_decrease_exists = false;  // decreasing swap exists, tabu or not

    run.result.evaluations += cross_pairs;
    const std::vector<std::size_t>& cluster_of = objective.partition().cluster_of_switch();
    for (std::size_t a = 0; a + 1 < n; ++a) {
      const bool row_has_tabu =
          std::any_of(tabu.begin(), tabu.end(), [a](const TabuEntry& e) { return e.a == a; });
      // The per-pair rule, in scan order.
      const auto consider = [&](std::size_t b, double cost) {
        if (!std::isfinite(cost)) return;  // same cluster or inadmissible
        if (cost < -kSearchEps) any_decrease_exists = true;

        if (row_has_tabu && std::any_of(tabu.begin(), tabu.end(), [a, b](const TabuEntry& e) {
              return e.a == a && e.b == b;
            })) {
          // Aspiration: a tabu move may still be taken if it would beat the
          // best mapping this seed has seen.
          if (options_.aspiration && current_value + cost < best_value - kSearchEps) {
            ++run.aspirations;
          } else {
            ++run.tabu_hits;
            return;
          }
        }
        if (cost < best_down - kSearchEps) {
          best_down = cost;
          down_move = {a, b};
        }
        if (cost > kSearchEps && cost < best_up) {
          best_up = cost;
          up_move = {a, b};
        }
      };
      if (!objective.SwapCostRow(a, costs.data())) {  // no row kernel: price pair by pair
        for (std::size_t b = a + 1; b < n; ++b) {
          if (cluster_of[a] != cluster_of[b]) consider(b, objective.SwapCost(a, b));
        }
        continue;
      }
      if (!row_has_tabu) {
        // Exact skip: best_down and best_up only fall, so a row that cannot beat
        // either changes no candidate. NaN and +infinity never lower a minimum.
        double low = std::numeric_limits<double>::infinity();
        double low_up = std::numeric_limits<double>::infinity();
        for (std::size_t b = a + 1; b < n; ++b) {
          const double cost = costs[b];
          low = cost < low ? cost : low;
          low_up = cost > kSearchEps && cost < low_up ? cost : low_up;
        }
        if (low >= best_down - kSearchEps && !(low_up < best_up)) {
          if (low < -kSearchEps) any_decrease_exists = true;
          continue;
        }
      }
      for (std::size_t b = a + 1; b < n; ++b) consider(b, costs[b]);
    }

    std::pair<std::size_t, std::size_t> move{n, n};
    bool escaping = false;
    if (down_move.first < n) {
      move = down_move;  // greatest decrease
    } else {
      // Local minimum (no admissible decreasing swap).
      if (!any_decrease_exists) {
        const std::size_t hits = ++local_min_hits[quantize(current_value)];
        if (obs::Tracer* tracer = obs::ActiveTracer()) {
          tracer->Emit(obs::TraceEvent("search.local_min")
                           .F("algo", algo_)
                           .F("seed", seed_index)
                           .F("iter", iteration)
                           .F("fg", objective.TraceFg())
                           .F("hits", hits));
        }
        if (hits >= options_.local_min_repeats) {
          break;  // same local minimum reached `local_min_repeats` times
        }
      }
      if (up_move.first >= n) {
        break;  // nowhere to go (every escape move is tabu)
      }
      move = up_move;  // smallest increase
      escaping = true;
    }

    objective.Apply(move.first, move.second);
    current_value = objective.Value();
    ++iteration;
    ++run.result.iterations;
    if (escaping) {
      ++run.escapes;
      iter_span.SetArg("escape_iter", iteration - 1);
      // Forbid the inverse permutation for `tenure` iterations.
      tabu.push_back({move.first, move.second, iteration + options_.tenure});
    }
    if (options_.record_trace) {
      run.result.trace.push_back({iteration, objective.TraceFg(), false});
    }
    if (obs::Tracer* tracer = obs::ActiveTracer()) {
      tracer->Emit(obs::TraceEvent("search.move")
                       .F("algo", algo_)
                       .F("seed", seed_index)
                       .F("iter", iteration)
                       .F("a", move.first)
                       .F("b", move.second)
                       .F("fg", objective.TraceFg())
                       .F("escape", escaping));
    }
    if (current_value < best_value - kSearchEps) {
      best_value = current_value;
      run.result.best = objective.partition();
    }
  }

  run.best_value = best_value;
  run.trace_span = run.result.iterations + 1;  // +1 for the restart point
  objective.FinalizeSeed(run.result);

  obs::Registry& registry = obs::Registry::Global();
  const std::string family = "search." + algo_ + ".";
  registry.GetCounter(family + "seeds").Add(1);
  registry.GetCounter(family + "moves").Add(run.result.iterations);
  registry.GetCounter(family + "evaluations").Add(run.result.evaluations);
  registry.GetCounter(family + "tabu_hits").Add(run.tabu_hits);
  registry.GetCounter(family + "aspirations").Add(run.aspirations);
  registry.GetCounter(family + "escapes").Add(run.escapes);
  // Distribution of per-seed walk lengths: one histogram sample per seed
  // (batched like the counters — nothing lands mid-walk).
  registry.GetHistogram(family + "seed_iters").Record(run.result.iterations);
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    tracer->Emit(obs::TraceEvent("search.seed_done")
                     .F("algo", algo_)
                     .F("seed", seed_index)
                     .F("iters", run.result.iterations)
                     .F("evals", run.result.evaluations)
                     .F("best_fg", run.result.best_fg)
                     .F("best_cc", run.result.best_cc));
  }
  return run;
}

std::vector<SeedRun> RunSeeds(const EngineOptions& options, const SeedRunner& run_seed) {
  CS_CHECK(options.seeds >= 1, "need at least one seed");
  // Every start and RNG stream was derived before this point, so the seed
  // walks are independent and parallel execution explores identical walks.
  std::vector<SeedRun> runs(options.seeds);
  auto run_one = [&](std::size_t k) { runs[k] = run_seed(k); };
  if (options.parallel_seeds && options.seeds > 1) {
    ParallelFor(options.seeds, run_one);
  } else {
    for (std::size_t k = 0; k < options.seeds; ++k) run_one(k);
  }
  return runs;
}

std::size_t BestSeed(const std::vector<SeedRun>& runs, const SeedKey& key) {
  std::size_t best = 0;
  double best_key = key(runs[0]);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const double challenger = key(runs[k]);
    if (challenger < best_key - kSearchEps) {
      best = k;
      best_key = challenger;
    }
  }
  return best;
}

SearchResult RunMultiStart(const DistanceTable& table, const MultiStartSpec& spec) {
  std::vector<SeedRun> runs = RunSeeds(spec.options, spec.run_seed);
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  std::vector<TracePoint> trace;
  std::size_t iteration_base = 0;
  for (const SeedRun& run : runs) {
    iterations += run.result.iterations;
    evaluations += run.result.evaluations;
    if (spec.options.record_trace) {
      for (TracePoint point : run.result.trace) {
        point.iteration += iteration_base;
        trace.push_back(point);
      }
      iteration_base += run.trace_span;
    }
  }
  SearchResult combined = std::move(runs[BestSeed(runs, spec.combine_key)].result);
  combined.iterations = iterations;
  combined.evaluations = evaluations;
  combined.trace = std::move(trace);
  if (spec.finalize_combined) {
    FinalizeResult(table, combined);
  }
  if (obs::Tracer* tracer = obs::ActiveTracer()) {
    tracer->Emit(obs::TraceEvent("search.done")
                     .F("algo", spec.algo)
                     .F("seeds", runs.size())
                     .F("iters", combined.iterations)
                     .F("evals", combined.evaluations)
                     .F("best_fg", combined.best_fg));
  }
  return combined;
}

std::uint64_t DeriveSeedStream(std::uint64_t base, std::size_t k) {
  // SplitMix64 over a golden-ratio stride: independent streams per restart
  // that never touch the searcher's master Rng (restart 0 keeps the master
  // stream for bit-compatibility with the single-restart searchers).
  std::uint64_t state = base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(k) + 1);
  return SplitMix64(state);
}

std::pair<std::size_t, std::size_t> RandomInterClusterPair(const Partition& partition, Rng& rng) {
  const std::size_t n = partition.switch_count();
  for (;;) {
    const std::size_t a = static_cast<std::size_t>(rng.NextIndex(n));
    const std::size_t b = static_cast<std::size_t>(rng.NextIndex(n));
    if (a != b && partition.ClusterOf(a) != partition.ClusterOf(b)) {
      return {std::min(a, b), std::max(a, b)};
    }
  }
}

bool MetropolisPolicy::Accept(double cost, Rng& rng) {
  // Short-circuit keeps RNG consumption identical to the legacy loop: one
  // NextDouble per uphill proposal only.
  return cost < kSearchEps || rng.NextDouble() < std::exp(-cost / temperature_);
}

void MetropolisPolicy::AfterProposal() {
  temperature_ = std::max(temperature_ * cooling_, floor_);
}

SampledMoveStats RunSampledMoves(Objective& objective, MetropolisPolicy& policy,
                                 std::size_t proposals, Rng& rng,
                                 const std::function<void(std::size_t)>& on_accept) {
  SampledMoveStats stats;
  for (std::size_t it = 0; it < proposals; ++it) {
    const auto [a, b] = RandomInterClusterPair(objective.partition(), rng);
    const double cost = objective.SwapCost(a, b);
    ++stats.proposals;
    if (policy.Accept(cost, rng)) {
      if (cost > kSearchEps) ++stats.uphill_accepts;
      objective.Apply(a, b);
      ++stats.accepts;
      on_accept(it);
    }
    policy.AfterProposal();
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Objective adapters.
// ---------------------------------------------------------------------------

std::size_t CountMovedFromAnchor(const Partition& partition, const Partition& anchor) {
  std::size_t moved = 0;
  for (std::size_t s = 0; s < partition.switch_count(); ++s) {
    if (partition.ClusterOf(s) != anchor.ClusterOf(s)) ++moved;
  }
  return moved;
}

TabuObjective::TabuObjective(const DistanceTable& table, const Partition& start,
                             const Partition* anchor, double migration_penalty,
                             std::size_t migration_budget, std::vector<double> cluster_intensity)
    : eval_(table, start, std::move(cluster_intensity)),
      table_(&table),
      anchor_(anchor),
      budget_(migration_budget) {
  const std::size_t n = start.switch_count();
  if (anchor_ != nullptr) {
    CS_CHECK(anchor_->switch_count() == n, "anchor size mismatch");
  }
  move_cost_ = anchor_ != nullptr ? migration_penalty / static_cast<double>(n) : 0.0;
  fg_scale_ = eval_.FgAfterDelta(1.0) - eval_.FgAfterDelta(0.0);
  moved_ = anchor_ != nullptr ? CountMovedFromAnchor(start, *anchor_) : 0;
}

int TabuObjective::SwapDMoved(std::size_t a, std::size_t b) const {
  const std::size_t ca = eval_.partition().ClusterOf(a);
  const std::size_t cb = eval_.partition().ClusterOf(b);
  int d = 0;
  d += (cb != anchor_->ClusterOf(a)) - (ca != anchor_->ClusterOf(a));
  d += (ca != anchor_->ClusterOf(b)) - (cb != anchor_->ClusterOf(b));
  return d;
}

double TabuObjective::SwapCost(std::size_t a, std::size_t b) {
  const double fg_cost = eval_.SwapDelta(a, b) * fg_scale_;
  // The unanchored scan is the hot loop of every Tabu run: no budget test.
  if (anchor_ == nullptr) return fg_cost;
  const int d_moved = SwapDMoved(a, b);
  // moved_ + d_moved >= 0, so the unsigned wrap of a negative d_moved is exact.
  if (moved_ + static_cast<std::size_t>(d_moved) > budget_) {
    return std::numeric_limits<double>::infinity();
  }
  return fg_cost + move_cost_ * static_cast<double>(d_moved);
}

bool TabuObjective::SwapCostRow(std::size_t a, double* costs) {
  if (anchor_ != nullptr) return false;  // priced per pair, with the budget test
  eval_.SwapDeltaRow(a, fg_scale_, costs);
  return true;
}

double TabuObjective::Value() const {
  return eval_.Fg() + move_cost_ * static_cast<double>(moved_);
}

double TabuObjective::TraceFg() const { return eval_.Fg(); }

void TabuObjective::Apply(std::size_t a, std::size_t b) {
  if (anchor_ != nullptr) moved_ += static_cast<std::size_t>(SwapDMoved(a, b));
  eval_.ApplySwap(a, b);
}

const Partition& TabuObjective::partition() const { return eval_.partition(); }

void TabuObjective::FinalizeSeed(SearchResult& result) const {
  FinalizeResult(*table_, result);
  result.best_fg = qual::IntensityGlobalSimilarity(*table_, result.best, eval_.cluster_intensity());
  if (anchor_ != nullptr) {
    result.moved_from_anchor = CountMovedFromAnchor(result.best, *anchor_);
  }
}

double IntraSumObjective::SwapCost(std::size_t a, std::size_t b) { return eval_->SwapDelta(a, b); }

bool IntraSumObjective::SwapCostRow(std::size_t a, double* costs) {  // * 1.0 is exact
  eval_->SwapDeltaRow(a, 1.0, costs);
  return true;
}

double IntraSumObjective::Value() const { return eval_->IntraSum(); }

double IntraSumObjective::TraceFg() const { return eval_->Fg(); }

void IntraSumObjective::Apply(std::size_t a, std::size_t b) { eval_->ApplySwap(a, b); }

const Partition& IntraSumObjective::partition() const { return eval_->partition(); }

void IntraSumObjective::FinalizeSeed(SearchResult& result) const {
  FinalizeResult(*table_, result);
}

}  // namespace commsched::sched
