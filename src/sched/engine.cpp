#include "sched/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace commsched::sched {

namespace {

/// The dense scan bounds rows once clusters average this many switches: a
/// 60-iteration Tabu seed in four clusters took longer with bounds at 12,
/// 16 and 20 switches and less from 24 on (x86, gcc 12 -O2).
constexpr std::size_t kBoundedScanMinClusterSize = 6;

/// The scan's tie rule for one kind of move (decrease or increase): among
/// the offers within kSearchEps of the least, the lexicographically
/// smallest pair, whatever order the offers come in.
struct MoveChoice {
  double least = std::numeric_limits<double>::infinity();
  std::vector<std::tuple<double, std::size_t, std::size_t>> held;  // offers within Limit()

  void Reset() { least = std::numeric_limits<double>::infinity(); held.clear(); }
  /// An offer above this can no longer be chosen; it only falls.
  [[nodiscard]] double Limit() const { return least + kSearchEps; }
  void Offer(double cost, std::size_t a, std::size_t b) {
    if (cost > Limit()) return;
    least = std::min(least, cost);
    held.emplace_back(cost, a, b);
  }
  /// The chosen pair; requires a held offer.
  [[nodiscard]] std::pair<std::size_t, std::size_t> Move() const {
    std::pair<std::size_t, std::size_t> chosen{SIZE_MAX, SIZE_MAX};
    for (const auto& [cost, a, b] : held) {
      if (cost <= Limit()) chosen = std::min(chosen, {a, b});
    }
    return chosen;
  }
};

}  // namespace

SearchEngine::SearchEngine(std::string algo, const EngineOptions& options)
    : algo_(std::move(algo)),
      options_(options),
      seed_span_name_(algo_ + ".seed"),
      iter_span_name_(algo_ + ".iter"),
      setup_span_name_(algo_ + ".seed_setup"),
      finalize_span_name_(algo_ + ".finalize") {
  // A zero here used to silently yield an empty no-op search result; callers
  // that meant "don't search" invariably meant something else (a typoed
  // flag, an uninitialized knob), so it is a configuration error.
  if (options.seeds == 0) {
    throw ConfigError("search seeds must be >= 1 (got 0)");
  }
  if (options.max_iterations_per_seed == 0) {
    throw ConfigError("search iterations per seed must be >= 1 (got 0)");
  }
  // Registry nodes never move (ResetAll only zeroes them), so each seed
  // flushes through these pointers without taking the registry's lock.
  obs::Registry& registry = obs::Registry::Global();
  const std::string family = "search." + algo_ + ".";
  seed_timer_ = &registry.GetTimer(family + "seed");
  const char* const names[] = {"seeds", "moves", "evaluations", "tabu_hits", "aspirations",
                               "escapes"};
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = &registry.GetCounter(family + names[i]);
  }
  seed_iters_ = &registry.GetHistogram(family + "seed_iters");
}

SeedRun SearchEngine::RunSeed(Objective& objective, std::size_t seed_index) const {
  const obs::Span seed_span(seed_span_name_, "seed", seed_index, seed_timer_);
  const std::size_t n = objective.partition().switch_count();
  const std::size_t clusters = objective.partition().cluster_count();
  const Objective::DenseCost dense = objective.Dense();
  const bool bounded = n >= kBoundedScanMinClusterSize * clusters;

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

  // The tabu list: swap (a, b), a < b, is forbidden while iteration < until.
  // An entry lives `tenure` iterations, so at most `tenure` are active.
  struct TabuEntry { std::size_t a, b, until; };
  std::vector<TabuEntry> tabu;
  const auto is_tabu = [&tabu](std::size_t a, std::size_t b) {
    return std::any_of(tabu.begin(), tabu.end(),
                       [a, b](const TabuEntry& e) { return e.a == a && e.b == b; });
  };
  const auto touches_tabu = [&tabu](std::size_t a) {
    return std::any_of(tabu.begin(), tabu.end(),
                       [a](const TabuEntry& e) { return e.a == a || e.b == a; });
  };

  std::vector<double> costs(n);  // one scan row
  MoveChoice down;               // greatest decrease
  MoveChoice up;                 // smallest increase

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
    down.Reset();
    up.Reset();
    // Nothing above the threshold can be chosen; no increase once a decrease is held.
    const auto threshold = [&] { return down.held.empty() ? up.Limit() : down.Limit(); };
    const auto offer = [&](std::size_t a, std::size_t b, double cost) {
      if (cost < -kSearchEps) down.Offer(cost, a, b);
      if (cost > kSearchEps) up.Offer(cost, a, b);
    };

    // The tabu pairs first, so tabu_hits, aspirations and the local-minimum
    // test do not depend on what the scan below skips; it leaves them out.
    const std::vector<std::size_t>& cluster_of = objective.partition().cluster_of_switch();
    bool tabu_decrease = false;
    for (const TabuEntry& e : tabu) {
      if (cluster_of[e.a] == cluster_of[e.b]) continue;  // no longer a swap
      const double cost = objective.SwapCost(e.a, e.b);
      ++run.result.evaluations;
      if (!std::isfinite(cost)) continue;  // inadmissible
      tabu_decrease = tabu_decrease || cost < -kSearchEps;
      // Aspiration: a tabu move that would beat this seed's best is allowed.
      if (options_.aspiration && current_value + cost < best_value - kSearchEps) {
        ++run.aspirations;
        offer(e.a, e.b, cost);
      } else {
        ++run.tabu_hits;
      }
    }

    if (qual::SwapEvaluator* eval = dense.evaluator) {
      // Prices a against `others` (clusters above a's); offers what may still win.
      const auto price_row = [&](std::size_t a, std::span<const std::size_t> others) {
        eval->SwapDeltaRow(a, others, dense.scale, costs.data());
        run.result.evaluations += others.size();
        double low = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < others.size(); ++i) low = costs[i] < low ? costs[i] : low;
        const double limit = threshold();
        if (low > limit) return;
        const bool row_tabu = touches_tabu(a);
        for (std::size_t i = 0; i < others.size(); ++i) {
          if (costs[i] > limit) continue;
          const auto [lo, hi] = std::minmax(a, others[i]);
          if (!row_tabu || !is_tabu(lo, hi)) offer(lo, hi, costs[i]);
        }
      };
      if (!bounded) {
        for (std::size_t a = 0; a < n; ++a) {
          if (cluster_of[a] + 1 < clusters) price_row(a, eval->MembersFrom(cluster_of[a] + 1));
        }
      } else {
        // Rows (a, q > c(a)), the lowest-bound one first so the threshold is
        // tight from the start; a row whose bound is above the threshold
        // holds nothing that could be chosen. scale > 0 keeps the order.
        eval->PrepareRowBounds();
        double lowest = std::numeric_limits<double>::infinity();
        std::pair<std::size_t, std::size_t> first{n, 0};
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t q = cluster_of[a] + 1; q < clusters; ++q) {
            if (eval->RowBound(a, q) < lowest) {
              lowest = eval->RowBound(a, q);
              first = {a, q};
            }
          }
        }
        if (first.first < n) price_row(first.first, eval->Members(first.second));
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t q = cluster_of[a] + 1; q < clusters; ++q) {
            if (std::pair(a, q) != first && !(eval->RowBound(a, q) * dense.scale > threshold())) {
              price_row(a, eval->Members(q));
            }
          }
        }
      }
    } else {
      for (std::size_t a = 0; a + 1 < n; ++a) {  // pair by pair
        const bool row_tabu = touches_tabu(a);
        for (std::size_t b = a + 1; b < n; ++b) {
          if (cluster_of[a] == cluster_of[b] || (row_tabu && is_tabu(a, b))) continue;
          const double cost = objective.SwapCost(a, b);
          ++run.result.evaluations;
          if (std::isfinite(cost)) offer(a, b, cost);  // else inadmissible
        }
      }
    }

    std::pair<std::size_t, std::size_t> move{n, n};
    bool escaping = false;
    if (!down.held.empty()) {
      move = down.Move();  // greatest decrease
    } else {
      // Local minimum (no admissible decreasing swap).
      if (!tabu_decrease) {  // no decreasing swap at all, tabu or not
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
      if (up.held.empty()) {
        break;  // nowhere to go (every escape move is tabu)
      }
      move = up.Move();  // smallest increase
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
  {
    const obs::Span finalize_span(finalize_span_name_, "seed", seed_index);
    objective.FinalizeSeed(run.result);
  }

  const std::uint64_t counts[] = {1,           run.result.iterations, run.result.evaluations,
                                  run.tabu_hits, run.aspirations,      run.escapes};
  for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i]->Add(counts[i]);
  // Distribution of per-seed walk lengths: one histogram sample per seed
  // (batched like the counters — nothing lands mid-walk).
  seed_iters_->Record(run.result.iterations);
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
  if (anchor_ == nullptr) return fg_cost;
  const int d_moved = SwapDMoved(a, b);
  // moved_ + d_moved >= 0, so the unsigned wrap of a negative d_moved is exact.
  if (moved_ + static_cast<std::size_t>(d_moved) > budget_) {
    return std::numeric_limits<double>::infinity();
  }
  return fg_cost + move_cost_ * static_cast<double>(d_moved);
}

Objective::DenseCost TabuObjective::Dense() {
  if (anchor_ != nullptr) return {};  // priced per pair, with the budget test
  return {&eval_, fg_scale_};
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
  // F_G (for C_c) and F_G^λ share one set of F_Ac sums.
  const std::vector<double> similarity = qual::ClusterSimilarities(*table_, result.best);
  FinalizeResult(*table_, result, similarity);
  result.best_fg = qual::IntensityGlobalSimilarity(*table_, result.best,
                                                   eval_.cluster_intensity(), similarity);
  if (anchor_ != nullptr) {
    result.moved_from_anchor = CountMovedFromAnchor(result.best, *anchor_);
  }
}

double IntraSumObjective::SwapCost(std::size_t a, std::size_t b) { return eval_->SwapDelta(a, b); }

double IntraSumObjective::Value() const { return eval_->IntraSum(); }

double IntraSumObjective::TraceFg() const { return eval_->Fg(); }

void IntraSumObjective::Apply(std::size_t a, std::size_t b) { eval_->ApplySwap(a, b); }

const Partition& IntraSumObjective::partition() const { return eval_->partition(); }

void IntraSumObjective::FinalizeSeed(SearchResult& result) const {
  FinalizeResult(*table_, result);
}

}  // namespace commsched::sched
