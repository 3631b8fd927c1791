#include "sched/multilevel/multilevel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "sched/engine.h"
#include "sched/multilevel/coarsen.h"

namespace commsched::sched::ml {
namespace {

using qual::CommGraph;
using qual::SparseQapEvaluator;

/// Sparse-QAP objective for the coarsest-level SearchEngine walk. The
/// engine's Partition is over coarse *vertices*; cluster c stands for the
/// switch cluster_switch_[c] (only switches the start actually uses appear,
/// relabelled contiguously as Partition requires). Swaps that would push a
/// switch past its host capacity are inadmissible (non-finite SwapCost).
class SparseQapObjective final : public Objective {
 public:
  SparseQapObjective(const CommGraph& graph, const dist::DistanceTable& table,
                     const std::vector<std::size_t>& assignment, std::size_t capacity)
      : eval_(graph, table, assignment), capacity_(capacity) {
    // Relabel used switches as contiguous cluster ids, ordered by switch id.
    std::vector<std::size_t> used = assignment;
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    cluster_switch_ = used;
    std::vector<std::size_t> cluster_of_switch(table.size(), 0);
    for (std::size_t c = 0; c < used.size(); ++c) cluster_of_switch[used[c]] = c;
    std::vector<std::size_t> cluster_of_vertex(assignment.size());
    for (std::size_t v = 0; v < assignment.size(); ++v) {
      cluster_of_vertex[v] = cluster_of_switch[assignment[v]];
    }
    partition_ = Partition(std::move(cluster_of_vertex));
  }

  double SwapCost(std::size_t a, std::size_t b) override {
    const std::size_t sa = eval_.SwitchOf(a);
    const std::size_t sb = eval_.SwitchOf(b);
    const std::size_t size_a = eval_.graph().vertex_size(a);
    const std::size_t size_b = eval_.graph().vertex_size(b);
    if (size_a != size_b) {
      if (eval_.load()[sa] - size_a + size_b > capacity_ ||
          eval_.load()[sb] - size_b + size_a > capacity_) {
        return std::numeric_limits<double>::quiet_NaN();
      }
    }
    return eval_.SwapDelta(a, b);
  }
  [[nodiscard]] double Value() const override { return eval_.Cost(); }
  [[nodiscard]] double TraceFg() const override { return eval_.NormalizedCost(); }
  void Apply(std::size_t a, std::size_t b) override {
    eval_.ApplySwap(a, b);
    partition_.Swap(a, b);
  }
  [[nodiscard]] const Partition& partition() const override { return partition_; }
  void FinalizeSeed(SearchResult& result) const override {
    result.best_fg = eval_.NormalizedCost();
    result.best_dg = 0.0;
    result.best_cc = 0.0;
  }

  /// Translates an engine partition (over coarse vertices) back into a
  /// switch assignment.
  [[nodiscard]] std::vector<std::size_t> ToAssignment(const Partition& partition) const {
    std::vector<std::size_t> assignment(partition.switch_count());
    for (std::size_t v = 0; v < assignment.size(); ++v) {
      assignment[v] = cluster_switch_[partition.ClusterOf(v)];
    }
    return assignment;
  }

 private:
  SparseQapEvaluator eval_;
  Partition partition_;
  std::vector<std::size_t> cluster_switch_;  // cluster id -> switch id
  std::size_t capacity_;
};

/// Capacity-aware greedy affinity placement: vertices in decreasing
/// (size, weighted degree) order, each onto the switch minimizing the cost
/// against already-placed neighbours; ties prefer the least-loaded switch.
/// A vertex that fits nowhere lands on the least-loaded switch (transient
/// overflow, repaired by Rebalance).
std::vector<std::size_t> GreedyPlace(const CommGraph& graph,
                                     const dist::DistanceTable& table, std::size_t capacity) {
  const std::size_t n = graph.vertex_count();
  const std::size_t switches = table.size();
  std::vector<double> weighted_degree(n, 0.0);
  for (const qual::CommEdge& e : graph.edges()) {
    weighted_degree[e.u] += e.weight;
    weighted_degree[e.v] += e.weight;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (graph.vertex_size(a) != graph.vertex_size(b)) {
      return graph.vertex_size(a) > graph.vertex_size(b);
    }
    if (weighted_degree[a] != weighted_degree[b]) {
      return weighted_degree[a] > weighted_degree[b];
    }
    return a < b;
  });

  constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);
  std::vector<std::size_t> assignment(n, kUnplaced);
  std::vector<std::size_t> load(switches, 0);
  for (std::size_t v : order) {
    const std::size_t size = graph.vertex_size(v);
    std::size_t best = kUnplaced;
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_load = 0;
    for (std::size_t s = 0; s < switches; ++s) {
      if (load[s] + size > capacity) continue;
      double cost = 0.0;
      for (const CommGraph::Neighbor* it = graph.NeighborsBegin(v);
           it != graph.NeighborsEnd(v); ++it) {
        const std::size_t sx = assignment[it->vertex];
        if (sx == kUnplaced) continue;
        const double d = table(s, sx);
        cost += it->weight * d * d;
      }
      if (best == kUnplaced || cost < best_cost ||
          (cost == best_cost && load[s] < best_load)) {
        best = s;
        best_cost = cost;
        best_load = load[s];
      }
    }
    if (best == kUnplaced) {
      // Nothing fits: overflow onto the least-loaded switch.
      best = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    assignment[v] = best;
    load[best] += size;
  }
  return assignment;
}

/// Drains overloaded switches by moving their cheapest-to-move vertices to
/// switches with room. Always succeeds at the finest level (unit sizes +
/// total <= switches * capacity); at coarse levels it may leave residual
/// overflow, which projection hands to the finer level to fix.
void Rebalance(SparseQapEvaluator& eval, std::size_t capacity) {
  const CommGraph& graph = eval.graph();
  const std::size_t n = graph.vertex_count();
  const std::size_t switches = eval.load().size();
  for (std::size_t guard = 0; guard < 2 * n + 16; ++guard) {
    std::size_t overloaded = switches;
    for (std::size_t s = 0; s < switches; ++s) {
      if (eval.load()[s] > capacity &&
          (overloaded == switches || eval.load()[s] > eval.load()[overloaded])) {
        overloaded = s;
      }
    }
    if (overloaded == switches) return;
    std::size_t best_vertex = n;
    std::size_t best_target = switches;
    double best_delta = std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < n; ++v) {
      if (eval.SwitchOf(v) != overloaded) continue;
      const std::size_t size = graph.vertex_size(v);
      for (std::size_t s = 0; s < switches; ++s) {
        if (s == overloaded || eval.load()[s] + size > capacity) continue;
        const double delta = eval.MoveDelta(v, s);
        if (delta < best_delta) {
          best_delta = delta;
          best_vertex = v;
          best_target = s;
        }
      }
    }
    if (best_vertex == n) return;  // nothing fits anywhere — defer to a finer level
    eval.ApplyMove(best_vertex, best_target);
  }
}

/// Budgeted edge-local refinement: passes over the edge list trying, for
/// each cross-switch edge, the swap of its endpoints and the two single-
/// vertex moves; applies the best strictly-improving feasible option.
/// Returns applied-move count. Cost is monotonically non-increasing.
std::size_t RefineLevel(SparseQapEvaluator& eval, std::size_t capacity, std::size_t budget,
                        std::size_t rounds) {
  const CommGraph& graph = eval.graph();
  std::size_t applied = 0;
  for (std::size_t round = 0; round < rounds && applied < budget; ++round) {
    std::size_t applied_this_round = 0;
    for (const qual::CommEdge& e : graph.edges()) {
      if (applied >= budget) break;
      const std::size_t su = eval.SwitchOf(e.u);
      const std::size_t sv = eval.SwitchOf(e.v);
      if (su == sv) continue;
      const std::size_t size_u = graph.vertex_size(e.u);
      const std::size_t size_v = graph.vertex_size(e.v);

      double best_delta = -kSearchEps;
      int best_op = -1;  // 0 = swap, 1 = move u->sv, 2 = move v->su
      if (size_u == size_v || (eval.load()[su] - size_u + size_v <= capacity &&
                               eval.load()[sv] - size_v + size_u <= capacity)) {
        const double delta = eval.SwapDelta(e.u, e.v);
        if (delta < best_delta) {
          best_delta = delta;
          best_op = 0;
        }
      }
      if (eval.load()[sv] + size_u <= capacity) {
        const double delta = eval.MoveDelta(e.u, sv);
        if (delta < best_delta) {
          best_delta = delta;
          best_op = 1;
        }
      }
      if (eval.load()[su] + size_v <= capacity) {
        const double delta = eval.MoveDelta(e.v, su);
        if (delta < best_delta) {
          best_delta = delta;
          best_op = 2;
        }
      }
      if (best_op < 0) continue;
      if (best_op == 0) {
        eval.ApplySwap(e.u, e.v);
      } else if (best_op == 1) {
        eval.ApplyMove(e.u, sv);
      } else {
        eval.ApplyMove(e.v, su);
      }
      ++applied;
      ++applied_this_round;
    }
    if (applied_this_round == 0) break;
  }
  return applied;
}

std::size_t AutoCoarsenTarget(std::size_t switches, std::size_t engine_cap) {
  const std::size_t target = std::max<std::size_t>(64, std::min(2 * switches, engine_cap));
  return target;
}

}  // namespace

MultilevelResult MapMultilevel(const CommGraph& processes, const dist::DistanceTable& distances,
                               std::size_t hosts_per_switch, const MultilevelOptions& options) {
  const std::size_t switches = distances.size();
  if (switches == 0) throw ConfigError("multilevel mapping needs at least one switch");
  if (hosts_per_switch == 0) throw ConfigError("hosts per switch must be >= 1");
  if (options.seeds == 0) throw ConfigError("multilevel seeds must be >= 1");
  if (options.refine_rounds == 0) throw ConfigError("refine rounds must be >= 1");
  const std::size_t capacity = hosts_per_switch;
  if (processes.total_vertex_size() > switches * capacity) {
    throw ConfigError("workload of " + std::to_string(processes.total_vertex_size()) +
                      " processes exceeds capacity " + std::to_string(switches * capacity));
  }
  for (std::size_t v = 0; v < processes.vertex_count(); ++v) {
    if (processes.vertex_size(v) > capacity) {
      throw ConfigError("process vertex larger than a switch's host capacity");
    }
  }

  MultilevelResult result;

  // 1. Coarsen.
  CoarsenOptions coarsen;
  coarsen.target_vertices = options.coarsen_target != 0
                                ? options.coarsen_target
                                : AutoCoarsenTarget(switches, options.engine_max_vertices);
  coarsen.max_vertex_size = capacity;
  coarsen.rng_seed = options.rng_seed;
  const std::vector<Contraction> hierarchy = Coarsen(processes, coarsen);
  result.levels = hierarchy.size();
  const CommGraph& coarsest = hierarchy.empty() ? processes : hierarchy.back().coarse;
  result.coarsest_vertices = coarsest.vertex_count();

  // 2. Map the coarsest graph: greedy placement, then engine refinement.
  std::vector<std::size_t> assignment = GreedyPlace(coarsest, distances, capacity);
  {
    SparseQapEvaluator greedy_eval(coarsest, distances, assignment);
    Rebalance(greedy_eval, capacity);
    assignment = greedy_eval.switch_of_vertex();

    LevelStats stats;
    stats.vertices = coarsest.vertex_count();
    stats.edges = coarsest.edge_count();
    stats.cost_before = greedy_eval.Cost();
    stats.cost_after = stats.cost_before;

    const bool engine_feasible =
        coarsest.vertex_count() >= 2 && switches >= 2 &&
        coarsest.vertex_count() <= options.engine_max_vertices &&
        *std::max_element(greedy_eval.load().begin(), greedy_eval.load().end()) <= capacity;
    if (engine_feasible) {
      EngineOptions engine_options;
      engine_options.seeds = options.seeds;
      engine_options.max_iterations_per_seed =
          options.engine_iterations != 0
              ? options.engine_iterations
              : std::clamp<std::size_t>(2 * coarsest.vertex_count(), 20, 200);
      const SearchEngine engine("multilevel", engine_options);

      // Per-seed starts derived up front: seed 0 is the greedy placement,
      // later seeds perturb it with feasible random swaps.
      std::vector<std::vector<std::size_t>> starts(options.seeds, assignment);
      for (std::size_t k = 1; k < options.seeds; ++k) {
        std::vector<std::size_t>& start = starts[k];
        Rng rng(DeriveSeedStream(options.rng_seed, k));
        const std::size_t attempts = coarsest.vertex_count();
        for (std::size_t t = 0; t < attempts; ++t) {
          const std::size_t a = rng.NextIndex(coarsest.vertex_count());
          const std::size_t b = rng.NextIndex(coarsest.vertex_count());
          if (a == b || start[a] == start[b] ||
              coarsest.vertex_size(a) != coarsest.vertex_size(b)) {
            continue;
          }
          std::swap(start[a], start[b]);
        }
      }
      // Seed k writes only its own slot (seeds may run on the thread pool).
      std::vector<std::vector<std::size_t>> best_assignments(options.seeds);
      const std::vector<SeedRun> runs = RunSeeds(engine_options, [&](std::size_t k) {
        SparseQapObjective objective = engine.SetUpSeed(
            k, [&] { return SparseQapObjective(coarsest, distances, starts[k], capacity); });
        SeedRun run = engine.RunSeed(objective, k);
        best_assignments[k] = objective.ToAssignment(run.result.best);
        return run;
      });
      const std::size_t winner =
          BestSeed(runs, [](const SeedRun& run) { return run.best_value; });
      result.engine_seeds = runs.size();
      for (const SeedRun& run : runs) result.engine_evaluations += run.result.evaluations;
      result.engine_iterations = runs[winner].result.iterations;
      assignment = std::move(best_assignments[winner]);
      stats.cost_after = runs[winner].best_value;
      stats.moves = result.engine_iterations;
    }
    result.level_stats.push_back(stats);
  }

  // 3. Uncoarsen: project, rebalance residual overflow, refine.
  for (std::size_t j = hierarchy.size(); j-- > 0;) {
    const CommGraph& fine = j == 0 ? processes : hierarchy[j - 1].coarse;
    const Contraction& contraction = hierarchy[j];
    std::vector<std::size_t> fine_assignment(fine.vertex_count());
    for (std::size_t v = 0; v < fine.vertex_count(); ++v) {
      fine_assignment[v] = assignment[contraction.coarse_of_fine[v]];
    }
    SparseQapEvaluator eval(fine, distances, std::move(fine_assignment));
    Rebalance(eval, capacity);

    LevelStats stats;
    stats.vertices = fine.vertex_count();
    stats.edges = fine.edge_count();
    stats.cost_before = eval.Cost();
    const std::size_t budget =
        options.refine_budget != 0
            ? options.refine_budget
            : std::max<std::size_t>(fine.vertex_count(), 1024);
    stats.moves = RefineLevel(eval, capacity, budget, options.refine_rounds);
    stats.cost_after = eval.Cost();
    result.level_stats.push_back(stats);
    assignment = eval.switch_of_vertex();
  }

  // Refine in place when no coarsening happened at all (small inputs).
  if (hierarchy.empty()) {
    SparseQapEvaluator eval(processes, distances, std::move(assignment));
    Rebalance(eval, capacity);
    const std::size_t budget =
        options.refine_budget != 0
            ? options.refine_budget
            : std::max<std::size_t>(processes.vertex_count(), 1024);
    result.level_stats.back().moves += RefineLevel(eval, capacity, budget, options.refine_rounds);
    result.level_stats.back().cost_after = eval.Cost();
    assignment = eval.switch_of_vertex();
  }

  const SparseQapEvaluator final_eval(processes, distances, assignment);
  result.switch_of_process = std::move(assignment);
  result.cost = final_eval.Cost();
  result.normalized = final_eval.NormalizedCost();
  result.max_load =
      *std::max_element(final_eval.load().begin(), final_eval.load().end());
  return result;
}

}  // namespace commsched::sched::ml
