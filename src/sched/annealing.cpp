#include "sched/annealing.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sched/engine.h"

namespace commsched::sched {

namespace {

/// Median |delta| over random moves — a robust temperature scale.
double CalibrateTemperature(const qual::SwapEvaluator& eval, Rng& rng) {
  std::vector<double> magnitudes;
  magnitudes.reserve(64);
  for (int i = 0; i < 64; ++i) {
    const auto [a, b] = RandomInterClusterPair(eval.partition(), rng);
    magnitudes.push_back(std::abs(eval.SwapDelta(a, b)));
  }
  std::nth_element(magnitudes.begin(), magnitudes.begin() + magnitudes.size() / 2,
                   magnitudes.end());
  const double median = magnitudes[magnitudes.size() / 2];
  return std::max(median, 1e-9);
}

/// RNG streams for `restarts` independent walks: stream 0 is the master
/// stream of `seed` (bit-compatible with the single-restart searchers),
/// streams k >= 1 are derived and never touch the master.
std::vector<Rng> RestartStreams(std::uint64_t seed, std::size_t restarts) {
  std::vector<Rng> rngs;
  rngs.reserve(restarts);
  rngs.emplace_back(seed);
  for (std::size_t k = 1; k < restarts; ++k) {
    rngs.emplace_back(DeriveSeedStream(seed, k));
  }
  return rngs;
}

/// One restart's search.<algo>.{runs,evaluations,accepts}, flushed as the
/// restart ends (a restart's iterations are its accepted moves).
void FlushRestart(const std::string& algo, const SeedRun& run) {
  obs::Registry& registry = obs::Registry::Global();
  registry.GetCounter("search." + algo + ".runs").Add(1);
  registry.GetCounter("search." + algo + ".evaluations").Add(run.result.evaluations);
  registry.GetCounter("search." + algo + ".accepts").Add(run.result.iterations);
}

}  // namespace

SearchResult SimulatedAnnealing(const DistanceTable& table,
                                const std::vector<std::size_t>& cluster_sizes,
                                const AnnealingOptions& options) {
  CS_CHECK(options.restarts >= 1, "need at least one restart");
  std::vector<Rng> rngs = RestartStreams(options.rng_seed, options.restarts);

  // Starts come from each walk's own stream, derived before any walk runs.
  std::vector<Partition> starts;
  starts.reserve(options.restarts);
  for (std::size_t k = 0; k < options.restarts; ++k) {
    starts.push_back(Partition::Random(cluster_sizes, rngs[k]));
  }

  MultiStartSpec spec;
  spec.algo = "sa";
  spec.options.seeds = options.restarts;
  spec.options.record_trace = options.record_trace;
  spec.options.parallel_seeds = options.parallel_seeds;
  // Restarts compare on their walk-space best, the raw intra-cluster sum.
  spec.combine_key = [](const SeedRun& run) { return run.best_value; };
  spec.run_seed = [&](std::size_t k) {
    Rng rng = rngs[k];
    qual::SwapEvaluator eval(table, starts[k]);

    SeedRun run;
    run.result.best = eval.partition();
    run.best_value = eval.IntraSum();

    const double initial = options.initial_temperature > 0.0 ? options.initial_temperature
                                                             : CalibrateTemperature(eval, rng);
    const double floor = initial * options.final_temperature_ratio;

    if (options.record_trace) {
      run.result.trace.push_back({0, eval.Fg(), /*is_restart=*/true});
    }
    if (obs::Tracer* tracer = obs::ActiveTracer()) {
      tracer->Emit(obs::TraceEvent("search.restart")
                       .F("algo", "sa")
                       .F("seed", k)
                       .F("fg", eval.Fg())
                       .F("temperature", initial));
    }

    MetropolisPolicy policy(initial, options.cooling, floor);
    IntraSumObjective objective(table, eval);
    const SampledMoveStats stats = RunSampledMoves(
        objective, policy, options.iterations, rng, [&](std::size_t it) {
          if (eval.IntraSum() < run.best_value - kSearchEps) {
            run.best_value = eval.IntraSum();
            run.result.best = eval.partition();
            if (obs::Tracer* tracer = obs::ActiveTracer()) {
              tracer->Emit(obs::TraceEvent("search.improved")
                               .F("algo", "sa")
                               .F("seed", k)
                               .F("iter", it + 1)
                               .F("fg", eval.Fg())
                               .F("temperature", policy.temperature()));
            }
          }
          if (options.record_trace) {
            run.result.trace.push_back({it + 1, eval.Fg(), false});
          }
        });
    run.result.iterations = stats.accepts;
    run.result.evaluations = stats.proposals;
    // Trace iterations are proposal indices (accepted moves only), so a
    // restart's trace occupies the full proposal range.
    run.trace_span = options.iterations + 1;
    FlushRestart("sa", run);
    obs::Registry::Global().GetCounter("search.sa.uphill_accepts").Add(stats.uphill_accepts);
    return run;
  };
  return RunMultiStart(table, spec);
}

namespace {

/// Capacity-respecting crossover: child copies parent A's cluster for a
/// random subset of switches (up to each cluster's capacity) and fills the
/// remaining switches greedily in parent B's cluster where possible.
Partition Crossover(const Partition& pa, const Partition& pb,
                    const std::vector<std::size_t>& cluster_sizes, Rng& rng) {
  const std::size_t n = pa.switch_count();
  std::vector<std::size_t> child(n, static_cast<std::size_t>(-1));
  std::vector<std::size_t> capacity = cluster_sizes;
  std::vector<std::size_t> order = RandomPermutation(n, rng);

  // Phase 1: inherit from A for a random half of the switches.
  for (std::size_t k = 0; k < n / 2; ++k) {
    const std::size_t s = order[k];
    const std::size_t c = pa.ClusterOf(s);
    if (capacity[c] > 0) {
      child[s] = c;
      --capacity[c];
    }
  }
  // Phase 2: inherit from B where capacity allows.
  for (std::size_t s = 0; s < n; ++s) {
    if (child[s] != static_cast<std::size_t>(-1)) continue;
    const std::size_t c = pb.ClusterOf(s);
    if (capacity[c] > 0) {
      child[s] = c;
      --capacity[c];
    }
  }
  // Phase 3: any leftovers go to whichever cluster still has room.
  for (std::size_t s = 0; s < n; ++s) {
    if (child[s] != static_cast<std::size_t>(-1)) continue;
    for (std::size_t c = 0; c < capacity.size(); ++c) {
      if (capacity[c] > 0) {
        child[s] = c;
        --capacity[c];
        break;
      }
    }
  }
  return Partition(std::move(child));
}

}  // namespace

SearchResult GeneticSimulatedAnnealing(const DistanceTable& table,
                                       const std::vector<std::size_t>& cluster_sizes,
                                       const GeneticAnnealingOptions& options) {
  CS_CHECK(options.population >= 2, "population must be at least 2");
  CS_CHECK(options.restarts >= 1, "need at least one restart");
  std::vector<Rng> rngs = RestartStreams(options.rng_seed, options.restarts);

  MultiStartSpec spec;
  spec.algo = "gsa";
  spec.options.seeds = options.restarts;
  spec.options.parallel_seeds = options.parallel_seeds;
  spec.combine_key = [](const SeedRun& run) { return run.best_value; };
  spec.run_seed = [&](std::size_t k) {
    Rng rng = rngs[k];

    struct Individual {
      qual::SwapEvaluator eval;
      explicit Individual(qual::SwapEvaluator e) : eval(std::move(e)) {}
    };
    std::vector<Individual> population;
    population.reserve(options.population);
    for (std::size_t i = 0; i < options.population; ++i) {
      population.emplace_back(qual::SwapEvaluator(table, Partition::Random(cluster_sizes, rng)));
    }

    SeedRun run;
    run.result.best = population.front().eval.partition();
    run.best_value = population.front().eval.IntraSum();

    double temperature = options.initial_temperature > 0.0
                             ? options.initial_temperature
                             : CalibrateTemperature(population.front().eval, rng);

    auto consider_best = [&](const qual::SwapEvaluator& eval) {
      if (eval.IntraSum() < run.best_value - kSearchEps) {
        run.best_value = eval.IntraSum();
        run.result.best = eval.partition();
      }
    };
    for (auto& ind : population) consider_best(ind.eval);

    // Per-proposal cooling off (cooling factor 1, floor 0): GSA cools per
    // generation instead, via set_temperature below.
    MetropolisPolicy policy(temperature, 1.0, 0.0);
    for (std::size_t gen = 0; gen < options.generations; ++gen) {
      // Mutation phase: each individual attempts SA-accepted swaps.
      policy.set_temperature(temperature);
      for (auto& ind : population) {
        IntraSumObjective objective(table, ind.eval);
        const SampledMoveStats stats =
            RunSampledMoves(objective, policy, options.moves_per_individual, rng,
                            [&](std::size_t) { consider_best(ind.eval); });
        run.result.evaluations += stats.proposals;
        run.result.iterations += stats.accepts;
      }
      // Selection phase: sort by fitness; replace the worst with elite
      // copies or crossovers of two random elites.
      std::vector<std::size_t> rank(population.size());
      for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
      std::sort(rank.begin(), rank.end(), [&](std::size_t x, std::size_t y) {
        return population[x].eval.IntraSum() < population[y].eval.IntraSum();
      });
      const std::size_t elites = std::max<std::size_t>(
          1, static_cast<std::size_t>(options.elite_fraction * population.size()));
      for (std::size_t k = 0; k < elites && k < population.size(); ++k) {
        const std::size_t victim = rank[population.size() - 1 - k];
        if (victim == rank[k]) continue;
        if (rng.NextBool(options.crossover_probability) && elites >= 2) {
          const std::size_t p1 = rank[rng.NextIndex(elites)];
          const std::size_t p2 = rank[rng.NextIndex(elites)];
          population[victim].eval.Reset(Crossover(population[p1].eval.partition(),
                                                  population[p2].eval.partition(), cluster_sizes,
                                                  rng));
        } else {
          population[victim].eval.Reset(population[rank[k]].eval.partition());
        }
        consider_best(population[victim].eval);
      }
      temperature *= options.cooling;
    }
    FlushRestart("gsa", run);
    return run;
  };
  return RunMultiStart(table, spec);
}

}  // namespace commsched::sched
