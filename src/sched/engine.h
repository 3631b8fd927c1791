// Unified search core for every mapping searcher (§4.2 and variants;
// DESIGN.md §9). A searcher is an Objective — what the current mapping is
// worth (Value), what a swap would change (SwapCost), how to finalize a
// SearchResult — plus a MultiStartSpec: how many seeds, run_seed(k) to run
// seed k from its start (derived up front), and how seed results combine.
//
// Every walk follows the one move rule of §4.2: take the swap with the
// greatest decrease; at a local minimum take the smallest increase and
// forbid its inverse for `tenure` iterations; stop once the same minimum
// has been reached `local_min_repeats` times (1: steepest descent). A
// decrease must be below -kSearchEps and an increase above +kSearchEps.
// Ties do not depend on scan order: among the candidates within kSearchEps
// of the least cost, the lexicographically smallest pair (a, b), a < b,
// wins, so gain-table noise in the last bits never decides a tie.
//
// The tabu pairs are priced first, every iteration. An objective over a
// dense evaluator (Objective::Dense) is then scanned a row at a time: a
// against every cluster above its own or, once the clusters are large
// enough, against one cluster q > c(a), skipping unpriced a row whose exact
// lower bound (qual::SwapEvaluator::RowBound) cannot reach the held
// candidates, so the walk is the one a full scan takes. Other objectives
// are priced pair by pair.
//
// Determinism (tests/test_engine_parity.cpp): all starts and RNG streams
// are derived up front, no seed shares randomness with another
// (DeriveSeedStream), and seeds combine in seed order with a strict
// kSearchEps margin, only through RunSeeds and BestSeed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/span.h"
#include "quality/quality.h"
#include "sched/search.h"

namespace commsched::sched {

/// Strict-improvement margin shared by every searcher: two objective values
/// closer than this are tied.
inline constexpr double kSearchEps = 1e-12;

/// Engine-level knobs common to all scan searchers. Mirrors the searcher
/// option structs (TabuOptions et al.), which stay the public surface.
/// SearchEngine's constructor throws ConfigError when seeds or
/// max_iterations_per_seed is 0 (a zero used to silently produce an empty
/// no-op result).
struct EngineOptions {
  std::size_t seeds = 10;
  std::size_t max_iterations_per_seed = 20;
  std::size_t local_min_repeats = 3;  // stop on reaching one minimum this often (1: descent)
  std::size_t tenure = 4;             // tabu duration of escape moves
  bool aspiration = true;             // tabu override when beating the best
  bool record_trace = false;
  bool parallel_seeds = false;        // ParallelFor over seeds
};

/// A search objective over partitions. The engine only ever talks to the
/// walk through this interface. Two adapters over qual::SwapEvaluator cover
/// every dense searcher: the F_G family (plain, λ-weighted, anchored,
/// budgeted) is one TabuObjective, and IntraSumObjective gives steepest
/// descent and the annealing walks their raw sum.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Change in Value() that swapping switches (a, b) would cause: after
  /// Apply(a, b), Value() equals the old Value() plus this cost (up to
  /// rounding). Return a non-finite value to mark the swap inadmissible
  /// (e.g. an anchored TabuObjective's migration budget).
  virtual double SwapCost(std::size_t a, std::size_t b) = 0;

  /// The dense evaluator behind SwapCost, when SwapCost(a, b) for a < b is
  /// exactly evaluator->SwapDelta(a, b) * scale with scale > 0: the engine
  /// then runs its bound-ordered scan over the evaluator. The default, no
  /// evaluator, makes the engine price every pair through SwapCost.
  struct DenseCost {
    qual::SwapEvaluator* evaluator = nullptr;
    double scale = 1.0;
  };
  [[nodiscard]] virtual DenseCost Dense() { return {}; }

  /// Current value of the mapping (used for best-so-far tracking,
  /// aspiration and local-minimum detection).
  [[nodiscard]] virtual double Value() const = 0;

  /// F_G of the current mapping, for TracePoints and trace events. May
  /// differ from Value() (e.g. the anchored objective adds a migration
  /// term; annealing walks compare raw intra-cluster sums).
  [[nodiscard]] virtual double TraceFg() const = 0;

  /// Applies the swap and updates any internal bookkeeping.
  virtual void Apply(std::size_t a, std::size_t b) = 0;

  [[nodiscard]] virtual const Partition& partition() const = 0;

  /// Fills best_fg / best_dg / best_cc (and any extra fields) of a finished
  /// seed result from result.best.
  virtual void FinalizeSeed(SearchResult& result) const = 0;
};

/// One seed's finished walk.
struct SeedRun {
  SearchResult result;         // finalized; trace in local iteration numbers
  double best_value = 0.0;     // walk-space best, for combining
  std::size_t trace_span = 0;  // iteration numbers the trace occupies
  std::uint64_t tabu_hits = 0;
  std::uint64_t aspirations = 0;
  std::uint64_t escapes = 0;
};

/// The neighbourhood-scan walk: owns candidate scanning, the tabu list and
/// aspiration, local-minimum escape/repeat-stop logic, TracePoint recording,
/// and span/trace-event emission under `algo`'s name.
class SearchEngine {
 public:
  SearchEngine(std::string algo, const EngineOptions& options);

  /// Runs one walk from the objective's current mapping. Emits
  /// search.restart / search.move / search.local_min trace events and
  /// "<algo>.seed" / "<algo>.iter" spans, and a "<algo>.finalize" span
  /// around Objective::FinalizeSeed. At the walk's end it flushes the
  /// seed's observability in one registry touch, the same for every
  /// searcher: search.<algo>.{seeds,moves,evaluations,tabu_hits,
  /// aspirations,escapes}, the seed_iters histogram and the
  /// search.seed_done trace event.
  SeedRun RunSeed(Objective& objective, std::size_t seed_index) const;

  /// Returns make(), seed `seed_index`'s objective or evaluator, built under
  /// a "<algo>.seed_setup" span: the start mapping's gain table, which no
  /// "<algo>.seed" span covers. The span has no registry timer, so an
  /// untraced run reads no clock.
  template <typename Make>
  auto SetUpSeed(std::size_t seed_index, Make&& make) const {
    const obs::Span span(setup_span_name_, "seed", seed_index);
    return make();
  }

  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const std::string& algo() const { return algo_; }

 private:
  std::string algo_;
  EngineOptions options_;
  std::string seed_span_name_;      // "<algo>.seed"
  std::string iter_span_name_;      // "<algo>.iter"
  std::string setup_span_name_;     // "<algo>.seed_setup"
  std::string finalize_span_name_;  // "<algo>.finalize"
  // The registry nodes a seed reports into, resolved by the constructor.
  obs::Timer* seed_timer_;                 // search.<algo>.seed
  std::array<obs::Counter*, 6> counters_;  // search.<algo>.{seeds,moves,...}
  obs::Histogram* seed_iters_;             // search.<algo>.seed_iters
};

/// Runs seed k (usually SearchEngine::RunSeed over a fresh Objective built
/// from the k-th start, which the caller derived up front). Must not touch
/// shared mutable state other than seed k's own slots.
using SeedRunner = std::function<SeedRun(std::size_t seed)>;
/// Comparison key of a finished seed: lower is better.
using SeedKey = std::function<double(const SeedRun&)>;

/// The one seed loop: runs run_seed(k) for k < options.seeds, on the thread
/// pool when options.parallel_seeds, and returns the runs in seed order.
[[nodiscard]] std::vector<SeedRun> RunSeeds(const EngineOptions& options,
                                            const SeedRunner& run_seed);

/// The one combine rule: the index of the first seed with the least key. A
/// later seed wins only by more than kSearchEps, so ties keep the earlier
/// seed and the winner does not depend on thread scheduling.
[[nodiscard]] std::size_t BestSeed(const std::vector<SeedRun>& runs, const SeedKey& key);

/// Multi-start driver: how seeds are run and combined.
struct MultiStartSpec {
  std::string algo;
  EngineOptions options;
  SeedRunner run_seed;
  SeedKey combine_key;
  /// Recompute best_fg/dg/cc of the winner from its partition. Searchers
  /// whose seeds finalize through Objective::FinalizeSeed set this false
  /// and keep those values (F_G^λ for an intensity-weighted Tabu).
  bool finalize_combined = true;
};

/// RunSeeds, then BestSeed's winner with iterations and evaluations summed
/// over every seed and the traces concatenated in seed order; emits
/// search.done. Identical output sequential or parallel.
SearchResult RunMultiStart(const DistanceTable& table, const MultiStartSpec& spec);

/// Independent per-restart RNG stream: restart k of a searcher seeded with
/// `base` draws from Rng(DeriveSeedStream(base, k)). Restart 0 of the
/// legacy searchers keeps the master stream instead (bit-compat).
[[nodiscard]] std::uint64_t DeriveSeedStream(std::uint64_t base, std::size_t k);

/// Uniform random unordered pair of switches in different clusters (the
/// proposal kernel of the annealing searchers).
std::pair<std::size_t, std::size_t> RandomInterClusterPair(const Partition& partition, Rng& rng);

/// Acceptance rule of the sampled-move (annealing-family) walks: Metropolis
/// acceptance with optional geometric cooling per proposal. The engine owns
/// the move loop; the searcher owns the thermodynamics.
class MetropolisPolicy {
 public:
  MetropolisPolicy(double temperature, double cooling, double floor)
      : temperature_(temperature), cooling_(cooling), floor_(floor) {}
  /// Whether to accept a proposed swap of cost `cost`. Draws one NextDouble
  /// only for uphill proposals (cost >= kEps) — the exact RNG consumption of
  /// the legacy annealing loop.
  bool Accept(double cost, Rng& rng);
  /// Called once per proposal, accepted or not: per-proposal cooling.
  void AfterProposal();
  [[nodiscard]] double temperature() const { return temperature_; }
  void set_temperature(double temperature) { temperature_ = temperature; }

 private:
  double temperature_;
  double cooling_;
  double floor_;
};

/// Outcome of a sampled-move loop.
struct SampledMoveStats {
  std::size_t proposals = 0;
  std::size_t accepts = 0;
  std::size_t uphill_accepts = 0;  // accepted with cost > kEps
};

/// The annealing-family move loop: `proposals` random inter-cluster swaps,
/// each evaluated through the objective and accepted by the policy.
/// `on_accept(proposal_index)` runs after each applied swap (best tracking,
/// trace recording — whatever the searcher needs).
SampledMoveStats RunSampledMoves(Objective& objective, MetropolisPolicy& policy,
                                 std::size_t proposals, Rng& rng,
                                 const std::function<void(std::size_t)>& on_accept);

// ---------------------------------------------------------------------------
// Objective adapters over the incremental evaluators.
// ---------------------------------------------------------------------------

/// Switches whose cluster differs from the anchor's (migration distance).
[[nodiscard]] std::size_t CountMovedFromAnchor(const Partition& partition, const Partition& anchor);

/// The dense F_G objective (§4.2): F_G, or F_G^λ under per-cluster
/// intensities (empty: all ones), plus an optional migration term against
/// `anchor`: Value() = F_G + migration_penalty * moved() / N, and a swap that
/// would push moved() past `migration_budget` costs +infinity. Plain Tabu,
/// intensity Tabu, anchored re-scheduling and the repair refinement are all
/// this one objective. With no anchor SwapCost is the scaled sum delta
/// alone; the migration bookkeeping is never touched.
class TabuObjective final : public Objective {
 public:
  TabuObjective(const DistanceTable& table, const Partition& start, const Partition* anchor,
                double migration_penalty, std::size_t migration_budget = SIZE_MAX,
                std::vector<double> cluster_intensity = {});

  double SwapCost(std::size_t a, std::size_t b) override;
  /// The evaluator and F_G scale; none with an anchor (priced per pair).
  [[nodiscard]] DenseCost Dense() override;
  [[nodiscard]] double Value() const override;
  [[nodiscard]] double TraceFg() const override;
  void Apply(std::size_t a, std::size_t b) override;
  [[nodiscard]] const Partition& partition() const override;
  /// FinalizeResult, with best_fg the F_G^λ of result.best (same bits as
  /// F_G when λ ≡ 1).
  void FinalizeSeed(SearchResult& result) const override;

  /// Switches of the current mapping whose cluster differs from the
  /// anchor's (0 without an anchor).
  [[nodiscard]] std::size_t moved() const { return moved_; }

 private:
  [[nodiscard]] int SwapDMoved(std::size_t a, std::size_t b) const;

  qual::SwapEvaluator eval_;
  const DistanceTable* table_;
  const Partition* anchor_;
  std::size_t budget_;
  double move_cost_ = 0.0;
  double fg_scale_ = 0.0;  // F_G is affine in the intra sum
  std::size_t moved_ = 0;
};

/// Raw intra-cluster sum over a borrowed SwapEvaluator. Used by steepest
/// descent and the annealing walks, whose legacy loops compared IntraSum
/// deltas directly; the evaluator outlives the adapter (annealing
/// populations keep theirs across generations).
class IntraSumObjective final : public Objective {
 public:
  IntraSumObjective(const DistanceTable& table, qual::SwapEvaluator& eval)
      : eval_(&eval), table_(&table) {}

  double SwapCost(std::size_t a, std::size_t b) override;
  [[nodiscard]] DenseCost Dense() override { return {eval_, 1.0}; }
  [[nodiscard]] double Value() const override;
  [[nodiscard]] double TraceFg() const override;
  void Apply(std::size_t a, std::size_t b) override;
  [[nodiscard]] const Partition& partition() const override;
  void FinalizeSeed(SearchResult& result) const override;

 private:
  qual::SwapEvaluator* eval_;
  const DistanceTable* table_;
};

}  // namespace commsched::sched
