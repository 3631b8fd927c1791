// End-to-end benchmark driver for commsched.
//
//   perfbench_driver --workload experiment|schedule|served_hot|served_cold
//                    --seed N --seconds S --trace 0|1
//
// Derives the workload's inputs from --seed, performs its set-up at least
// kMinSetupRuns times and for at least kMinSetupSeconds (timing each, the
// median is reported), then runs operations until --seconds of wall time
// have elapsed, checking every output against an independent recomputation.
// The last stdout line is one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. A traced run first prints a "ledger" line holding every
// layer it measured, including layers only some workloads reach.
//
// Layer times come from spans opened here, around the calls into each
// layer, the program's own registry timers and counters (search.*,
// sweep.run, sim.run, sim.cycles) read at the start and end of the measured
// window, and the per-stage timings the daemon returns on request.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/commsched.h"

namespace {

using namespace commsched;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetupRuns = 5;
constexpr double kMinSetupSeconds = 1.0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// Distinct, reproducible sub-seeds of the run seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return SplitMix64(state) % 1000000007ULL + 1;
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

/// Totals the program keeps in its own registry: time and evaluations of
/// every search restart (any algorithm), load-sweep time, simulator run time
/// and simulated cycles.
struct RegistryTotals {
  double search_ns = 0.0;
  double sweep_ns = 0.0;
  double sim_ns = 0.0;
  double evaluations = 0.0;
  double sim_cycles = 0.0;

  static RegistryTotals Read() {
    const obs::Registry& registry = obs::Registry::Global();
    const auto matches = [](const std::string& name, const std::string& prefix,
                            const std::string& suffix) {
      return name.size() >= prefix.size() + suffix.size() && name.rfind(prefix, 0) == 0 &&
             name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    RegistryTotals totals;
    for (const auto& [name, timer] : registry.TimerValues()) {
      if (matches(name, "search.", ".seed")) totals.search_ns += static_cast<double>(timer.total_ns);
      if (name == "sweep.run") totals.sweep_ns += static_cast<double>(timer.total_ns);
      if (name == "sim.run") totals.sim_ns += static_cast<double>(timer.total_ns);
    }
    for (const auto& [name, value] : registry.CounterValues()) {
      if (matches(name, "search.", ".evaluations")) totals.evaluations += static_cast<double>(value);
      if (name == "sim.cycles") totals.sim_cycles += static_cast<double>(value);
    }
    return totals;
  }

  RegistryTotals operator-(const RegistryTotals& base) const {
    return {search_ns - base.search_ns, sweep_ns - base.sweep_ns, sim_ns - base.sim_ns,
            evaluations - base.evaluations, sim_cycles - base.sim_cycles};
  }
};

/// Per-layer observations. Set-up layers and request classes keep one
/// sample per build or request (their median is reported); measured-window
/// layers keep totals (reported per operation, so they add up to the mean
/// operation time).
struct Ledger {
  std::map<std::string, std::vector<double>> sample_ms;
  std::map<std::string, double> op_total_ms;
  std::map<std::string, double> op_total_count;

  void Sample(const std::string& layer, double ms) { sample_ms[layer].push_back(ms); }
  void AddMs(const std::string& layer, double ms) { op_total_ms[layer] += ms; }
  void AddCount(const std::string& layer, double n) { op_total_count[layer] += n; }
};

/// A pinned network model built one layer at a time, so each layer's build
/// time lands in the ledger.
struct Model {
  explicit Model(topo::SwitchGraph g) : graph(std::move(g)) {}
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  topo::SwitchGraph graph;
  std::unique_ptr<route::UpDownRouting> routing;  // holds a pointer to graph
  dist::DistanceTable table;

  static std::unique_ptr<Model> Build(const std::function<topo::SwitchGraph()>& make,
                                      bool hop_distance, Ledger& ledger) {
    Clock::time_point start = Clock::now();
    auto model = std::make_unique<Model>(make());
    ledger.Sample("topology", MsSince(start));
    if (hop_distance) {
      start = Clock::now();
      model->table = dist::DistanceTable::BuildGraphHops(model->graph);
      ledger.Sample("distance", MsSince(start));
      return model;
    }
    start = Clock::now();
    model->routing = std::make_unique<route::UpDownRouting>(model->graph);
    ledger.Sample("routing", MsSince(start));
    start = Clock::now();
    model->table = dist::DistanceTable::Build(*model->routing);
    ledger.Sample("distance", MsSince(start));
    return model;
  }
};

topo::SwitchGraph RandomNet(std::size_t switches, std::uint64_t seed) {
  topo::IrregularTopologyOptions options;
  options.switch_count = switches;
  options.seed = seed;
  return topo::GenerateIrregularTopology(options);
}

/// Outcome of the measured window.
struct Window {
  std::vector<double> op_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the operations need. Called repeatedly; the last
  /// call's state is the one measured.
  virtual void Setup(Ledger& ledger) = 0;
  /// Runs operations for `seconds` of wall time.
  virtual Window Run(double seconds, bool trace, Ledger& ledger) = 0;
};

/// Runs `op(i)` back to back until `seconds` elapse; `op` returns whether
/// its output checked out. A `check(i)`, if given, verifies op i's output
/// after its time is taken.
Window SequentialLoop(double seconds, const std::function<bool(std::size_t)>& op,
                      const std::function<bool(std::size_t)>& check = nullptr) {
  Window window;
  const Clock::time_point begin = Clock::now();
  while (window.attempted == 0 || MsSince(begin) < seconds * 1000.0) {
    const Clock::time_point start = Clock::now();
    bool ok = false;
    try {
      ok = op(window.attempted);
      window.op_ms.push_back(MsSince(start));
      ok = ok && (!check || check(window.attempted));
    } catch (const std::exception& e) {
      std::cerr << "operation " << window.attempted << " failed: " << e.what() << "\n";
    }
    if (window.op_ms.size() == window.attempted) window.op_ms.push_back(MsSince(start));
    ++window.attempted;
    if (!ok) ++window.failed;
  }
  window.seconds = MsSince(begin) / 1000.0;
  return window;
}

// ---------------------------------------------------------------------------
// experiment: the paper's evaluation (Fig. 3, random 16-switch networks) end
// to end, with a shortened load sweep: Tabu mapping OP vs random mappings,
// each simulated.
// ---------------------------------------------------------------------------
class ExperimentWorkload : public Workload {
 public:
  explicit ExperimentWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup(Ledger& ledger) override {
    // The oracle models recompute every mapping's C_c independently.
    nets_.clear();
    for (std::size_t k = 0; k < kRandomNets; ++k) {
      const std::uint64_t net_seed = SubSeed(seed_, k);
      nets_.push_back(Model::Build([net_seed] { return RandomNet(16, net_seed); }, false, ledger));
    }
  }

  Window Run(double seconds, bool, Ledger&) override {
    // One operation = one shortened experiment on the next network of the
    // pool (its load points simulated in parallel, as the CLI runs them).
    return SequentialLoop(seconds,
                          [this](std::size_t i) { return RunOne(*nets_[i % nets_.size()], i); });
  }

 private:
  // All the same size, so operation times form one mode; enough of them
  // that the median does not hang on a few networks.
  static constexpr std::size_t kRandomNets = 16;

  bool RunOne(const Model& model, std::size_t i) const {
    core::ExperimentOptions options;
    options.random_mappings = 2;
    options.rng_seed = SubSeed(seed_, 100 + i);
    options.tabu.rng_seed = SubSeed(seed_, 200 + i);
    options.tabu.max_iterations_per_seed = 20;
    options.sweep.points = 3;
    options.sweep.min_rate = 0.08;
    options.sweep.max_rate = 1.4;
    options.sweep.config.warmup_cycles = 1000;
    options.sweep.config.measure_cycles = 3000;
    const core::ExperimentResult result = core::RunPaperExperiment(model.graph, options);

    if (result.mappings.size() != 1 + options.random_mappings) return false;
    const double op_fg = result.Scheduled().fg;
    for (const core::MappingEvaluation& eval : result.mappings) {
      if (!Near(eval.fg, qual::GlobalSimilarity(model.table, eval.partition)) ||
          !Near(eval.cc, qual::ClusteringCoefficient(model.table, eval.partition))) {
        return false;
      }
      if (eval.fg < op_fg - 1e-9) return false;  // Tabu's F_G is the lowest
      if (eval.sweep.points.size() != options.sweep.points || !(eval.Throughput() > 0.0)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Model>> nets_;
};

// ---------------------------------------------------------------------------
// schedule: dense Tabu mapping search on 128-switch irregular networks, the
// size at which the O(cluster) swap scan dominates.
// ---------------------------------------------------------------------------
class ScheduleWorkload : public Workload {
 public:
  explicit ScheduleWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup(Ledger& ledger) override {
    nets_.clear();
    for (std::size_t k = 0; k < kNets; ++k) {
      const std::uint64_t net_seed = SubSeed(seed_, k);
      nets_.push_back(Model::Build([net_seed] { return RandomNet(128, net_seed); }, false, ledger));
    }
  }

  Window Run(double seconds, bool, Ledger&) override {
    const std::vector<std::size_t> sizes = svc::EvenClusterSizes(128, 4);
    return SequentialLoop(seconds, [this, &sizes](std::size_t i) {
      // One operation = kRestarts Tabu restarts run in parallel (the CLI's
      // --parallel-seeds), each with the 60-iteration budget the CLI uses at
      // this size. The repeated-local-minimum stop is disabled so every
      // restart scans the same number of neighbourhoods: the time measures
      // the search, not how soon a network's landscape ends it.
      const dist::DistanceTable& table = nets_[i % nets_.size()]->table;
      sched::TabuOptions options;
      options.seeds = kRestarts;
      options.parallel_seeds = true;
      options.max_iterations_per_seed = kIterations;
      options.local_min_repeats = kIterations + 1;
      options.rng_seed = SubSeed(seed_, 100 + i);
      const sched::SearchResult result = sched::TabuSearch(table, sizes, options);
      for (std::size_t c = 0; c < sizes.size(); ++c) {
        if (result.best.ClusterSize(c) != sizes[c]) return false;
      }
      return result.iterations == kRestarts * kIterations &&
             Near(result.best_fg, qual::GlobalSimilarity(table, result.best)) &&
             Near(result.best_cc, qual::ClusteringCoefficient(table, result.best));
    });
  }

 private:
  static constexpr std::size_t kNets = 4;
  static constexpr std::size_t kIterations = 60;
  static constexpr std::size_t kRestarts = 4;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Model>> nets_;
};

// ---------------------------------------------------------------------------
// served_hot / served_cold: requests through the scheduling daemon
// (admission queue, worker pool, model and result caches) at the two
// operating points of bench/service_load.cpp. Hot is the batch side of
// BM_ServiceBatchVsSingles, four rounds of it per operation: 32 frames of
// MixedBatch(64) on warmed caches. Cold is BM_ServiceColdModels, four
// batches of it per operation: 32 "sd" schedules on networks the daemon's
// caches do not hold, so each request solves its model.
// ---------------------------------------------------------------------------

/// Submits every line to `daemon` at once and waits for all the replies;
/// reply i answers line i.
std::vector<std::string> ServeAll(svc::Daemon& daemon, const std::vector<std::string>& lines) {
  std::mutex mutex;
  std::condition_variable done;
  std::vector<std::string> replies(lines.size());
  std::size_t pending = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    daemon.Submit(lines[i], [&, i](const std::string& reply) {
      const std::lock_guard<std::mutex> lock(mutex);
      replies[i] = reply;
      if (--pending == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return pending == 0; });
  return replies;
}

constexpr std::size_t kServedSwitches = 12;  // service_load's request size

std::string ScheduleLine(const std::string& id, std::uint64_t topo_seed, const std::string& algo,
                         bool timings) {
  return R"({"id":")" + id + R"(","op":"schedule","topology":{"kind":"random","switches":)" +
         std::to_string(kServedSwitches) + R"(,"seed":)" + std::to_string(topo_seed) +
         R"(},"apps":4,"algo":")" + algo + "\"" + (timings ? R"(,"timings":true})" : "}");
}

/// The schedule text a one-shot run prints, from an independently built
/// model; served text must match it byte for byte.
std::string ReferenceText(std::uint64_t topo_seed, const std::string& algo) {
  Ledger unused;
  const auto oracle =
      Model::Build([topo_seed] { return RandomNet(kServedSwitches, topo_seed); }, false, unused);
  svc::SearchKnobs knobs;
  knobs.algo = algo;
  return sched::FormatSearchResult(
      svc::RunMappingSearch(oracle->table, svc::EvenClusterSizes(kServedSwitches, 4), knobs));
}

/// Checks one parsed reply: "ok", and for a schedule (`text` set) the
/// served text and model-cache marker.
bool CheckEntry(const svc::JsonValue& json, const std::optional<std::string>& text,
                const std::string& model_cache) {
  const svc::JsonValue* ok = json.Find("ok");
  if (ok == nullptr || !ok->AsBool("ok")) return false;
  if (!text) return true;
  const svc::JsonValue* served = json.Find("text");
  const svc::JsonValue* marker = json.Find("model_cache");
  return served != nullptr && served->is_string() && served->AsString("text") == *text &&
         marker != nullptr && marker->is_string() && marker->AsString("model_cache") == model_cache;
}

/// Adds a reply's per-stage timings to the ledger as svc_<stage>; false
/// when the reply carries none.
bool AddTimings(const svc::JsonValue& json, Ledger& ledger) {
  const svc::JsonValue* timings = json.Find("timings");
  if (timings == nullptr) return false;
  for (const auto& [stage, ns] : timings->AsObject("timings")) {
    ledger.AddMs("svc_" + stage.substr(0, stage.size() - 3), ns.AsDouble(stage) / 1e6);
  }
  return true;
}

/// Adds the hits and lookups of both service caches since `base`.
void AddCacheCounts(const svc::SchedulingService& service, const svc::CacheStats& base,
                    Ledger& ledger) {
  const svc::CacheStats models = service.TopologyCacheStats();
  const svc::CacheStats results = service.ResultCacheStats();
  const double hits = static_cast<double>(models.hits + results.hits);
  const double lookups =
      static_cast<double>(models.hits + models.misses + results.hits + results.misses);
  ledger.AddCount("cache_hits", hits - static_cast<double>(base.hits));
  ledger.AddCount("cache_lookups", lookups - static_cast<double>(base.hits + base.misses));
}

/// Both service caches' hits and misses, summed.
svc::CacheStats CacheTotals(const svc::SchedulingService& service) {
  const svc::CacheStats models = service.TopologyCacheStats();
  const svc::CacheStats results = service.ResultCacheStats();
  return {models.hits + results.hits, models.misses + results.misses, 0, 0, 0};
}

class ServedHotWorkload : public Workload {
 public:
  explicit ServedHotWorkload(std::uint64_t seed) {
    // MixedBatch: entry i is a tabu, sd or random schedule on hot topology
    // i % 3, or (every fourth) a ping.
    const std::vector<std::string> algos = {"tabu", "sd", "random"};
    std::vector<std::uint64_t> topo_seeds;
    std::vector<std::string> texts;  // [topology * 3 + algo]
    for (std::size_t k = 0; k < kTopologies; ++k) {
      topo_seeds.push_back(SubSeed(seed, k));
      for (const std::string& algo : algos) texts.push_back(ReferenceText(topo_seeds[k], algo));
    }
    std::string entries;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (!entries.empty()) entries += ",";
      if (i % 4 == 3) {
        entries += R"({"id":"p)" + std::to_string(i) + R"(","op":"ping"})";
        expected_.emplace_back();
        continue;
      }
      const std::size_t k = i % kTopologies;
      entries += ScheduleLine("s" + std::to_string(i), topo_seeds[k], algos[i % 4], false);
      expected_.push_back(texts[k * algos.size() + i % 4]);
    }
    for (std::size_t f = 0; f < kFrames; ++f) {
      const std::string head = R"({"id":"f)" + std::to_string(f) + R"(","op":"batch")";
      frames_.push_back(head + R"(,"requests":[)" + entries + "]}");
      traced_frames_.push_back(head + R"(,"timings":true,"requests":[)" + entries + "]}");
    }
  }

  void Setup(Ledger&) override {
    daemon_.reset();  // drains the previous set-up's daemon
    service_ = std::make_unique<svc::SchedulingService>();
    daemon_ = std::make_unique<svc::Daemon>(*service_);
    // Warm the caches: the steady state is what is measured.
    for (const std::string& reply : ServeAll(*daemon_, frames_)) {
      if (reply.find(R"("ok":true)") == std::string::npos) {
        throw ConfigError("warm-up frame failed: " + reply.substr(0, 200));
      }
    }
  }

  Window Run(double seconds, bool trace, Ledger& ledger) override {
    // One round is checked in full against the oracle before the window.
    // A hot reply is a pure function of its request frame, so every later
    // untraced reply must repeat that round's bytes exactly; traced replies
    // carry timings and are checked in full.
    const std::vector<std::string> checked = ServeAll(*daemon_, frames_);
    Ledger unused;
    for (const std::string& reply : checked) {
      if (!CheckFrame(reply, false, unused)) {
        throw ConfigError("hot reply does not match the oracle: " + reply.substr(0, 200));
      }
    }
    const std::vector<std::string>& frames = trace ? traced_frames_ : frames_;
    const svc::CacheStats base = CacheTotals(*service_);
    std::vector<std::string> replies;
    const Window window = SequentialLoop(
        seconds,
        [&](std::size_t) {
          replies = ServeAll(*daemon_, frames);
          return true;
        },
        [&](std::size_t) {
          for (std::size_t f = 0; f < replies.size(); ++f) {
            if (!(trace ? CheckFrame(replies[f], true, ledger) : replies[f] == checked[f])) {
              return false;
            }
          }
          return true;
        });
    AddCacheCounts(*service_, base, ledger);
    return window;
  }

 private:
  static constexpr std::size_t kTopologies = 3;
  static constexpr std::size_t kBatch = 64;
  static constexpr std::size_t kFrames = 32;

  /// Checks one frame reply: every entry against the oracle, in order.
  bool CheckFrame(const std::string& reply, bool trace, Ledger& ledger) const {
    const svc::JsonValue json = svc::ParseJson(reply);
    const svc::JsonValue* responses = json.Find("responses");
    if (!CheckEntry(json, std::nullopt, "") || responses == nullptr || !responses->is_array()) {
      return false;
    }
    const std::vector<svc::JsonValue>& entries = responses->AsArray("responses");
    if (entries.size() != expected_.size()) return false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!CheckEntry(entries[i], expected_[i], "hit")) return false;
    }
    return !trace || AddTimings(json, ledger);
  }

  std::vector<std::string> frames_;
  std::vector<std::string> traced_frames_;
  std::vector<std::optional<std::string>> expected_;  // per entry; empty for a ping
  std::unique_ptr<svc::SchedulingService> service_;
  std::unique_ptr<svc::Daemon> daemon_;  // declared after service_: drained first
};

class ServedColdWorkload : public Workload {
 public:
  explicit ServedColdWorkload(std::uint64_t seed) {
    // A pool of distinct topologies, served kBatch at a time in turn. The
    // pool is larger than either cache, so a network has always been
    // evicted before its turn comes round again.
    for (std::size_t j = 0; j < kBatch * kBatches; ++j) {
      const std::uint64_t topo_seed = SubSeed(seed, j);
      const std::string id = "s" + std::to_string(j % kBatch);
      lines_.push_back(ScheduleLine(id, topo_seed, "sd", false));
      traced_lines_.push_back(ScheduleLine(id, topo_seed, "sd", true));
      expected_.push_back(ReferenceText(topo_seed, "sd"));
    }
  }

  void Setup(Ledger&) override {
    // Boot a service and daemon and serve their first batch: the cold start
    // itself. Each set-up takes the next batch, so their median spans the
    // pool.
    daemon_.reset();  // drains the previous set-up's daemon
    svc::ServiceOptions options;
    options.topology_cache_capacity = kCacheCapacity;
    options.result_cache_capacity = kCacheCapacity;
    service_ = std::make_unique<svc::SchedulingService>(options);
    daemon_ = std::make_unique<svc::Daemon>(*service_);
    for (const std::string& reply : ServeAll(*daemon_, Batch(next_++, false))) {
      if (reply.find(R"("ok":true)") == std::string::npos) {
        throw ConfigError("first cold request failed: " + reply);
      }
    }
  }

  Window Run(double seconds, bool trace, Ledger& ledger) override {
    const svc::CacheStats base = CacheTotals(*service_);
    std::vector<std::string> replies;
    std::size_t batch = 0;
    const Window window = SequentialLoop(
        seconds,
        [&](std::size_t) {
          batch = next_++ % kBatches;
          replies = ServeAll(*daemon_, Batch(batch, trace));
          return true;
        },
        [&](std::size_t) {
          for (std::size_t j = 0; j < replies.size(); ++j) {
            const svc::JsonValue json = svc::ParseJson(replies[j]);
            if (!CheckEntry(json, expected_[batch * kBatch + j], "miss") ||
                (trace && !AddTimings(json, ledger))) {
              return false;
            }
          }
          return true;
        });
    AddCacheCounts(*service_, base, ledger);
    return window;
  }

 private:
  static constexpr std::size_t kBatch = 32;
  // Enough batches that a few networks do not set the op-time tail.
  static constexpr std::size_t kBatches = 32;
  static constexpr std::size_t kCacheCapacity = 32;  // the default model cache's
  static_assert(kBatch * kBatches > kCacheCapacity);

  /// Pool batch `batch % kBatches`'s request lines.
  std::vector<std::string> Batch(std::size_t batch, bool trace) const {
    const std::vector<std::string>& pool = trace ? traced_lines_ : lines_;
    const auto first = pool.begin() + static_cast<std::ptrdiff_t>(batch % kBatches * kBatch);
    return {first, first + static_cast<std::ptrdiff_t>(kBatch)};
  }

  std::vector<std::string> lines_;
  std::vector<std::string> traced_lines_;
  std::vector<std::string> expected_;
  std::size_t next_ = 0;  // the next pool batch to serve
  std::unique_ptr<svc::SchedulingService> service_;
  std::unique_ptr<svc::Daemon> daemon_;  // declared after service_: drained first
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "experiment") return std::make_unique<ExperimentWorkload>(seed);
  if (name == "schedule") return std::make_unique<ScheduleWorkload>(seed);
  if (name == "served_hot") return std::make_unique<ServedHotWorkload>(seed);
  if (name == "served_cold") return std::make_unique<ServedColdWorkload>(seed);
  throw ConfigError("unknown workload '" + name + "'");
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream out;
    out << std::setprecision(12) << value;
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": " + out.str() +
                                             ", \"unit\": \"" + unit + "\"}");
  }
  [[nodiscard]] std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw ConfigError("expected --flag, got '" + key + "'");
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(required) == 0) throw ConfigError(std::string("missing --") + required);
  }
  const std::uint64_t seed = std::stoull(flags["seed"]);
  const double seconds = std::stod(flags["seconds"]);
  const bool trace = flags["trace"] == "1";
  if (!(seconds > 0.0)) throw ConfigError("--seconds must be positive");

  const std::unique_ptr<Workload> workload = MakeWorkload(flags["workload"], seed);
  Ledger ledger;
  std::vector<double> setup_s;
  const Clock::time_point setup_begin = Clock::now();
  while (setup_s.size() < kMinSetupRuns || MsSince(setup_begin) < kMinSetupSeconds * 1000.0) {
    const Clock::time_point start = Clock::now();
    workload->Setup(ledger);
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  const RegistryTotals before = RegistryTotals::Read();
  const Window window = workload->Run(seconds, trace, ledger);
  const RegistryTotals spent = RegistryTotals::Read() - before;

  const double ops = static_cast<double>(window.attempted);
  double mean_ms = 0.0;
  for (const double ms : window.op_ms) mean_ms += ms / ops;

  JsonMetrics metrics;
  if (!trace) {
    // Medians only: on a shared host the tail and the mean of operation
    // times follow the neighbours' load more than the program.
    metrics.Add("op_ms", Median(window.op_ms), "ms");
    metrics.Add("setup_s", Median(setup_s), "s");
  } else {
    // Full ledger first (informational), then the fixed per-layer set.
    JsonMetrics all;
    for (const auto& [layer, samples] : ledger.sample_ms) all.Add(layer + "_ms", Median(samples), "ms");
    for (const auto& [layer, ms] : ledger.op_total_ms) all.Add(layer + "_ms", ms / ops, "ms");
    for (const auto& [layer, n] : ledger.op_total_count) all.Add(layer, n / ops, "count");
    all.Add("search_ms", spent.search_ns / 1e6 / ops, "ms");
    all.Add("sweep_ms", spent.sweep_ns / 1e6 / ops, "ms");
    all.Add("sim_cycles", spent.sim_cycles / ops, "count");
    all.Add("sim_ms", spent.sim_ns / 1e6 / ops, "ms");
    all.Add("op_mean_ms", mean_ms, "ms");
    all.Add("op_p90_ms", Quantile(window.op_ms, 0.9), "ms");
    all.Add("ops_per_s", ops / window.seconds, "1/s");
    std::cout << "ledger " << all.Str() << "\n";

    metrics.Add("topology_ms", Median(ledger.sample_ms["topology"]), "ms");
    metrics.Add("routing_ms", Median(ledger.sample_ms["routing"]), "ms");
    metrics.Add("distance_ms", Median(ledger.sample_ms["distance"]), "ms");
    metrics.Add("search_ms", spent.search_ns / 1e6 / ops, "ms");
    metrics.Add("search_evals", spent.evaluations / ops, "count");
    metrics.Add("search_ns_per_eval",
                spent.evaluations > 0 ? spent.search_ns / spent.evaluations : 0.0, "ns");
    metrics.Add("sweep_ms", spent.sweep_ns / 1e6 / ops, "ms");
    metrics.Add("sim_ns_per_cycle", spent.sim_cycles > 0 ? spent.sim_ns / spent.sim_cycles : 0.0,
                "ns");
    for (const char* stage : {"queue", "parse", "model", "search"}) {
      const std::string layer = std::string("svc_") + stage;
      metrics.Add(layer + "_ms", ledger.op_total_ms[layer] / ops, "ms");
    }
    const double lookups = ledger.op_total_count["cache_lookups"];
    metrics.Add("cache_hit_ratio",
                lookups > 0 ? ledger.op_total_count["cache_hits"] / lookups : 0.0, "ratio");
  }
  std::cout << "{\"correct\": " << (window.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << window.attempted << ", \"failed\": " << window.failed
            << ", \"metrics\": " << metrics.Str() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
