#include "service/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "obs/prometheus.h"
#include "obs/request.h"
#include "obs/rolling.h"
#include "quality/quality.h"
#include "service/store.h"
#include "simnet/sweep.h"
#include "simnet/traffic.h"
#include "simnet/vc_routing.h"
#include "topology/serialize.h"
#include "workload/workload.h"

namespace commsched::svc {
namespace {

std::string RenderCacheStats(const CacheStats& stats) {
  JsonObjectWriter writer;
  writer.Field("hits", stats.hits);
  writer.Field("misses", stats.misses);
  writer.Field("evictions", stats.evictions);
  writer.Field("size", static_cast<std::uint64_t>(stats.size));
  writer.Field("capacity", static_cast<std::uint64_t>(stats.capacity));
  return writer.Finish();
}

/// Per-op served counters, resolved once: the per-request hot path must not
/// pay a locked registry lookup (Registry::GetCounter takes a mutex).
obs::Counter& OpCounter(RequestOp op) {
  static const auto table = [] {
    std::array<obs::Counter*, kRequestOpCount> counters{};
    for (std::size_t i = 0; i < kRequestOpCount; ++i) {
      counters[i] = &obs::Registry::Global().GetCounter(
          std::string("svc.op.") + OpName(static_cast<RequestOp>(i)));
    }
    return counters;
  }();
  return *table[static_cast<std::size_t>(op)];
}

JsonObjectWriter ResponseHead(const Request& request) {
  JsonObjectWriter writer;
  if (!request.id.empty()) writer.Field("id", request.id);
  writer.Field("ok", true);
  writer.Field("op", OpName(request.op));
  return writer;
}

}  // namespace

SchedulingService::SchedulingService(ServiceOptions options)
    : options_(std::move(options)),
      models_("topology", options_.topology_cache_capacity),
      results_("result", options_.result_cache_capacity),
      ml_results_("ml_result", options_.result_cache_capacity),
      solve_counter_(&obs::Registry::Global().GetCounter("svc.model.solve")) {
  if (!options_.store_dir.empty()) {
    store_ = std::make_unique<ArtifactStore>(options_.store_dir);
    WarmBootFromStore();
  }
}

NetworkModel::NetworkModel(topo::SwitchGraph g, route::UpDownState state, dist::DistanceTable t)
    : graph(std::move(g)), routing(graph, std::move(state)), table(std::move(t)) {
  // Searches index the table by switch id, so a table of the wrong order
  // would read out of bounds on a warm boot.
  if (table.size() != graph.switch_count()) {
    throw ConfigError("distance table has order " + std::to_string(table.size()) +
                      ", but the graph has " + std::to_string(graph.switch_count()) +
                      " switches");
  }
  for (const double value : table.values()) {
    if (!std::isfinite(value) || value < 0.0) {
      throw ConfigError("distance table holds a non-finite or negative entry");
    }
  }
}

SchedulingService::~SchedulingService() = default;

void SchedulingService::WarmBootFromStore() {
  for (const std::uint64_t key : store_->ListKeys(ArtifactKind::kModel)) {
    // Get() counts a store.hit per loaded artifact and already screens
    // header/hash corruption; decode failures and key mismatches (a renamed
    // file) are screened here so they never poison the cache.
    std::optional<std::string> payload = store_->Get(ArtifactKind::kModel, key);
    if (!payload.has_value()) continue;
    try {
      std::shared_ptr<const NetworkModel> model = DecodeModelArtifact(*payload);
      if (ModelHashOfGraph(model->graph) != key) {
        store_->NoteCorrupt();
        continue;
      }
      models_.Insert(key, std::move(model));
    } catch (const std::exception&) {
      store_->NoteCorrupt();
    }
  }
}

void SchedulingService::SetStatusProvider(std::function<DaemonStatus()> provider) {
  const std::lock_guard<std::mutex> lock(status_mutex_);
  status_provider_ = std::move(provider);
}

DaemonStatus SchedulingService::Status() const {
  std::function<DaemonStatus()> provider;
  {
    const std::lock_guard<std::mutex> lock(status_mutex_);
    provider = status_provider_;
  }
  return provider ? provider() : DaemonStatus{};
}

std::string SchedulingService::Execute(const Request& request) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  OpCounter(request.op).Add();
  try {
    return ExecuteOrThrow(request);
  } catch (const std::exception& e) {
    obs::Registry::Global().GetCounter("svc.errors").Add();
    return ErrorResponse(request.id, e.what());
  }
}

std::string SchedulingService::ExecuteOrThrow(const Request& request) {
  switch (request.op) {
    case RequestOp::kPing:
      return ResponseHead(request).Finish();
    case RequestOp::kSleep: {
      std::this_thread::sleep_for(std::chrono::milliseconds(request.sleep_ms));
      JsonObjectWriter writer = ResponseHead(request);
      writer.Field("slept_ms", request.sleep_ms);
      return writer.Finish();
    }
    case RequestOp::kStats:
      return RunStats(request);
    case RequestOp::kSchedule:
      return RunSchedule(request);
    case RequestOp::kQuality:
      return RunQuality(request);
    case RequestOp::kSimulate:
      return RunSimulate(request);
    case RequestOp::kHealth:
      return RunHealth(request);
    case RequestOp::kReady:
      return RunReady(request);
    case RequestOp::kMetrics:
      return RunMetrics(request);
    case RequestOp::kBatch:
      return RunBatch(request);
  }
  CS_UNREACHABLE("bad RequestOp");
}

namespace {

/// Frame-scoped model memo, active while RunBatch executes on its worker.
/// Keyed by the raw topology spelling — not the canonical graph text — so
/// repeated sub-requests for one topology skip even the graph construction
/// and canonical-text hashing a standalone request pays on every call.
/// Thread-local because a batch runs sequentially on one worker; the memo
/// dies with the frame, so it never needs eviction or invalidation.
struct BatchModelMemo {
  std::map<std::string, std::pair<std::uint64_t, std::shared_ptr<const NetworkModel>>> models;
  /// Rendered schedule responses minus their id head, keyed by the full
  /// schedule body (ScheduleBodyKey). Only hit/hit responses land here — see
  /// RunSchedule — so a memo copy is byte-for-byte what re-executing the
  /// repeat would render, id aside.
  std::map<std::string, std::string> schedule_responses;
};

thread_local BatchModelMemo* t_batch_memo = nullptr;

std::string TopologySpecKey(const TopologyRequest& t) {
  std::string key = t.kind;
  key += '|';
  for (const std::size_t v : {t.switches, t.hosts, t.degree, t.rows, t.cols, t.dim, t.x, t.y,
                              t.z, t.k}) {
    key += std::to_string(v);
    key += ',';
  }
  key += std::to_string(t.seed);
  key += '|';
  key += t.text;
  return key;
}

/// Everything RunSchedule's output depends on except the request id.
std::string ScheduleBodyKey(const Request& r) {
  std::string key = TopologySpecKey(r.topology);
  key += '|';
  key += std::to_string(r.apps);
  key += '|';
  key += r.search.algo;
  key += '|';
  key += r.search.seeds ? std::to_string(*r.search.seeds) : "-";
  key += '|';
  key += r.search.iterations ? std::to_string(*r.search.iterations) : "-";
  key += '|';
  key += r.search.samples ? std::to_string(*r.search.samples) : "-";
  key += '|';
  key += std::to_string(r.search.rng_seed);
  return key;
}

/// The exact bytes ResponseHead renders for a non-empty id.
std::string ResponseIdHead(const std::string& id) {
  return "{\"id\":\"" + JsonEscape(id) + "\"";
}

}  // namespace

std::string SchedulingService::RunBatch(const Request& request) {
  // Arm the frame-scoped model memo for the sub-requests below (nested
  // batches are rejected at parse time, so the memo is never re-entered).
  BatchModelMemo memo;
  t_batch_memo = &memo;
  std::string responses;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < request.batch.size(); ++i) {
    const BatchEntry& entry = request.batch[i];
    std::string line;
    if (!entry.error.empty()) {
      ++failed;
      obs::Registry::Global().GetCounter("svc.errors").Add();
      line = BatchEntryErrorResponse(entry.salvaged_id, request.id, i, entry.error);
    } else {
      // Execute (not ExecuteOrThrow): an entry that fails mid-execution
      // becomes its standalone error response, and the batch carries on.
      line = Execute(entry.request);
    }
    if (!responses.empty()) responses += ",";
    responses += line;
  }
  t_batch_memo = nullptr;
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("count", static_cast<std::uint64_t>(request.batch.size()));
  writer.Field("failed", failed);
  writer.Raw("responses", "[" + responses + "]");
  return writer.Finish();
}

std::shared_ptr<const NetworkModel> SchedulingService::GetModel(
    const TopologyRequest& topology, std::uint64_t* model_hash, bool* model_hit) {
  // Inside a batch frame, repeats of one topology spelling resolve from the
  // frame memo: no graph build, no canonical-text hash, and the marker
  // reads "hit" exactly as the standalone repeat's LRU hit would.
  std::string spec_key;
  if (t_batch_memo != nullptr) {
    spec_key = TopologySpecKey(topology);
    const auto memoized = t_batch_memo->models.find(spec_key);
    if (memoized != t_batch_memo->models.end()) {
      if (model_hash != nullptr) *model_hash = memoized->second.first;
      if (model_hit != nullptr) *model_hit = true;
      // Still touch the LRU by hash: the hit/miss counters stay truthful for
      // stats consumers, the entry's recency refreshes, and a model evicted
      // mid-frame re-seats without a re-solve. The memo's saving is the
      // skipped graph build + canonical-text hash, not this lookup.
      std::shared_ptr<const NetworkModel> kept = memoized->second.second;
      return models_.GetOrCompute(memoized->second.first,
                                  [&kept]() { return kept; });
    }
  }
  // Building the graph itself is cheap (generators and text parsing); the
  // cache exists for the routing construction and the O(N²) resistance
  // solves behind DistanceTable::Build.
  topo::SwitchGraph graph = BuildTopology(topology);
  const std::uint64_t hash = ModelHashOfGraph(graph);
  if (model_hash != nullptr) *model_hash = hash;
  bool hit = true;
  auto model = models_.GetOrCompute(
      hash, [this, &graph, hash, &hit]() -> std::shared_ptr<const NetworkModel> {
        hit = false;
        if (store_ != nullptr) {
          // Cache miss but maybe a store hit: a model evicted (or solved by
          // a previous incarnation of this daemon) restores from disk
          // without re-solving.
          if (std::optional<std::string> payload = store_->Get(ArtifactKind::kModel, hash)) {
            try {
              return DecodeModelArtifact(*payload);
            } catch (const std::exception&) {
              store_->NoteCorrupt();  // fall through to a cold solve
            }
          }
        }
        solve_counter_->Add();
        auto built = std::make_shared<const NetworkModel>(std::move(graph));
        if (store_ != nullptr) {
          store_->Put(ArtifactKind::kModel, hash, EncodeModelArtifact(*built));
        }
        return built;
      });
  if (model_hit != nullptr) *model_hit = hit;
  if (t_batch_memo != nullptr) {
    t_batch_memo->models.emplace(std::move(spec_key), std::make_pair(hash, model));
  }
  return model;
}

std::shared_ptr<const ScheduleOutcome> SchedulingService::SearchOutcome(
    const NetworkModel& model, std::uint64_t model_hash,
    const std::vector<std::size_t>& cluster_sizes, const SearchKnobs& knobs,
    bool* result_hit) {
  std::ostringstream key;
  key << "model=" << model_hash << "|sizes=" << Join(cluster_sizes, ",") << "|"
      << CanonicalSearchKnobs(knobs, model.graph.switch_count());
  bool hit = true;
  auto outcome =
      results_.GetOrCompute(HashBytes(key.str()), [&model, &cluster_sizes, &knobs, &hit]() {
        hit = false;
        auto computed = std::make_shared<ScheduleOutcome>();
        computed->result = RunMappingSearch(model.table, cluster_sizes, knobs);
        computed->text = sched::FormatSearchResult(computed->result);
        return std::shared_ptr<const ScheduleOutcome>(std::move(computed));
      });
  if (result_hit != nullptr) *result_hit = hit;
  return outcome;
}

std::string SchedulingService::RunSchedule(const Request& request) {
  if (request.multilevel) return RunScheduleMultilevel(request);
  // Frame-scoped response memo: inside a batch, a repeat of a schedule body
  // that already rendered as a pure cache read (model AND result hit) only
  // re-renders the id head. A hit/hit response is a deterministic function
  // of the body, so the memo copy is byte-identical to re-executing the
  // repeat — the markers a standalone repeat would render are hit/hit too.
  std::string memo_key;
  if (t_batch_memo != nullptr && !request.id.empty() && !request.want_timings) {
    memo_key = ScheduleBodyKey(request);
    const auto memoized = t_batch_memo->schedule_responses.find(memo_key);
    if (memoized != t_batch_memo->schedule_responses.end()) {
      return ResponseIdHead(request.id) + memoized->second;
    }
  }
  std::uint64_t model_hash = 0;
  bool model_hit = false;
  std::shared_ptr<const NetworkModel> model;
  {
    const obs::StageTimer stage(obs::RequestStage::kModel);
    model = GetModel(request.topology, &model_hash, &model_hit);
  }
  const std::vector<std::size_t> sizes =
      EvenClusterSizes(model->graph.switch_count(), request.apps);

  bool result_hit = false;
  std::shared_ptr<const ScheduleOutcome> outcome;
  {
    const obs::StageTimer stage(obs::RequestStage::kSearch);
    outcome = SearchOutcome(*model, model_hash, sizes, request.search, &result_hit);
  }

  const obs::StageTimer serialize_stage(obs::RequestStage::kSerialize);
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("partition", outcome->result.best.ToString());
  writer.Field("fg", outcome->result.best_fg);
  writer.Field("dg", outcome->result.best_dg);
  writer.Field("cc", outcome->result.best_cc);
  writer.Field("moves", static_cast<std::uint64_t>(outcome->result.iterations));
  writer.Field("evaluations", static_cast<std::uint64_t>(outcome->result.evaluations));
  writer.Field("model_cache", model_hit ? "hit" : "miss");
  writer.Field("result_cache", result_hit ? "hit" : "miss");
  writer.Field("text", outcome->text);
  std::string line = writer.Finish();
  if (!memo_key.empty() && model_hit && result_hit) {
    const std::string head = ResponseIdHead(request.id);
    if (line.compare(0, head.size(), head) == 0) {
      t_batch_memo->schedule_responses.emplace(std::move(memo_key),
                                               line.substr(head.size()));
    }
  }
  return line;
}

std::string SchedulingService::RunScheduleMultilevel(const Request& request) {
  const MultilevelKnobs& knobs = request.multilevel_knobs;
  const std::string canonical = CanonicalMultilevelKnobs(knobs);  // validates

  // "hops" reads only the graph: its table is a per-compute BFS, so it
  // neither looks up nor builds the model (no routing, no resistance solve).
  // Both kinds key the memo on the same model hash.
  const bool hops = knobs.distance == "hops";
  std::uint64_t model_hash = 0;
  bool model_hit = false;
  std::shared_ptr<const NetworkModel> model;
  std::optional<topo::SwitchGraph> hops_graph;
  {
    const obs::StageTimer stage(obs::RequestStage::kModel);
    if (hops) {
      hops_graph = BuildTopology(request.topology);
      model_hash = ModelHashOfGraph(*hops_graph);
    } else {
      model = GetModel(request.topology, &model_hash, &model_hit);
    }
  }
  const topo::SwitchGraph& graph = hops ? *hops_graph : model->graph;

  bool result_hit = true;
  std::shared_ptr<const MultilevelOutcome> outcome;
  {
    const obs::StageTimer stage(obs::RequestStage::kSearch);
    const std::string key = "model=" + std::to_string(model_hash) + "|" + canonical;
    outcome = ml_results_.GetOrCompute(HashBytes(key), [&]() {
      result_hit = false;
      auto computed = std::make_shared<MultilevelOutcome>();
      const dist::DistanceTable hops_table =
          hops ? dist::DistanceTable::BuildGraphHops(graph) : dist::DistanceTable();
      const dist::DistanceTable& table = hops ? hops_table : model->table;
      computed->result = RunMultilevelSchedule(table, graph.hosts_per_switch(), knobs);
      computed->text = FormatMultilevelText(computed->result, graph.switch_count(),
                                            graph.hosts_per_switch());
      return std::shared_ptr<const MultilevelOutcome>(std::move(computed));
    });
  }

  const obs::StageTimer serialize_stage(obs::RequestStage::kSerialize);
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("multilevel", true);
  writer.Field("procs", static_cast<std::uint64_t>(outcome->result.switch_of_process.size()));
  writer.Field("cost", outcome->result.cost);
  writer.Field("normalized", outcome->result.normalized);
  writer.Field("levels", static_cast<std::uint64_t>(outcome->result.levels));
  writer.Field("coarsest", static_cast<std::uint64_t>(outcome->result.coarsest_vertices));
  writer.Field("max_load", static_cast<std::uint64_t>(outcome->result.max_load));
  if (!hops) writer.Field("model_cache", model_hit ? "hit" : "miss");
  writer.Field("result_cache", result_hit ? "hit" : "miss");
  writer.Field("text", outcome->text);
  return writer.Finish();
}

std::string SchedulingService::RunQuality(const Request& request) {
  bool model_hit = false;
  std::shared_ptr<const NetworkModel> model;
  {
    const obs::StageTimer stage(obs::RequestStage::kModel);
    model = GetModel(request.topology, nullptr, &model_hit);
  }
  if (request.partition.size() != model->graph.switch_count()) {
    throw ConfigError("partition names " + std::to_string(request.partition.size()) +
                      " switches, topology has " +
                      std::to_string(model->graph.switch_count()));
  }
  const qual::Partition partition(request.partition);  // validates contiguity
  if (partition.cluster_count() < 2 || partition.IntraPairCount() == 0) {
    throw ConfigError("partition " + partition.ToString() +
                      " needs at least two clusters, one of them with two switches");
  }
  double fg = 0.0;
  double dg = 0.0;
  {
    const obs::StageTimer stage(obs::RequestStage::kSearch);
    fg = qual::GlobalSimilarity(model->table, partition);
    dg = qual::GlobalDissimilarity(model->table, partition);
  }

  const obs::StageTimer serialize_stage(obs::RequestStage::kSerialize);
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("partition", partition.ToString());
  writer.Field("fg", fg);
  writer.Field("dg", dg);
  writer.Field("cc", dg / fg);
  writer.Field("model_cache", model_hit ? "hit" : "miss");
  return writer.Finish();
}

std::string SchedulingService::RunSimulate(const Request& request) {
  std::uint64_t model_hash = 0;
  bool model_hit = false;
  std::shared_ptr<const NetworkModel> model;
  {
    const obs::StageTimer stage(obs::RequestStage::kModel);
    model = GetModel(request.topology, &model_hash, &model_hit);
  }
  const topo::SwitchGraph& graph = model->graph;
  const std::vector<std::size_t> sizes = EvenClusterSizes(graph.switch_count(), request.apps);
  const work::Workload workload =
      work::Workload::Uniform(request.apps, graph.host_count() / request.apps);
  const faults::FaultPlan* plan = request.fault_plan ? &*request.fault_plan : nullptr;
  if (plan != nullptr) plan->ValidateFor(graph);

  // The "op" mapping reuses the memoized default search — a repeat simulate
  // on a known topology skips both the resistance solve and the search. The
  // search stage covers mapping choice plus the sweep itself.
  const auto [partition, result] = [&] {
    const obs::StageTimer stage(obs::RequestStage::kSearch);
    qual::Partition chosen = [&] {
      if (request.mapping == "op") {
        SearchKnobs knobs;
        knobs.parallel_seeds = request.search.parallel_seeds;
        return SearchOutcome(*model, model_hash, sizes, knobs, nullptr)->result.best;
      }
      return ChooseMappingPartition(request.mapping, sizes, request.mapping_seed);
    }();
    const auto mapping = work::ProcessMapping::FromPartition(graph, workload, chosen);
    const sim::TrafficPattern pattern(graph, workload, mapping);

    sim::SweepOptions sweep;
    sweep.points = request.points;
    sweep.min_rate = request.min_rate;
    sweep.max_rate = request.max_rate;
    sweep.config.virtual_channels = request.vcs;
    sweep.config.adaptive_routing = request.adaptive;
    sweep.config.warmup_cycles = request.warmup;
    sweep.config.measure_cycles = request.measure;
    sweep.config.telemetry_sample_cycles = request.telemetry;
    sweep.config.fault_plan = plan;
    sweep.config.reconfig_downtime_cycles = request.reconfig_downtime;
    if (request.duato) {
      sweep.config.virtual_channels = std::max<std::size_t>(2, request.vcs);
      const sim::DuatoFullyAdaptivePolicy policy(graph, sweep.config.virtual_channels);
      sim::SweepResult swept = sim::RunLoadSweep(graph, policy, pattern, sweep);
      return std::make_pair(std::move(chosen), std::move(swept));
    }
    sim::SweepResult swept = sim::RunLoadSweep(graph, model->routing, pattern, sweep);
    return std::make_pair(std::move(chosen), std::move(swept));
  }();

  const obs::StageTimer serialize_stage(obs::RequestStage::kSerialize);
  std::string points;
  for (const sim::SweepPoint& p : result.points) {
    JsonObjectWriter point;
    point.Field("offered", p.offered_rate);
    point.Field("accepted", p.metrics.accepted_flits_per_switch_cycle);
    point.Field("latency", p.metrics.avg_latency_cycles);
    point.Field("saturated", p.metrics.Saturated());
    if (!points.empty()) points += ",";
    points += point.Finish();
  }

  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("mapping", partition.ToString());
  writer.Field("throughput", result.Throughput());
  writer.Raw("points", "[" + points + "]");
  writer.Field("model_cache", model_hit ? "hit" : "miss");
  writer.Field("text", FormatSimulateText(partition, result, plan));
  return writer.Finish();
}

std::string SchedulingService::RunStats(const Request& request) {
  if (request.stats_reset && !options_.allow_stats_reset) {
    throw ConfigError("stats reset is disabled (start with --allow-stats-reset)");
  }
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("executed", executed());
  writer.Raw("topology_cache", RenderCacheStats(models_.Stats()));
  writer.Raw("result_cache", RenderCacheStats(results_.Stats()));

  if (store_ != nullptr) {
    const StoreStats store = store_->Stats();
    JsonObjectWriter section;
    section.Field("dir", store_->dir());
    section.Field("hits", store.hits);
    section.Field("misses", store.misses);
    section.Field("writes", store.writes);
    section.Field("corrupt", store.corrupt);
    writer.Raw("store", section.Finish());
  }

  {
    // Per-op request counts ("hottest ops" in the top dashboard).
    JsonObjectWriter ops;
    for (const auto& [name, value] : obs::Registry::Global().CounterValues()) {
      if (StartsWith(name, "svc.op.")) ops.Field(name.substr(7), value);
    }
    writer.Raw("ops", ops.Finish());
  }

  {
    JsonObjectWriter histograms;
    for (const auto& [name, snap] : obs::Registry::Global().HistogramValues()) {
      JsonObjectWriter entry;
      entry.Field("count", snap.count);
      entry.Field("min", snap.min);
      entry.Field("max", snap.max);
      entry.Field("mean", snap.Mean());
      entry.Field("p50", snap.Percentile(0.50));
      entry.Field("p90", snap.Percentile(0.90));
      entry.Field("p99", snap.Percentile(0.99));
      histograms.Raw(name, entry.Finish());
    }
    writer.Raw("histograms", histograms.Finish());
  }

  {
    const std::uint64_t now_ns = obs::NowNanos();
    const obs::RollingRegistry& rolling = obs::RollingRegistry::Global();
    JsonObjectWriter rates;
    for (const auto& [name, rate] : rolling.CounterRates(now_ns)) {
      rates.Field(name, rate);
    }
    JsonObjectWriter windows;
    for (const auto& [name, snap] : rolling.HistogramWindows(now_ns)) {
      JsonObjectWriter window;
      window.Field("count", snap.count);
      window.Field("p50", snap.Percentile(0.50));
      window.Field("p99", snap.Percentile(0.99));
      windows.Raw(name, window.Finish());
    }
    JsonObjectWriter views;
    views.Raw("rates", rates.Finish());
    views.Raw("windows", windows.Finish());
    writer.Raw("rolling", views.Finish());
  }

  const DaemonStatus status = Status();
  if (status.attached) {
    JsonObjectWriter queue;
    queue.Field("depth", status.queue_depth);
    queue.Field("running", status.running);
    queue.Field("workers", status.workers);
    queue.Field("draining", status.draining);
    writer.Raw("queue", queue.Finish());
    std::string slow;
    for (const std::string& record : status.slow_tail) {
      if (!slow.empty()) slow += ",";
      slow += record;
    }
    writer.Raw("slow", "[" + slow + "]");
  }

  if (request.stats_reset) {
    // The snapshot above was rendered first: the reset response is the last
    // complete view of the counters it zeroes.
    obs::Registry::Global().ResetAll();
    writer.Field("reset", true);
  }
  return writer.Finish();
}

std::string SchedulingService::RunHealth(const Request& request) {
  const DaemonStatus status = Status();
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("status", status.draining ? "draining" : "ok");
  writer.Field("executed", executed());
  if (status.attached) writer.Field("served", status.served);
  return writer.Finish();
}

std::string SchedulingService::RunReady(const Request& request) {
  const DaemonStatus status = Status();
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("ready", status.attached ? !status.draining : true);
  writer.Field("draining", status.draining);
  return writer.Finish();
}

std::string SchedulingService::MetricsText() const {
  obs::PrometheusOptions options;
  options.rolling = &obs::RollingRegistry::Global();
  const DaemonStatus status = Status();
  if (status.attached) {
    options.extra_gauges["svc.queue_depth"] = static_cast<double>(status.queue_depth);
    options.extra_gauges["svc.running"] = static_cast<double>(status.running);
    options.extra_gauges["svc.workers"] = static_cast<double>(status.workers);
    options.extra_gauges["svc.draining"] = status.draining ? 1.0 : 0.0;
    options.extra_gauges["svc.served"] = static_cast<double>(status.served);
  }
  return obs::RenderPrometheus(obs::Registry::Global(), options);
}

std::string SchedulingService::RunMetrics(const Request& request) {
  JsonObjectWriter writer = ResponseHead(request);
  writer.Field("format", "prometheus");
  writer.Field("text", MetricsText());
  return writer.Finish();
}

}  // namespace commsched::svc
