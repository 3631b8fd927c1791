#include "service/service.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "core/experiment.h"
#include "obs/prometheus.h"
#include "obs/rolling.h"
#include "obs/span.h"
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

/// simulate and experiment place processes on hosts, so a network without
/// any is bad input, not a workload contract violation.
void RequireHosts(const topo::SwitchGraph& graph) {
  if (graph.hosts_per_switch() == 0) throw ConfigError("the network has no hosts to simulate");
}

/// Appends a response's first members, unbraced: `"id":...,"ok":true,"op":...`
/// (no id when the request has none).
void AppendHeadMembers(std::string& out, const Request& request) {
  if (!request.id.empty()) {
    out += "\"id\":\"";
    AppendJsonEscaped(out, request.id);
    out += "\",";
  }
  out += "\"ok\":true,\"op\":\"";
  out += OpName(request.op);
  out += '"';
}

JsonObjectWriter ResponseHead(const Request& request) {
  std::string body;
  AppendHeadMembers(body, request);
  return JsonObjectWriter(std::move(body));
}

/// Appends the bytes ResponseHead renders, without the closing brace.
void AppendResponseHead(std::string& out, const Request& request) {
  out += '{';
  AppendHeadMembers(out, request);
}

void AppendUint(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, end);
}

/// A schedule reply: the head, the outcome's rendered fields, the cache
/// markers and the rendered text.
void AppendScheduleReply(std::string& out, const Request& request, const ScheduleOutcome& outcome,
                         bool model_hit, bool result_hit) {
  AppendResponseHead(out, request);
  out += outcome.fields;
  out += model_hit ? R"(,"model_cache":"hit")" : R"(,"model_cache":"miss")";
  out += result_hit ? R"(,"result_cache":"hit")" : R"(,"result_cache":"miss")";
  out += outcome.text_field;
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
  std::string out;
  ExecuteInto(request, out);
  return out;
}

void SchedulingService::ExecuteInto(const Request& request, std::string& out) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  OpCounter(request.op).Add();
  const std::size_t start = out.size();
  try {
    ExecuteOrThrow(request, out);
  } catch (const std::exception& e) {
    out.resize(start);
    obs::Registry::Global().GetCounter("svc.errors").Add();
    out += ErrorResponse(request.id, e.what());
  }
}

void SchedulingService::ExecuteOrThrow(const Request& request, std::string& out) {
  switch (request.op) {
    case RequestOp::kPing:
      AppendResponseHead(out, request);
      out += '}';
      return;
    case RequestOp::kSleep: {
      std::this_thread::sleep_for(std::chrono::milliseconds(request.sleep_ms));
      JsonObjectWriter writer = ResponseHead(request);
      writer.Field("slept_ms", request.sleep_ms);
      out += writer.Finish();
      return;
    }
    case RequestOp::kSchedule: return RunSchedule(request, out);
    case RequestOp::kBatch: return RunBatch(request, out);
    case RequestOp::kStats: out += RunStats(request); return;
    case RequestOp::kQuality: out += RunQuality(request); return;
    case RequestOp::kSimulate: out += RunSimulate(request); return;
    case RequestOp::kExperiment: out += RunExperiment(request); return;
    case RequestOp::kHealth: out += RunHealth(request); return;
    case RequestOp::kReady: out += RunReady(request); return;
    case RequestOp::kMetrics: out += RunMetrics(request); return;
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
  std::map<std::string, std::pair<std::uint64_t, std::shared_ptr<const NetworkModel>>,
           std::less<>>
      models;
  /// Outcomes whose schedule rendered as a pure cache read (model AND
  /// result hit), keyed by the full schedule body (the topology spec key
  /// plus AppendScheduleKnobsKey). A repeat renders hit/hit from the
  /// outcome: byte for byte what re-executing it would render.
  std::map<std::string, std::shared_ptr<const ScheduleOutcome>, std::less<>> schedules;
};

thread_local BatchModelMemo* t_batch_memo = nullptr;

/// Arms the frame memo for one RunBatch; nested batches are rejected at
/// parse time, so it is never re-entered.
class BatchMemoScope {
 public:
  BatchMemoScope() { t_batch_memo = &memo_; }
  ~BatchMemoScope() { t_batch_memo = nullptr; }
  BatchMemoScope(const BatchMemoScope&) = delete;
  BatchMemoScope& operator=(const BatchMemoScope&) = delete;

 private:
  BatchModelMemo memo_;
};

/// Appends the topology's raw spelling: the frame memo's model key.
void AppendTopologySpecKey(std::string& key, const TopologyRequest& t) {
  key += t.kind;
  key += '|';
  for (const std::size_t v : {t.switches, t.hosts, t.degree, t.rows, t.cols, t.dim, t.x, t.y,
                              t.z, t.k}) {
    AppendUint(key, v);
    key += ',';
  }
  AppendUint(key, t.seed);
  key += '|';
  key += t.text;
}

/// Completes a topology spec key into the schedule body key: everything
/// RunSchedule's output depends on except the request id.
void AppendScheduleKnobsKey(std::string& key, const Request& r) {
  const auto optional = [&key](const std::optional<std::size_t>& value) {
    key += '|';
    if (value) {
      AppendUint(key, *value);
    } else {
      key += '-';
    }
  };
  key += '|';
  AppendUint(key, r.apps);
  key += '|';
  key += r.search.algo;
  optional(r.search.seeds);
  optional(r.search.iterations);
  optional(r.search.samples);
  key += '|';
  AppendUint(key, r.search.rng_seed);
}

/// Renders the reply fields of a computed search (ScheduleOutcome).
std::shared_ptr<const ScheduleOutcome> RenderOutcome(sched::SearchResult result) {
  auto outcome = std::make_shared<ScheduleOutcome>();
  JsonObjectWriter fields;
  fields.Field("partition", result.best.ToString());
  fields.Field("fg", result.best_fg);
  fields.Field("dg", result.best_dg);
  fields.Field("cc", result.best_cc);
  fields.Field("moves", static_cast<std::uint64_t>(result.iterations));
  fields.Field("evaluations", static_cast<std::uint64_t>(result.evaluations));
  outcome->fields = "," + fields.body();
  JsonObjectWriter text;
  text.Field("text", sched::FormatSearchResult(result));
  outcome->text_field = "," + text.body() + "}";
  outcome->result = std::move(result);
  return outcome;
}

}  // namespace

void SchedulingService::RunBatch(const Request& request, std::string& out) {
  const BatchMemoScope memo;
  const auto failed = static_cast<std::uint64_t>(
      std::count_if(request.batch.begin(), request.batch.end(),
                    [](const BatchEntry& entry) { return !entry.error.empty(); }));
  // A schedule reply on a small network is about 400 bytes. The cap keeps
  // a 1 MiB frame of tiny entries from reserving far more than it uses.
  out.reserve(out.size() + 512 * std::min<std::size_t>(request.batch.size(), 256));
  AppendResponseHead(out, request);
  out += ",\"count\":";
  AppendUint(out, request.batch.size());
  out += ",\"failed\":";
  AppendUint(out, failed);
  out += ",\"responses\":[";
  for (std::size_t i = 0; i < request.batch.size(); ++i) {
    const BatchEntry& entry = request.batch[i];
    if (i > 0) out += ',';
    if (!entry.error.empty()) {
      obs::Registry::Global().GetCounter("svc.errors").Add();
      out += BatchEntryErrorResponse(entry.salvaged_id, request.id, i, entry.error);
    } else {
      // ExecuteInto (not ExecuteOrThrow): an entry that fails mid-execution
      // becomes its standalone error response, and the batch carries on.
      ExecuteInto(entry.request, out);
    }
  }
  out += "]}";
}

std::shared_ptr<const NetworkModel> SchedulingService::GetModel(
    const TopologyRequest& topology, std::uint64_t* model_hash, bool* model_hit) {
  std::string spec_key;
  if (t_batch_memo != nullptr) AppendTopologySpecKey(spec_key, topology);
  return ModelOf(topology, spec_key, model_hash, model_hit);
}

std::shared_ptr<const NetworkModel> SchedulingService::ModelOf(const TopologyRequest& topology,
                                                               std::string_view spec_key,
                                                               std::uint64_t* model_hash,
                                                               bool* model_hit) {
  // Inside a batch frame, repeats of one topology spelling resolve from the
  // frame memo: no graph build, no canonical-text hash, and the marker
  // reads "hit" exactly as the standalone repeat's LRU hit would.
  if (t_batch_memo != nullptr) {
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
    t_batch_memo->models.emplace(spec_key, std::make_pair(hash, model));
  }
  return model;
}

std::shared_ptr<const ScheduleOutcome> SchedulingService::SearchOutcome(
    const NetworkModel& model, std::uint64_t model_hash,
    const std::vector<std::size_t>& cluster_sizes, const SearchKnobs& knobs,
    bool* result_hit) {
  std::string key = "model=";
  AppendUint(key, model_hash);
  key += "|sizes=";
  for (std::size_t i = 0; i < cluster_sizes.size(); ++i) {
    if (i > 0) key += ',';
    AppendUint(key, cluster_sizes[i]);
  }
  key += '|';
  key += CanonicalSearchKnobs(knobs, model.graph.switch_count());
  bool hit = true;
  auto outcome = results_.GetOrCompute(HashBytes(key), [&model, &cluster_sizes, &knobs, &hit]() {
    hit = false;
    return RenderOutcome(RunMappingSearch(model.table, cluster_sizes, knobs));
  });
  if (result_hit != nullptr) *result_hit = hit;
  return outcome;
}

void SchedulingService::RunSchedule(const Request& request, std::string& out) {
  if (request.multilevel) {
    out += RunScheduleMultilevel(request);
    return;
  }
  // Inside a batch the frame memo keys are built once: the topology spec
  // key, then (completed with the knobs) the schedule body key. A repeat of
  // a body that already rendered as a pure cache read (model AND result
  // hit) renders from the memoized outcome with no lookup at all; the
  // markers a standalone repeat would render are hit/hit too.
  std::string key;
  std::size_t spec_size = 0;
  const bool memoize = t_batch_memo != nullptr && !request.want_timings;
  if (t_batch_memo != nullptr) {
    AppendTopologySpecKey(key, request.topology);
    spec_size = key.size();
  }
  if (memoize) {
    AppendScheduleKnobsKey(key, request);
    const auto memoized = t_batch_memo->schedules.find(key);
    if (memoized != t_batch_memo->schedules.end()) {
      AppendScheduleReply(out, request, *memoized->second, true, true);
      return;
    }
  }
  std::uint64_t model_hash = 0;
  bool model_hit = false;
  std::shared_ptr<const NetworkModel> model;
  {
    const obs::Span stage("svc.model", obs::RequestStage::kModel);
    model = ModelOf(request.topology, std::string_view(key).substr(0, spec_size), &model_hash,
                    &model_hit);
  }
  const std::vector<std::size_t> sizes =
      EvenClusterSizes(model->graph.switch_count(), request.apps);

  bool result_hit = false;
  std::shared_ptr<const ScheduleOutcome> outcome;
  {
    const obs::Span stage("svc.search", obs::RequestStage::kSearch);
    outcome = SearchOutcome(*model, model_hash, sizes, request.search, &result_hit);
  }

  const obs::Span serialize_stage("svc.serialize", obs::RequestStage::kSerialize);
  AppendScheduleReply(out, request, *outcome, model_hit, result_hit);
  if (memoize && model_hit && result_hit) {
    t_batch_memo->schedules.emplace(std::move(key), std::move(outcome));
  }
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
    const obs::Span stage("svc.model", obs::RequestStage::kModel);
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
    const obs::Span stage("svc.search", obs::RequestStage::kSearch);
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

  const obs::Span serialize_stage("svc.serialize", obs::RequestStage::kSerialize);
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
    const obs::Span stage("svc.model", obs::RequestStage::kModel);
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
    const obs::Span stage("svc.search", obs::RequestStage::kSearch);
    fg = qual::GlobalSimilarity(model->table, partition);
    dg = qual::GlobalDissimilarity(model->table, partition);
  }

  const obs::Span serialize_stage("svc.serialize", obs::RequestStage::kSerialize);
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
    const obs::Span stage("svc.model", obs::RequestStage::kModel);
    model = GetModel(request.topology, &model_hash, &model_hit);
  }
  const topo::SwitchGraph& graph = model->graph;
  const std::vector<std::size_t> sizes = EvenClusterSizes(graph.switch_count(), request.apps);
  RequireHosts(graph);
  const work::Workload workload =
      work::Workload::Uniform(request.apps, graph.host_count() / request.apps);
  const faults::FaultPlan* plan = request.fault_plan ? &*request.fault_plan : nullptr;
  if (plan != nullptr) plan->ValidateFor(graph);

  // The "op" mapping reuses the memoized default search — a repeat simulate
  // on a known topology skips both the resistance solve and the search. The
  // search stage covers mapping choice plus the sweep itself.
  const auto [partition, result] = [&] {
    const obs::Span stage("svc.search", obs::RequestStage::kSearch);
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

  const obs::Span serialize_stage("svc.serialize", obs::RequestStage::kSerialize);
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

std::string SchedulingService::RunExperiment(const Request& request) {
  // RunPaperExperiment solves its own routing and distance table, microseconds
  // against its sweeps, so like a "hops" request this skips the model cache.
  const topo::SwitchGraph graph = [&] {
    const obs::Span stage("svc.model", obs::RequestStage::kModel);
    return BuildTopology(request.topology);
  }();
  // Typed errors for what the experiment would reject as contract violations.
  RequireHosts(graph);
  if (request.apps < 2) {
    throw ConfigError("experiment needs at least two applications, got " +
                      std::to_string(request.apps));
  }
  static_cast<void>(EvenClusterSizes(graph.switch_count(), request.apps));
  if (request.randoms < 1) {
    throw ConfigError("experiment needs at least one random mapping, got " +
                      std::to_string(request.randoms));
  }
  core::ExperimentOptions options;
  options.applications = request.apps;
  options.random_mappings = request.randoms;
  options.rng_seed = request.mapping_seed;
  options.tabu.max_iterations_per_seed = sched::DefaultTabuIterations(graph.switch_count());
  options.tabu.parallel_seeds = request.search.parallel_seeds;
  options.sweep.points = request.points;
  options.sweep.min_rate = request.min_rate;
  options.sweep.max_rate = request.max_rate;
  options.sweep.config.warmup_cycles = request.warmup;
  options.sweep.config.measure_cycles = request.measure;
  const core::ExperimentResult result = [&] {
    const obs::Span stage("svc.search", obs::RequestStage::kSearch);
    return core::RunPaperExperiment(graph, options);
  }();

  const obs::Span serialize_stage("svc.serialize", obs::RequestStage::kSerialize);
  JsonObjectWriter writer = ResponseHead(request);
  if (result.BestRandomThroughput() > 0.0) {
    writer.Field("improvement", result.ThroughputImprovement());
  }
  writer.Field("text", FormatExperimentText(result));
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
