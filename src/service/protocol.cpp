#include "service/protocol.h"

#include <bit>
#include <initializer_list>
#include <iterator>
#include <set>
#include <string_view>

#include "common/json.h"
#include "service/cache.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "topology/serialize.h"

namespace commsched::svc {
namespace {

RequestOp ParseOp(const std::string& name) {
  if (name == "ping") return RequestOp::kPing;
  if (name == "stats") return RequestOp::kStats;
  if (name == "sleep") return RequestOp::kSleep;
  if (name == "schedule") return RequestOp::kSchedule;
  if (name == "quality") return RequestOp::kQuality;
  if (name == "simulate") return RequestOp::kSimulate;
  if (name == "experiment") return RequestOp::kExperiment;
  if (name == "health") return RequestOp::kHealth;
  if (name == "ready") return RequestOp::kReady;
  if (name == "metrics") return RequestOp::kMetrics;
  if (name == "batch") return RequestOp::kBatch;
  throw ConfigError("unknown op '" + name +
                    "' (ping|stats|sleep|schedule|quality|simulate|experiment|health|ready|"
                    "metrics|batch)");
}

}  // namespace

TopologyRequest ParseTopology(const JsonValue& value) {
  TopologyRequest topology;
  for (const auto& [key, member] : value.AsObject("topology")) {
    const std::string context = "topology." + key;
    if (key == "kind") {
      topology.kind = member.AsString(context);
    } else if (key == "switches") {
      topology.switches = member.AsUint(context);
    } else if (key == "hosts") {
      topology.hosts = member.AsUint(context);
    } else if (key == "degree") {
      topology.degree = member.AsUint(context);
    } else if (key == "seed") {
      topology.seed = member.AsUint(context);
    } else if (key == "rows") {
      topology.rows = member.AsUint(context);
    } else if (key == "cols") {
      topology.cols = member.AsUint(context);
    } else if (key == "dim") {
      topology.dim = member.AsUint(context);
    } else if (key == "x") {
      topology.x = member.AsUint(context);
    } else if (key == "y") {
      topology.y = member.AsUint(context);
    } else if (key == "z") {
      topology.z = member.AsUint(context);
    } else if (key == "k") {
      topology.k = member.AsUint(context);
    } else if (key == "text") {
      topology.text = member.AsString(context);
    } else {
      throw ConfigError("unknown topology key '" + key + "'");
    }
  }
  return topology;
}

namespace {

std::vector<std::size_t> ParsePartition(const JsonValue& value) {
  std::vector<std::size_t> clusters;
  for (const JsonValue& item : value.AsArray("partition")) {
    clusters.push_back(item.AsUint("partition entry"));
  }
  return clusters;
}

}  // namespace

const char* OpName(RequestOp op) {
  switch (op) {
    case RequestOp::kPing: return "ping";
    case RequestOp::kStats: return "stats";
    case RequestOp::kSleep: return "sleep";
    case RequestOp::kSchedule: return "schedule";
    case RequestOp::kQuality: return "quality";
    case RequestOp::kSimulate: return "simulate";
    case RequestOp::kExperiment: return "experiment";
    case RequestOp::kHealth: return "health";
    case RequestOp::kReady: return "ready";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kBatch: return "batch";
  }
  CS_UNREACHABLE("bad RequestOp");
}

topo::SwitchGraph BuildTopology(const TopologyRequest& request) {
  const std::string& kind = request.kind;
  if (kind == "random") {
    topo::IrregularTopologyOptions options;
    options.switch_count = request.switches;
    options.hosts_per_switch = request.hosts;
    options.interswitch_degree = request.degree;
    options.seed = request.seed;
    return topo::GenerateIrregularTopology(options);
  }
  if (kind == "rings") return topo::MakeFourRingsOfSix(request.hosts);
  if (kind == "mixed") return topo::MakeMixedDensity16(request.hosts);
  if (kind == "mesh") {
    topo::RequireDimension("mesh rows", request.rows, 1);
    topo::RequireDimension("mesh cols", request.cols, 1);
    return topo::MakeMesh2D(request.rows, request.cols, request.hosts);
  }
  if (kind == "torus") {
    topo::RequireDimension("torus rows", request.rows, 3);
    topo::RequireDimension("torus cols", request.cols, 3);
    return topo::MakeTorus2D(request.rows, request.cols, request.hosts);
  }
  if (kind == "torus3d") {
    topo::RequireDimension("torus3d x", request.x, 3);
    topo::RequireDimension("torus3d y", request.y, 3);
    topo::RequireDimension("torus3d z", request.z, 3);
    return topo::MakeTorus3D(request.x, request.y, request.z, request.hosts);
  }
  if (kind == "fattree") {
    if (request.k < 2 || request.k % 2 != 0) {
      throw ConfigError("fattree k must be even and >= 2, got " + std::to_string(request.k));
    }
    return topo::MakeFatTree(request.k, request.hosts);
  }
  if (kind == "hypercube") {
    topo::RequireDimension("hypercube dim", request.dim, 1, 20);
    return topo::MakeHypercube(request.dim, request.hosts);
  }
  if (kind == "text") {
    if (request.text.empty()) throw ConfigError("topology kind 'text' requires \"text\"");
    return topo::FromText(request.text);
  }
  throw ConfigError("unknown topology kind '" + kind + "'");
}

namespace {

/// Best-effort "id" of a (possibly malformed) sub-request object — the
/// per-entry analogue of SalvageRequestId, used to label batch-entry error
/// responses.
std::string SalvageEntryId(const JsonValue& entry) {
  if (!entry.is_object()) return "";
  const JsonValue* id = entry.Find("id");
  if (id != nullptr && id->is_string()) return id->AsString("id");
  return "";
}

Request ParseRequestObject(const JsonValue& root, bool allow_batch);

/// Parses the batch "requests" array with per-entry error isolation: a
/// malformed entry becomes a BatchEntry carrying the error (and any
/// salvageable sub-id) instead of failing the whole frame. Batch-shape
/// errors — missing/empty array, nested batch — still throw: there is no
/// meaningful partial response for those.
std::vector<BatchEntry> ParseBatchEntries(const JsonValue& value) {
  std::vector<BatchEntry> entries;
  for (const JsonValue& item : value.AsArray("requests")) {
    BatchEntry entry;
    try {
      entry.request = ParseRequestObject(item, /*allow_batch=*/false);
    } catch (const std::exception& e) {
      entry.error = e.what();
      entry.salvaged_id = SalvageEntryId(item);
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    throw ConfigError("batch \"requests\" must be a non-empty array");
  }
  return entries;
}

/// Bit of `op` in the per-key op masks below.
constexpr std::uint32_t OpBit(RequestOp op) { return 1U << static_cast<unsigned>(op); }

// Which ops read a key (id, deadline_ms and timings: every op).
constexpr std::uint32_t kSchedule = OpBit(RequestOp::kSchedule);
constexpr std::uint32_t kSimulate = OpBit(RequestOp::kSimulate);
constexpr std::uint32_t kSweep = kSimulate | OpBit(RequestOp::kExperiment);
constexpr std::uint32_t kWorkload = kSchedule | kSweep;  // apps, parallel_seeds
constexpr std::uint32_t kNetwork = kWorkload | OpBit(RequestOp::kQuality);

// Keys that only some modes of their op read, one bit each (CheckModeKeys).
constexpr std::string_view kModeKeys[] = {"algo",           "apps",          "samples",
                                          "parallel_seeds", "procs",         "pattern",
                                          "pattern_seed",   "coarsen_target", "refine_budget",
                                          "distance",       "mapping_seed"};
consteval std::uint32_t ModeKeys(std::initializer_list<std::string_view> keys) {
  std::uint32_t bits = 0;
  for (const std::string_view key : keys) {
    for (std::size_t i = 0; i < std::size(kModeKeys); ++i) {
      if (kModeKeys[i] == key) bits |= 1U << i;
    }
  }
  return bits;
}

/// The op masks above accept a key for every mode of its op. Once the mode
/// is known (a schedule's "multilevel", a simulate's "mapping"), a key that
/// mode does not read is an error too. `sent` has the request's mode keys.
void CheckModeKeys(std::uint32_t sent, const Request& request) {
  std::uint32_t unread = 0;
  const char* mode = "";
  if (request.op == RequestOp::kSchedule && request.multilevel) {
    unread = ModeKeys({"algo", "apps", "samples", "parallel_seeds"});
    mode = "multilevel schedule";
  } else if (request.op == RequestOp::kSchedule) {
    unread = ModeKeys({"procs", "pattern", "pattern_seed", "coarsen_target", "refine_budget",
                       "distance"});
    mode = "schedule without multilevel";
  } else if (request.op == RequestOp::kSimulate) {
    // "op" searches (parallel_seeds) and "random" draws (mapping_seed); an
    // unknown mapping fails on its own.
    const bool known = request.mapping == "op" || request.mapping == "random" ||
                       request.mapping == "blocked";
    if (known && request.mapping != "random") unread |= ModeKeys({"mapping_seed"});
    if (known && request.mapping != "op") unread |= ModeKeys({"parallel_seeds"});
    mode = request.mapping == "op"       ? "simulate with mapping op"
           : request.mapping == "random" ? "simulate with mapping random"
                                         : "simulate with mapping blocked";
  }
  if ((sent & unread) == 0) return;
  throw ConfigError("request key '" + std::string(kModeKeys[std::countr_zero(sent & unread)]) +
                    "' is not read by " + mode);
}

Request ParseRequestObject(const JsonValue& root, bool allow_batch) {
  const JsonValue* op = root.Find("op");
  if (!root.is_object() || op == nullptr) {
    throw ConfigError("request must be a JSON object with an \"op\"");
  }
  Request request;
  request.op = ParseOp(op->AsString("op"));
  if (request.op == RequestOp::kBatch && !allow_batch) {
    throw ConfigError("batch entries must not themselves be batches");
  }
  const std::uint32_t op_bit = OpBit(request.op);
  // Each matched key checks its op mask: a key the op never reads would
  // otherwise be dropped silently.
  std::uint32_t mode_keys = 0;  // CheckModeKeys' bits of the keys sent
  const auto read_by = [&](const std::string& key, std::uint32_t ops, std::uint32_t mode_key = 0) {
    if ((ops & op_bit) == 0) {
      throw ConfigError("request key '" + key + "' is not read by op " + OpName(request.op));
    }
    mode_keys |= mode_key;
    return true;
  };
  bool saw_requests = false;
  for (const auto& [key, member] : root.AsObject("request")) {
    if (key == "op") continue;
    if (key == "requests" && read_by(key, OpBit(RequestOp::kBatch))) {
      request.batch = ParseBatchEntries(member);
      saw_requests = true;
    } else if (key == "id") {
      request.id = member.AsString("id");
    } else if (key == "topology" && read_by(key, kNetwork)) {
      request.topology = ParseTopology(member);
    } else if (key == "apps" && read_by(key, kWorkload, ModeKeys({"apps"}))) {
      request.apps = member.AsUint("apps");
    } else if (key == "algo" && read_by(key, kSchedule, ModeKeys({"algo"}))) {
      request.search.algo = member.AsString("algo");
    } else if (key == "seeds" && read_by(key, kSchedule)) {
      request.search.seeds = member.AsUint("seeds");
      request.multilevel_knobs.seeds = request.search.seeds;
    } else if (key == "iters" && read_by(key, kSchedule)) {
      request.search.iterations = member.AsUint("iters");
      request.multilevel_knobs.iterations = request.search.iterations;
    } else if (key == "samples" && read_by(key, kSchedule, ModeKeys({"samples"}))) {
      request.search.samples = member.AsUint("samples");
    } else if (key == "search_seed" && read_by(key, kSchedule)) {
      request.search.rng_seed = member.AsUint("search_seed");
      request.multilevel_knobs.rng_seed = request.search.rng_seed;
    } else if (key == "parallel_seeds" && read_by(key, kWorkload, ModeKeys({"parallel_seeds"}))) {
      request.search.parallel_seeds = member.AsBool("parallel_seeds");
    } else if (key == "multilevel" && read_by(key, kSchedule)) {
      request.multilevel = member.AsBool("multilevel");
    } else if (key == "procs" && read_by(key, kSchedule, ModeKeys({"procs"}))) {
      request.multilevel_knobs.processes = member.AsUint("procs");
    } else if (key == "pattern" && read_by(key, kSchedule, ModeKeys({"pattern"}))) {
      request.multilevel_knobs.pattern = member.AsString("pattern");
    } else if (key == "pattern_seed" && read_by(key, kSchedule, ModeKeys({"pattern_seed"}))) {
      request.multilevel_knobs.pattern_seed = member.AsUint("pattern_seed");
    } else if (key == "coarsen_target" && read_by(key, kSchedule, ModeKeys({"coarsen_target"}))) {
      request.multilevel_knobs.coarsen_target = member.AsUint("coarsen_target");
    } else if (key == "refine_budget" && read_by(key, kSchedule, ModeKeys({"refine_budget"}))) {
      request.multilevel_knobs.refine_budget = member.AsUint("refine_budget");
    } else if (key == "distance" && read_by(key, kSchedule, ModeKeys({"distance"}))) {
      request.multilevel_knobs.distance = member.AsString("distance");
    } else if (key == "partition" && read_by(key, OpBit(RequestOp::kQuality))) {
      request.partition = ParsePartition(member);
    } else if (key == "mapping" && read_by(key, kSimulate)) {
      request.mapping = member.AsString("mapping");
    } else if (key == "mapping_seed" && read_by(key, kSweep, ModeKeys({"mapping_seed"}))) {
      request.mapping_seed = member.AsUint("mapping_seed");
    } else if (key == "points" && read_by(key, kSweep)) {
      request.points = member.AsUint("points");
    } else if (key == "min_rate" && read_by(key, kSweep)) {
      request.min_rate = member.AsDouble("min_rate");
    } else if (key == "max_rate" && read_by(key, kSweep)) {
      request.max_rate = member.AsDouble("max_rate");
    } else if (key == "warmup" && read_by(key, kSweep)) {
      request.warmup = member.AsUint("warmup");
    } else if (key == "measure" && read_by(key, kSweep)) {
      request.measure = member.AsUint("measure");
    } else if (key == "vcs" && read_by(key, kSimulate)) {
      request.vcs = member.AsUint("vcs");
    } else if (key == "adaptive" && read_by(key, kSimulate)) {
      request.adaptive = member.AsBool("adaptive");
    } else if (key == "duato" && read_by(key, kSimulate)) {
      request.duato = member.AsBool("duato");
    } else if (key == "telemetry" && read_by(key, kSimulate)) {
      request.telemetry = member.AsUint("telemetry");
    } else if (key == "reconfig_downtime" && read_by(key, kSimulate)) {
      request.reconfig_downtime = member.AsUint("reconfig_downtime");
    } else if (key == "fault_plan" && read_by(key, kSimulate)) {
      request.fault_plan = faults::FaultPlan::FromJson(member);
    } else if (key == "randoms" && read_by(key, OpBit(RequestOp::kExperiment))) {
      request.randoms = member.AsUint("randoms");
    } else if (key == "ms" && read_by(key, OpBit(RequestOp::kSleep))) {
      request.sleep_ms = member.AsUint("ms");
    } else if (key == "deadline_ms") {
      request.deadline_ms = member.AsUint("deadline_ms");
    } else if (key == "timings") {
      request.want_timings = member.AsBool("timings");
    } else if (key == "reset" && read_by(key, OpBit(RequestOp::kStats))) {
      request.stats_reset = member.AsBool("reset");
    } else {
      throw ConfigError("unknown request key '" + key + "'");
    }
  }
  if (request.op == RequestOp::kBatch && !saw_requests) {
    throw ConfigError("op batch requires a \"requests\" array");
  }
  CheckModeKeys(mode_keys, request);
  ValidateSearchKnobs(request.search);  // zero seeds/iters/samples
  return request;
}

}  // namespace

Request ParseRequest(const std::string& line) {
  return ParseRequestObject(ParseJson(line), /*allow_batch=*/true);
}

std::string SalvageRequestId(const std::string& line) {
  try {
    const JsonValue root = ParseJson(line);
    return SalvageEntryId(root);
  } catch (const std::exception&) {
    // Malformed line: respond without an id.
  }
  return "";
}

std::string ErrorResponse(const std::string& id, const std::string& error) {
  JsonObjectWriter writer;
  if (!id.empty()) writer.Field("id", id);
  writer.Field("ok", false);
  writer.Field("error", error);
  return writer.Finish();
}

std::string BatchEntryErrorResponse(const std::string& id, const std::string& batch_id,
                                    std::size_t index, const std::string& error) {
  JsonObjectWriter writer;
  if (!id.empty()) writer.Field("id", id);
  if (!batch_id.empty()) writer.Field("batch", batch_id);
  writer.Field("index", static_cast<std::uint64_t>(index));
  writer.Field("ok", false);
  writer.Field("error", error);
  return writer.Finish();
}

std::uint64_t ModelHashOfGraph(const topo::SwitchGraph& graph) {
  return HashBytes("updown:maxdegree|" + topo::ToText(graph));
}

}  // namespace commsched::svc
