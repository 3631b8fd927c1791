#include "service/protocol.h"

#include <bit>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "service/cache.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "topology/serialize.h"

namespace commsched::svc {
namespace {

// A request's mode, one bit each: its op, except that a schedule is
// multilevel, a walk (tabu|sd|sa|gsa) or random sampling, and a simulate is
// its mapping. A key's row in kKeys lists the modes that read it.
enum Modes : std::uint32_t {
  kPing = 1U << 0, kStats = 1U << 1, kSleep = 1U << 2, kQuality = 1U << 3,
  kExperiment = 1U << 4, kHealth = 1U << 5, kReady = 1U << 6, kMetrics = 1U << 7,
  kBatch = 1U << 8, kMultilevel = 1U << 9, kWalk = 1U << 10, kSampling = 1U << 11,
  kMappingOp = 1U << 12, kMappingRandom = 1U << 13, kMappingBlocked = 1U << 14,
  kPlainSchedule = kWalk | kSampling, kSchedule = kMultilevel | kPlainSchedule,
  kSimulate = kMappingOp | kMappingRandom | kMappingBlocked, kSweep = kSimulate | kExperiment,
  kEveryMode = (1U << 15) - 1,
};

/// Each op's name and modes, in RequestOp order.
struct OpRow {
  const char* name;
  std::uint32_t modes;
};
constexpr OpRow kOps[] = {
    {"ping", kPing}, {"stats", kStats}, {"sleep", kSleep}, {"schedule", kSchedule},
    {"quality", kQuality}, {"simulate", kSimulate}, {"experiment", kExperiment},
    {"health", kHealth}, {"ready", kReady}, {"metrics", kMetrics}, {"batch", kBatch},
};
static_assert(std::size(kOps) == kRequestOpCount);

RequestOp ParseOp(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (name == kOps[i].name) return static_cast<RequestOp>(i);
  }
  throw ConfigError("unknown op '" + name +
                    "' (ping|stats|sleep|schedule|quality|simulate|experiment|health|ready|"
                    "metrics|batch)");
}

/// A sent key's value; `prefix` + `key` names it in the error of a failed
/// read, and is joined only then.
struct Value {
  const JsonValue& json;
  std::string_view prefix;
  std::string_view key;
  std::uint64_t Uint() const { return json.AsUint(prefix, key); }
  double Double() const { return json.AsDouble(prefix, key); }
  bool Bool() const { return json.AsBool(prefix, key); }
  const std::string& String() const { return json.AsString(prefix, key); }
};

// A topology kind, one bit each. A key's row in kTopologyKeys lists the
// kinds that read it.
enum Kinds : std::uint32_t {
  kRandom = 1U << 0, kRings = 1U << 1, kMixed = 1U << 2, kMesh = 1U << 3, kTorus = 1U << 4,
  kTorus3d = 1U << 5, kFattree = 1U << 6, kHypercube = 1U << 7, kText = 1U << 8,
  kEveryKind = (1U << 9) - 1,
};

constexpr std::pair<std::string_view, std::uint32_t> kKinds[] = {
    {"random", kRandom}, {"rings", kRings},     {"mixed", kMixed},
    {"mesh", kMesh},     {"torus", kTorus},     {"torus3d", kTorus3d},
    {"fattree", kFattree}, {"hypercube", kHypercube}, {"text", kText},
};

/// The bit of `kind`. An unknown kind keeps every bit; it fails in
/// BuildTopology.
std::uint32_t KindBit(std::string_view kind) {
  for (const auto& [name, bit] : kKinds) {
    if (name == kind) return bit;
  }
  return kEveryKind;
}

/// One topology key: the kinds that read it and how its value is read.
struct TopologyKeyRow {
  std::string_view name;
  std::uint32_t kinds;
  void (*read)(TopologyRequest& t, const Value& v);
};

constexpr TopologyKeyRow kTopologyKeys[] = {
    {"kind", kEveryKind, [](TopologyRequest& t, const Value& v) { t.kind = v.String(); }},
    {"switches", kRandom, [](TopologyRequest& t, const Value& v) { t.switches = v.Uint(); }},
    {"hosts", kEveryKind & ~kText, [](TopologyRequest& t, const Value& v) { t.hosts = v.Uint(); }},
    {"degree", kRandom, [](TopologyRequest& t, const Value& v) { t.degree = v.Uint(); }},
    {"seed", kRandom, [](TopologyRequest& t, const Value& v) { t.seed = v.Uint(); }},
    {"rows", kMesh | kTorus, [](TopologyRequest& t, const Value& v) { t.rows = v.Uint(); }},
    {"cols", kMesh | kTorus, [](TopologyRequest& t, const Value& v) { t.cols = v.Uint(); }},
    {"dim", kHypercube, [](TopologyRequest& t, const Value& v) { t.dim = v.Uint(); }},
    {"x", kTorus3d, [](TopologyRequest& t, const Value& v) { t.x = v.Uint(); }},
    {"y", kTorus3d, [](TopologyRequest& t, const Value& v) { t.y = v.Uint(); }},
    {"z", kTorus3d, [](TopologyRequest& t, const Value& v) { t.z = v.Uint(); }},
    {"k", kFattree, [](TopologyRequest& t, const Value& v) { t.k = v.Uint(); }},
    {"text", kText, [](TopologyRequest& t, const Value& v) { t.text = v.String(); }},
};

}  // namespace

TopologyRequest ParseTopology(const JsonValue& value) {
  // A key the kind does not read fails once every key is in, since "kind"
  // may come after it.
  TopologyRequest topology;
  std::uint32_t sent = 0;  // bit i: kTopologyKeys[i]
  for (const auto& [key, member] : value.AsObject("topology")) {
    std::size_t row = 0;
    while (row < std::size(kTopologyKeys) && kTopologyKeys[row].name != key) ++row;
    if (row == std::size(kTopologyKeys)) throw ConfigError("unknown topology key '" + key + "'");
    kTopologyKeys[row].read(topology, Value{member, "topology.", key});
    sent |= std::uint32_t{1} << row;
  }
  const std::uint32_t kind = KindBit(topology.kind);
  for (std::uint32_t rows = sent; rows != 0; rows &= rows - 1) {
    const TopologyKeyRow& row = kTopologyKeys[std::countr_zero(rows)];
    if ((row.kinds & kind) == 0) {
      throw ConfigError("topology key '" + std::string(row.name) + "' is not read by kind " +
                        topology.kind);
    }
  }
  return topology;
}

const char* OpName(RequestOp op) {
  CS_CHECK(static_cast<std::size_t>(op) < std::size(kOps), "bad RequestOp");
  return kOps[static_cast<std::size_t>(op)].name;
}

topo::SwitchGraph BuildTopology(const TopologyRequest& request) {
  switch (KindBit(request.kind)) {
    case kRandom: {
      topo::IrregularTopologyOptions options;
      options.switch_count = request.switches;
      options.hosts_per_switch = request.hosts;
      options.interswitch_degree = request.degree;
      options.seed = request.seed;
      return topo::GenerateIrregularTopology(options);
    }
    case kRings:
      return topo::MakeFourRingsOfSix(request.hosts);
    case kMixed:
      return topo::MakeMixedDensity16(request.hosts);
    case kMesh:
      topo::RequireDimension("mesh rows", request.rows, 1);
      topo::RequireDimension("mesh cols", request.cols, 1);
      return topo::MakeMesh2D(request.rows, request.cols, request.hosts);
    case kTorus:
      topo::RequireDimension("torus rows", request.rows, 3);
      topo::RequireDimension("torus cols", request.cols, 3);
      return topo::MakeTorus2D(request.rows, request.cols, request.hosts);
    case kTorus3d:
      topo::RequireDimension("torus3d x", request.x, 3);
      topo::RequireDimension("torus3d y", request.y, 3);
      topo::RequireDimension("torus3d z", request.z, 3);
      return topo::MakeTorus3D(request.x, request.y, request.z, request.hosts);
    case kFattree:
      if (request.k < 2 || request.k % 2 != 0) {
        throw ConfigError("fattree k must be even and >= 2, got " + std::to_string(request.k));
      }
      return topo::MakeFatTree(request.k, request.hosts);
    case kHypercube:
      topo::RequireDimension("hypercube dim", request.dim, 1, 20);
      return topo::MakeHypercube(request.dim, request.hosts);
    case kText:
      if (request.text.empty()) throw ConfigError("topology kind 'text' requires \"text\"");
      return topo::FromText(request.text);
    default:
      throw ConfigError("unknown topology kind '" + request.kind + "'");
  }
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

void ParseRequestObject(const JsonValue& root, bool allow_batch, Request& request);

/// Parses the batch "requests" array with per-entry error isolation: a
/// malformed entry becomes a BatchEntry carrying the error (and any
/// salvageable sub-id) instead of failing the whole frame. Batch-shape
/// errors — missing/empty array, nested batch — still throw: there is no
/// meaningful partial response for those. Each entry's Request is parsed
/// in place, never moved.
std::vector<BatchEntry> ParseBatchEntries(const JsonValue& value) {
  const std::vector<JsonValue>& items = value.AsArray("requests");
  std::vector<BatchEntry> entries(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      ParseRequestObject(items[i], /*allow_batch=*/false, entries[i].request);
    } catch (const std::exception& e) {
      entries[i].request = Request{};
      entries[i].error = e.what();
      entries[i].salvaged_id = SalvageEntryId(items[i]);
    }
  }
  if (entries.empty()) {
    throw ConfigError("batch \"requests\" must be a non-empty array");
  }
  return entries;
}

/// One request key: the modes that read it and how its value is read.
struct KeyRow {
  std::string_view name;
  std::uint32_t modes;
  void (*read)(Request& r, const Value& v);
};

// Where two keys can both be unread by a request's mode, the error names
// the one listed first.
constexpr KeyRow kKeys[] = {
    {"op", kEveryMode, [](Request&, const Value&) {}},  // read by ParseOp
    {"id", kEveryMode, [](Request& r, const Value& v) { r.id = v.String(); }},
    {"deadline_ms", kEveryMode, [](Request& r, const Value& v) { r.deadline_ms = v.Uint(); }},
    {"timings", kEveryMode, [](Request& r, const Value& v) { r.want_timings = v.Bool(); }},
    {"requests", kBatch, [](Request& r, const Value& v) { r.batch = ParseBatchEntries(v.json); }},
    {"topology", kSchedule | kQuality | kSweep,
     [](Request& r, const Value& v) { r.topology = ParseTopology(v.json); }},
    {"algo", kPlainSchedule, [](Request& r, const Value& v) { r.search.algo = v.String(); }},
    {"apps", kPlainSchedule | kSweep, [](Request& r, const Value& v) { r.apps = v.Uint(); }},
    {"samples", kSampling, [](Request& r, const Value& v) { r.search.samples = v.Uint(); }},
    {"parallel_seeds", kPlainSchedule | kMappingOp | kExperiment,
     [](Request& r, const Value& v) { r.search.parallel_seeds = v.Bool(); }},
    {"procs", kMultilevel,
     [](Request& r, const Value& v) { r.multilevel_knobs.processes = v.Uint(); }},
    {"pattern", kMultilevel,
     [](Request& r, const Value& v) { r.multilevel_knobs.pattern = v.String(); }},
    {"pattern_seed", kMultilevel,
     [](Request& r, const Value& v) { r.multilevel_knobs.pattern_seed = v.Uint(); }},
    {"coarsen_target", kMultilevel,
     [](Request& r, const Value& v) { r.multilevel_knobs.coarsen_target = v.Uint(); }},
    {"refine_budget", kMultilevel,
     [](Request& r, const Value& v) { r.multilevel_knobs.refine_budget = v.Uint(); }},
    {"distance", kMultilevel,
     [](Request& r, const Value& v) { r.multilevel_knobs.distance = v.String(); }},
    {"mapping_seed", kMappingRandom | kExperiment,
     [](Request& r, const Value& v) { r.mapping_seed = v.Uint(); }},
    {"seeds", kMultilevel | kWalk,
     [](Request& r, const Value& v) { r.multilevel_knobs.seeds = r.search.seeds = v.Uint(); }},
    {"iters", kMultilevel | kWalk,
     [](Request& r, const Value& v) {
       r.multilevel_knobs.iterations = r.search.iterations = v.Uint();
     }},
    {"search_seed", kSchedule,
     [](Request& r, const Value& v) {
       r.multilevel_knobs.rng_seed = r.search.rng_seed = v.Uint();
     }},
    {"multilevel", kSchedule, [](Request& r, const Value& v) { r.multilevel = v.Bool(); }},
    {"partition", kQuality,
     [](Request& r, const Value& v) {
       for (const JsonValue& item : v.json.AsArray(v.prefix, v.key)) {
         r.partition.push_back(item.AsUint("partition entry"));
       }
     }},
    {"mapping", kSimulate, [](Request& r, const Value& v) { r.mapping = v.String(); }},
    {"points", kSweep, [](Request& r, const Value& v) { r.points = v.Uint(); }},
    {"min_rate", kSweep, [](Request& r, const Value& v) { r.min_rate = v.Double(); }},
    {"max_rate", kSweep, [](Request& r, const Value& v) { r.max_rate = v.Double(); }},
    {"warmup", kSweep, [](Request& r, const Value& v) { r.warmup = v.Uint(); }},
    {"measure", kSweep, [](Request& r, const Value& v) { r.measure = v.Uint(); }},
    {"vcs", kSimulate, [](Request& r, const Value& v) { r.vcs = v.Uint(); }},
    {"adaptive", kSimulate, [](Request& r, const Value& v) { r.adaptive = v.Bool(); }},
    {"duato", kSimulate, [](Request& r, const Value& v) { r.duato = v.Bool(); }},
    {"telemetry", kSimulate, [](Request& r, const Value& v) { r.telemetry = v.Uint(); }},
    {"reconfig_downtime", kSimulate,
     [](Request& r, const Value& v) { r.reconfig_downtime = v.Uint(); }},
    {"fault_plan", kSimulate,
     [](Request& r, const Value& v) { r.fault_plan = faults::FaultPlan::FromJson(v.json); }},
    {"randoms", kExperiment, [](Request& r, const Value& v) { r.randoms = v.Uint(); }},
    {"ms", kSleep,
     [](Request& r, const Value& v) {
       r.sleep_ms = v.Uint();
       if (r.sleep_ms > kMaxSleepMs) {
         throw ConfigError(std::string(v.key) + " must be at most " +
                           std::to_string(kMaxSleepMs) + ", got " + std::to_string(r.sleep_ms));
       }
     }},
    {"reset", kStats, [](Request& r, const Value& v) { r.stats_reset = v.Bool(); }},
};
static_assert(std::size(kKeys) <= 64, "ParseRequestObject keeps one bit per key");

/// The mode `request` is in once all its keys are read. An unknown algo or
/// mapping keeps every mode it could have named; it fails at execution.
std::uint32_t ModeOf(const Request& request) {
  if (request.op == RequestOp::kSchedule && !request.multilevel) {
    const SearchBudget budget = SearchBudgetOf(request.search.algo);
    return budget == SearchBudget::kWalk      ? kWalk
           : budget == SearchBudget::kSamples ? kSampling
                                              : kPlainSchedule;
  }
  if (request.op == RequestOp::kSchedule) return kMultilevel;
  if (request.op == RequestOp::kSimulate) {
    if (request.mapping == "op") return kMappingOp;
    if (request.mapping == "random") return kMappingRandom;
    if (request.mapping == "blocked") return kMappingBlocked;
  }
  return kOps[static_cast<std::size_t>(request.op)].modes;
}

/// What the error for a key read only in `key_modes` calls the mode of
/// `request`, a schedule or a simulate: the algo is named only when another
/// algo reads the key.
std::string ModeName(const Request& request, std::uint32_t key_modes) {
  if (request.op == RequestOp::kSimulate) return "simulate with mapping " + request.mapping;
  if (request.multilevel) return "multilevel schedule";
  if ((key_modes & kPlainSchedule) == 0) return "schedule without multilevel";
  return "schedule with algo " + request.search.algo;
}

[[noreturn]] void ThrowUnread(std::string_view key, const std::string& mode) {
  throw ConfigError("request key '" + std::string(key) + "' is not read by " + mode);
}

/// Fills `request`, a default Request, from one request object.
void ParseRequestObject(const JsonValue& root, bool allow_batch, Request& request) {
  const JsonValue* op = root.Find("op");
  if (!root.is_object() || op == nullptr) {
    throw ConfigError("request must be a JSON object with an \"op\"");
  }
  request.op = ParseOp(op->AsString("op"));
  if (request.op == RequestOp::kBatch && !allow_batch) {
    throw ConfigError("batch entries must not themselves be batches");
  }
  // A key no mode of the op reads fails before its value is read; one the
  // request's own mode does not read fails once every key is in, since the
  // mode keys may come in any order.
  const std::uint32_t op_modes = kOps[static_cast<std::size_t>(request.op)].modes;
  std::uint64_t sent = 0;  // bit i: kKeys[i]
  for (const auto& [key, member] : root.AsObject("request")) {
    std::size_t row = 0;
    while (row < std::size(kKeys) && kKeys[row].name != key) ++row;
    if (row == std::size(kKeys)) throw ConfigError("unknown request key '" + key + "'");
    if ((kKeys[row].modes & op_modes) == 0) {
      ThrowUnread(key, std::string("op ") + OpName(request.op));
    }
    kKeys[row].read(request, Value{member, {}, key});
    sent |= std::uint64_t{1} << row;
  }
  if (request.op == RequestOp::kBatch && request.batch.empty()) {
    throw ConfigError("op batch requires a \"requests\" array");
  }
  const std::uint32_t mode = ModeOf(request);
  for (std::uint64_t rows = sent; rows != 0; rows &= rows - 1) {
    const KeyRow& row = kKeys[std::countr_zero(rows)];
    if ((row.modes & mode) == 0) ThrowUnread(row.name, ModeName(request, row.modes));
  }
  ValidateSearchKnobs(request.search);  // zero seeds/iters/samples
}

}  // namespace

Request ParseRequest(const std::string& line) {
  Request request;
  ParseRequestObject(ParseJson(line), /*allow_batch=*/true, request);
  return request;
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
