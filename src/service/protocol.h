// The scheduling service's JSONL wire protocol (DESIGN.md §10).
//
// One request per line, one response line per request. Every request is a
// JSON object with an "op" plus op-specific fields; responses echo the
// request "id" (an opaque client string) and carry either the result fields
// or {"ok":false,"error":...}. Unknown keys are rejected — a typoed knob
// silently falling back to a default is worse than an error.
//
//   {"id":"1","op":"schedule","topology":{"kind":"random","switches":16,
//    "seed":1},"apps":4,"algo":"tabu","seeds":10,"iters":20,"search_seed":1}
//   {"id":"2","op":"quality","topology":{"kind":"rings"},
//    "partition":[0,0,0,0,0,0,1,1,1,1,1,1,2,2,2,2,2,2,3,3,3,3,3,3]}
//   {"id":"3","op":"simulate","topology":{"kind":"mixed"},"apps":4,
//    "mapping":"blocked","points":2,"max_rate":0.4,"warmup":500,
//    "measure":1500}
//   {"id":"4","op":"simulate","topology":{"kind":"rings"},"duato":true,
//    "telemetry":1000,"fault_plan":{"events":[{"at":1,"kind":"switch_down",
//    "switch":3}]}}
//   {"id":"5","op":"stats"}   {"id":"6","op":"ping"}
//
// The keys are the one-shot CLI's flag names with '-' spelled '_' (topology
// flags nest under "topology"), and the CLI's schedule and simulate parse
// argv into this Request and run it through SchedulingService::Execute, so
// served text equals CLI stdout by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "faults/fault_plan.h"
#include "service/exec.h"
#include "topology/graph.h"

namespace commsched::svc {

// The codec lives in common/json.h; these two names stay reachable under
// svc:: for code written against the service's original spelling.
using commsched::JsonValue;
using commsched::ParseJson;

enum class RequestOp {
  kPing,      // liveness probe
  kStats,     // cache hit/miss/eviction + served-request counts + live views
  kSleep,     // testing/bench aid: hold a worker for sleep_ms
  kSchedule,  // mapping search (§4.2) over a cached distance table
  kQuality,   // F_G / D_G / C_c of an explicit partition (§4.1)
  kSimulate,  // flit-level load sweep (§5) for a mapping
  kHealth,    // liveness + drain state of the serving daemon
  kReady,     // readiness: true until the daemon starts draining
  kMetrics,   // Prometheus text exposition of the registry
  kBatch,     // many sub-requests in one frame (one response array)
};

/// Number of RequestOp values (for op-indexed lookup tables).
inline constexpr std::size_t kRequestOpCount =
    static_cast<std::size_t>(RequestOp::kBatch) + 1;

[[nodiscard]] const char* OpName(RequestOp op);

/// Topology selector, mirroring the CLI's --kind family. "text" carries an
/// inline topology in topology/serialize.h's format; all kinds canonicalize
/// to the same cache key, so a generator spec and its serialized text hit
/// the same cache entry.
struct TopologyRequest {
  // random|rings|mixed|mesh|torus|torus3d|fattree|hypercube|text
  std::string kind = "random";
  std::size_t switches = 16;
  std::size_t hosts = 4;
  std::size_t degree = 3;
  std::uint64_t seed = 1;
  std::size_t rows = 4;
  std::size_t cols = 4;
  std::size_t dim = 4;
  std::size_t x = 4;  // torus3d dimensions
  std::size_t y = 4;
  std::size_t z = 4;
  std::size_t k = 4;  // fat-tree arity (even)
  std::string text;
};

/// Reads a request's "topology" object (throws ConfigError on unknown keys
/// and type mismatches).
[[nodiscard]] TopologyRequest ParseTopology(const JsonValue& value);

/// Materializes the requested topology (throws ConfigError on bad specs).
[[nodiscard]] topo::SwitchGraph BuildTopology(const TopologyRequest& request);

struct BatchEntry;

/// One parsed protocol request. Defaults match the CLI.
struct Request {
  std::string id;
  RequestOp op = RequestOp::kPing;
  TopologyRequest topology;
  std::size_t apps = 4;

  // schedule knobs ("algo", "seeds", "iters", "samples", "search_seed",
  // "parallel_seeds"); nullopt counts resolve per algorithm in exec.h.
  SearchKnobs search;

  // multilevel schedule (DESIGN.md §13). "multilevel": true switches the
  // schedule op to the coarsen/map/uncoarsen pipeline over a generated
  // process communication graph; "seeds", "iters" and "search_seed" fill
  // these knobs too.
  bool multilevel = false;
  MultilevelKnobs multilevel_knobs;

  // quality: cluster id per switch.
  std::vector<std::size_t> partition;

  // simulate knobs.
  std::string mapping = "op";  // op|random|blocked
  std::uint64_t mapping_seed = 2000;
  std::size_t points = 9;
  double min_rate = 0.08;
  double max_rate = 1.4;
  std::size_t warmup = 5000;
  std::size_t measure = 15000;
  std::size_t vcs = 1;
  bool adaptive = false;                 // adaptive up*/down* routing
  bool duato = false;                    // Duato's fully adaptive routing (vcs >= 2)
  std::size_t telemetry = 0;             // sample every N measured cycles (0 = off)
  std::size_t reconfig_downtime = 128;   // cycles per reconfiguration (fault_plan)
  /// An inline fault plan object (faults/fault_plan.h's document, never a
  /// path), replayed in every sweep point.
  std::optional<faults::FaultPlan> fault_plan;

  // sleep
  std::uint64_t sleep_ms = 0;

  /// 0 = no deadline. A request still queued when its deadline elapses is
  /// answered with an error instead of being executed.
  std::uint64_t deadline_ms = 0;

  /// "timings": true asks the daemon to append a per-stage wall-clock
  /// breakdown (queue/parse/model/search/serialize/other, DESIGN.md §12) to
  /// the response.
  bool want_timings = false;

  /// stats op only: "reset": true zeroes the registry after snapshotting
  /// (guarded by ServiceOptions::allow_stats_reset).
  bool stats_reset = false;

  /// batch op only: the parsed "requests" array. Entries that failed to
  /// parse are kept in place (BatchEntry::error non-empty) so the response
  /// array stays index-aligned with the request array — per-entry error
  /// isolation, never a dropped batch.
  std::vector<BatchEntry> batch;
};

/// One sub-request of a batch frame. Exactly one of the two states holds:
/// `error` empty and `request` valid, or `error` carrying the parse failure
/// with `salvaged_id` holding whatever "id" the malformed entry carried.
struct BatchEntry {
  Request request;
  std::string error;
  std::string salvaged_id;
};

/// Parses one request line. Throws ConfigError on malformed JSON, unknown
/// ops/keys, or type mismatches; the daemon converts that into an error
/// response carrying whatever "id" could be salvaged.
[[nodiscard]] Request ParseRequest(const std::string& line);

/// Best-effort extraction of "id" from a possibly malformed request line,
/// for error responses ("" when unavailable).
[[nodiscard]] std::string SalvageRequestId(const std::string& line);

/// {"id":...,"ok":false,"error":...} (id omitted when empty).
[[nodiscard]] std::string ErrorResponse(const std::string& id, const std::string& error);

/// Error response for one batch sub-request: echoes the enclosing batch id
/// and the entry's position ("batch" and "index" fields) so clients can
/// correlate partial failures inside a batch.
[[nodiscard]] std::string BatchEntryErrorResponse(const std::string& id,
                                                  const std::string& batch_id,
                                                  std::size_t index,
                                                  const std::string& error);

/// The model-cache hash of an already-built graph: FNV-1a over the canonical
/// key text (serialized graph + routing scheme), so two requests describing
/// the same network differently share one entry. The single source of truth
/// for model identity — the service's cache and the artifact store's
/// filenames both key on this value.
[[nodiscard]] std::uint64_t ModelHashOfGraph(const topo::SwitchGraph& graph);

}  // namespace commsched::svc
