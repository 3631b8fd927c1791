// The scheduling service: request execution over topology-keyed caches.
//
// SchedulingService is the daemon's brain, independent of any transport:
// given a parsed Request it materializes (or cache-hits) the network model
// — up*/down* routing plus the O(N²) equivalent-distance table — executes
// the op, and renders the response line. The one-shot CLI's schedule and
// simulate run through Execute too, so both front ends share one path. It is safe to call Execute from
// many worker threads; the caches memoize concurrent misses so a burst of
// requests for one topology performs a single resistance solve.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "distance/distance_table.h"
#include "routing/updown.h"
#include "sched/search.h"
#include "service/cache.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "topology/graph.h"

namespace commsched::svc {

class ArtifactStore;

/// An immutable cached network model. The routing holds a pointer into
/// `graph`, so the struct is pinned: heap-allocated, never copied or moved.
struct NetworkModel {
  explicit NetworkModel(topo::SwitchGraph g)
      : graph(std::move(g)), routing(graph), table(dist::DistanceTable::Build(routing)) {}

  /// Restores a model from persisted parts without re-running the routing
  /// BFS or the resistance solves (the artifact-store warm path). Throws
  /// ConfigError when the routing state or the table does not match the
  /// graph's shape, or when a table entry is non-finite or negative.
  NetworkModel(topo::SwitchGraph g, route::UpDownState state, dist::DistanceTable t);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  topo::SwitchGraph graph;
  route::UpDownRouting routing;
  dist::DistanceTable table;
};

/// A memoized finished mapping search: the result plus its canonical CLI
/// rendering.
struct ScheduleOutcome {
  sched::SearchResult result;
  std::string text;
};

/// A memoized multilevel mapping (schedule with "multilevel": true).
struct MultilevelOutcome {
  sched::ml::MultilevelResult result;
  std::string text;
};

struct ServiceOptions {
  /// Cached (topology, routing) -> routing + distance-table models.
  std::size_t topology_cache_capacity = 32;
  /// Memoized (model, workload, knobs, seed) -> mapping results.
  std::size_t result_cache_capacity = 1024;
  /// Allows the stats op's {"reset": true} variant (zeroes the registry).
  /// Off by default: a misbehaving client must not erase the daemon's telemetry.
  bool allow_stats_reset = false;
  /// Non-empty enables the on-disk artifact store (DESIGN.md §14): solved
  /// models are persisted there and every artifact present at construction
  /// is decoded straight into the topology cache, so a restarted daemon
  /// serves previously-seen models without a routing or Laplacian re-solve.
  std::string store_dir;
};

/// Live daemon state surfaced through the stats/health/ready ops and the
/// Prometheus exposition. Produced by the serving Daemon's status provider;
/// `attached` is false when the service runs without one (direct Execute
/// calls in tests).
struct DaemonStatus {
  bool attached = false;
  bool draining = false;
  std::uint64_t queue_depth = 0;  // queued + running
  std::uint64_t running = 0;      // currently executing on a worker
  std::uint64_t workers = 0;
  std::uint64_t served = 0;
  /// Most recent slow-request records (rendered JSONL, oldest first).
  std::vector<std::string> slow_tail;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceOptions options = {});
  ~SchedulingService();  // out-of-line: ArtifactStore is incomplete here

  SchedulingService(const SchedulingService&) = delete;
  SchedulingService& operator=(const SchedulingService&) = delete;

  /// Executes one request and returns the response line (no trailing
  /// newline). Never throws: failures become {"ok":false,...} responses.
  /// Thread-safe.
  [[nodiscard]] std::string Execute(const Request& request);

  /// The cached model for a topology (exposed for the load generator and
  /// tests). `model_hash` receives the content hash used as the cache key;
  /// `model_hit` reports whether this call hit the cache. Either may be
  /// null.
  [[nodiscard]] std::shared_ptr<const NetworkModel> GetModel(const TopologyRequest& topology,
                                                             std::uint64_t* model_hash = nullptr,
                                                             bool* model_hit = nullptr);

  [[nodiscard]] CacheStats TopologyCacheStats() const { return models_.Stats(); }
  [[nodiscard]] CacheStats ResultCacheStats() const { return results_.Stats(); }

  /// The artifact store, or nullptr when store_dir was empty.
  [[nodiscard]] const ArtifactStore* store() const { return store_.get(); }
  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Installs (or clears, with nullptr) the callback that reports the
  /// serving daemon's live state. The Daemon installs itself on
  /// construction and clears after its final drain.
  void SetStatusProvider(std::function<DaemonStatus()> provider);

  /// The daemon's live status, or a default (attached = false) one.
  [[nodiscard]] DaemonStatus Status() const;

  /// Prometheus text exposition of the global registry plus the rolling
  /// views and (when attached) daemon gauges. Served by the metrics op and
  /// the daemon's HTTP GET /metrics handler.
  [[nodiscard]] std::string MetricsText() const;

 private:
  [[nodiscard]] std::string ExecuteOrThrow(const Request& request);
  [[nodiscard]] std::string RunSchedule(const Request& request);
  [[nodiscard]] std::string RunQuality(const Request& request);
  [[nodiscard]] std::string RunSimulate(const Request& request);
  [[nodiscard]] std::string RunStats(const Request& request);
  [[nodiscard]] std::string RunHealth(const Request& request);
  [[nodiscard]] std::string RunReady(const Request& request);
  [[nodiscard]] std::string RunMetrics(const Request& request);

  /// Executes every batch entry in admission order on the calling worker
  /// (sub-requests must not re-enter the worker pool: a full pool of
  /// batches waiting on their own sub-tasks would deadlock, and the heavy
  /// solves already parallelize internally). OK entries render exactly the
  /// bytes their standalone request would; malformed entries render error
  /// objects carrying the batch id and entry index.
  [[nodiscard]] std::string RunBatch(const Request& request);

  /// Decodes every artifact in the store into the topology cache (no
  /// hit/miss counted): the first request for a persisted model is then a
  /// cache hit with zero re-solves.
  void WarmBootFromStore();

  /// Memoized mapping search on a model (also serves simulate's op
  /// mapping). `result_hit` reports the memo outcome.
  [[nodiscard]] std::shared_ptr<const ScheduleOutcome> SearchOutcome(
      const NetworkModel& model, std::uint64_t model_hash,
      const std::vector<std::size_t>& cluster_sizes, const SearchKnobs& knobs,
      bool* result_hit);

  /// Multilevel variant of RunSchedule (request.multilevel). Memoized in
  /// ml_results_ under the model hash + CanonicalMultilevelKnobs key.
  [[nodiscard]] std::string RunScheduleMultilevel(const Request& request);

  ServiceOptions options_;
  LruCache<NetworkModel> models_;
  LruCache<ScheduleOutcome> results_;
  LruCache<MultilevelOutcome> ml_results_;
  std::unique_ptr<ArtifactStore> store_;  // null when store_dir is empty
  obs::Counter* solve_counter_;           // svc.model.solve: full cold builds
  std::atomic<std::uint64_t> executed_{0};

  mutable std::mutex status_mutex_;
  std::function<DaemonStatus()> status_provider_;
};

}  // namespace commsched::svc
