// The scheduling daemon: admission control and transports around
// SchedulingService (DESIGN.md §10).
//
// Life of a request:
//   reader --Submit--> bounded admission queue --worker pool--> Execute
//          <--backpressure (Submit blocks while the queue is full)
//                                             --> sink(response line)
//
// * Admission is a counting gate over the ThreadPool (common/parallel.h):
//   at most `queue_capacity` requests are queued-or-running; Submit blocks
//   until a slot frees, which propagates backpressure to the transport —
//   a stdio client stops being read, a TCP client's socket buffer fills.
// * Deadlines: a request carrying deadline_ms that is still waiting when
//   the deadline elapses is answered with an error instead of executed
//   (the clock starts at admission).
// * Drain: RequestDrain() (SIGTERM/SIGINT or transport EOF) stops
//   admission; Drain() then waits for every in-flight request, so no
//   accepted request ever loses its response.
//
// Observability: svc.requests / svc.deadline_expired / svc.rejected
// counters, svc.latency_ns and svc.queue.depth_sampled histograms, and
// svc.request / svc.response / svc.drain trace events.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/parallel.h"
#include "obs/obs.h"
#include "obs/rolling.h"
#include "service/service.h"

namespace commsched::svc {

/// Longest request line the stdio and TCP transports accept. A longer line
/// is read to its newline without being kept and answered with an error, so
/// one client cannot make the daemon buffer unbounded input.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct DaemonOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Maximum requests queued or running before Submit blocks.
  std::size_t queue_capacity = 64;
  /// Deadline applied to requests that do not carry their own (0 = none).
  std::uint64_t default_deadline_ms = 0;
  /// Feed the rolling-window views (req/s, windowed latency percentiles,
  /// DESIGN.md §12) on every served request.
  bool windowed_metrics = true;
  /// Requests slower than this end-to-end land in the slow-request log
  /// (0 = disabled).
  std::uint64_t slow_request_ms = 0;
  /// Optional JSONL file the slow-request records are appended to.
  std::string slow_log_path;
  /// In-memory slow-request ring surfaced through stats/top.
  std::size_t slow_log_capacity = 32;
};

class Daemon {
 public:
  Daemon(SchedulingService& service, DaemonOptions options = {});

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for in-flight requests (same as Drain).
  ~Daemon();

  /// Admits one raw request line. Blocks while the admission queue is full
  /// (backpressure). `sink` is invoked exactly once, from a worker thread,
  /// with the response line (no trailing newline). After RequestDrain the
  /// request is rejected immediately with an error response.
  void Submit(std::string line, std::function<void(const std::string&)> sink);

  /// Answers a line the transport refused to buffer (longer than
  /// kMaxRequestLineBytes) with an error response, on the caller's thread,
  /// without admitting it; counted as a served, failed request.
  void RejectOverlongLine(const std::function<void(const std::string&)>& sink);

  /// Stops admitting new requests (idempotent, signal-safe callers should
  /// use InstallDrainSignalHandlers instead).
  void RequestDrain();

  [[nodiscard]] bool draining() const;

  /// Blocks until every admitted request has been answered.
  void Drain();

  /// Requests answered so far (including error responses).
  [[nodiscard]] std::uint64_t served() const;

  [[nodiscard]] std::size_t worker_count() const { return pool_.thread_count(); }

  /// The service this daemon executes on (for transports that answer
  /// side-channel probes like HTTP GET /metrics directly).
  [[nodiscard]] SchedulingService& service() const { return service_; }

  /// Live state snapshot (also installed as the service's status provider).
  [[nodiscard]] DaemonStatus StatusSnapshot() const;

 private:
  void Process(const std::string& line, std::chrono::steady_clock::time_point admitted,
               const std::function<void(const std::string&)>& sink);

  /// Appends one rendered slow-request record to the ring and the log file.
  void RecordSlowRequest(const std::string& record);

  SchedulingService& service_;
  DaemonOptions options_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  std::condition_variable idle_;
  std::size_t pending_ = 0;  // queued + running
  bool draining_ = false;
  std::uint64_t served_ = 0;

  std::atomic<std::uint64_t> running_{0};      // currently inside Process
  std::atomic<std::uint64_t> request_seq_{0};  // generated request ids

  // Instruments resolved once at construction: the per-request hot path
  // must not take the (mutexed) registry lookup locks. References into the
  // registries' node-based maps are stable for the process lifetime.
  obs::Histogram& latency_hist_;
  obs::RollingCounter& rolling_requests_;
  obs::RollingCounter& rolling_errors_;
  obs::RollingHistogram& rolling_latency_;

  mutable std::mutex slow_mutex_;
  std::deque<std::string> slow_tail_;
  std::ofstream slow_log_;
};

/// Installs SIGTERM/SIGINT handlers (without SA_RESTART, so blocking reads
/// return EINTR) that set a process-wide drain flag.
void InstallDrainSignalHandlers();

/// True once a drain signal arrived.
[[nodiscard]] bool DrainSignalled();

/// Clears the latched drain flag so one test binary can run several
/// servers. Production servers never un-drain.
void ResetDrainSignalForTesting();

/// Serves JSONL requests from `in` to `out` until EOF or a drain signal,
/// then drains and returns 0. Response lines may be interleaved out of
/// request order (match them by id).
int RunStdioServer(SchedulingService& service, const DaemonOptions& options, std::istream& in,
                   std::ostream& out);

/// Serves the same protocol over TCP on 127.0.0.1:`port` (0 = ephemeral).
/// Accepts any number of concurrent connections, each with its own JSONL
/// stream, all sharing one daemon (queue, workers, caches). Announces
/// "listening on 127.0.0.1:<port>" on `announce` once bound. Runs until a
/// drain signal, then drains and returns 0.
int RunTcpServer(SchedulingService& service, const DaemonOptions& options, std::uint16_t port,
                 std::ostream& announce);

}  // namespace commsched::svc
