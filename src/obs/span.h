// Span profiling: RAII wall-clock intervals with thread ids and nesting,
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// Spans are deliberately separate from the JSONL Tracer (trace.h): JSONL
// events carry no timestamps so seeded traces stay byte-reproducible,
// whereas spans exist to show where wall-clock time goes. A SpanCollector
// accumulates completed SpanRecords in memory; instrumented code opens
// spans with
//
//   obs::Span span("tabu.seed", "seed", seed_index);
//
// With no collector installed (the default) constructing a Span is a single
// relaxed atomic load and a branch — same cost model as the Tracer guard.
// With a collector installed the begin/end timestamps come from
// steady_clock, nesting depth is tracked per thread, and the destructor
// appends one record under the collector's mutex (safe from ThreadPool
// workers).
//
// A span may also carry a registry Timer, which it always feeds — collector
// or not — with one sample of its lifetime in steady_clock nanoseconds:
//
//   obs::Span span("sim.run", "horizon", cycles, &registry.GetTimer("sim.run"));
//
// A span given a RequestStage also adds its lifetime to that stage of the
// thread's RequestContext (request.h), which served "timings" report:
//   obs::Span span("svc.search", obs::RequestStage::kSearch);
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/request.h"

namespace commsched::obs {

/// One completed span.
struct SpanRecord {
  std::string name;
  std::string arg_key;       // "" when the span carries no argument
  std::string req;           // request id when opened under a RequestContext
  std::uint64_t arg = 0;
  std::uint64_t start_us = 0;  // microseconds since the collector's epoch
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;    // dense per-collector thread index (0 = first)
  std::uint32_t depth = 0;  // nesting depth on its thread at begin time
};

/// Accumulates SpanRecords and renders them as a Chrome trace-event JSON
/// array of complete ("ph":"X") events. Thread-safe.
class SpanCollector {
 public:
  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Microseconds since this collector was constructed.
  [[nodiscard]] std::uint64_t NowMicros() const;

  /// Dense index of the calling thread (registers it on first use).
  std::uint32_t ThreadIndex();

  void Record(SpanRecord record);

  [[nodiscard]] std::size_t size() const;

  /// Completed records sorted by (start, longest-first, tid) — the stable
  /// order the exporter uses.
  [[nodiscard]] std::vector<SpanRecord> Records() const;

  /// Writes the records as one Chrome trace-event JSON array, one event per
  /// line: [\n{...},\n{...}\n]\n. Loadable in Perfetto / chrome://tracing.
  void WriteChromeTrace(std::ostream& out) const;

  [[nodiscard]] std::string ToChromeTraceJson() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::map<std::thread::id, std::uint32_t> thread_index_;
};

namespace internal {
extern std::atomic<SpanCollector*> g_span_collector;
}  // namespace internal

/// Installs `collector` as the process-wide span sink (nullptr disables
/// span profiling). The collector must outlive both its installation and
/// any Span that latched it — install before starting work, uninstall after
/// joining it.
void SetSpanCollector(SpanCollector* collector);

/// The installed collector, or nullptr when span profiling is disabled.
/// This is the hot-path guard: one atomic load.
[[nodiscard]] inline SpanCollector* ActiveSpanCollector() {
  return internal::g_span_collector.load(std::memory_order_acquire);
}

/// RAII span. Latches the active collector at construction; a disabled span
/// (no collector) does nothing further beyond feeding its timer or request
/// stage, if any.
class Span {
 public:
  explicit Span(std::string_view name) : Span(name, {}, 0) {}

  /// A span carrying one named integer argument (seed index, sweep point,
  /// cycle count) that lands in the Chrome event's "args" object. A non-null
  /// `timer` receives one sample of the span's lifetime on destruction.
  Span(std::string_view name, std::string_view arg_key, std::uint64_t arg,
       Timer* timer = nullptr);

  /// A span that also adds its lifetime to `stage` of the current
  /// RequestContext; with neither installed it reads no clock.
  Span(std::string_view name, RequestStage stage);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span();

  /// Sets/overwrites the argument after construction (for outcomes only
  /// known at scope end, e.g. whether a Tabu iteration escaped).
  void SetArg(std::string_view arg_key, std::uint64_t arg);

 private:
  SpanCollector* collector_;  // nullptr = disabled
  Timer* timer_ = nullptr;    // nullptr = no registry timer
  RequestContext* context_ = nullptr;  // nullptr = no request stage
  RequestStage stage_ = RequestStage::kOther;
  std::chrono::steady_clock::time_point start_;  // set when timer_ or context_ is
  SpanRecord record_;
};

/// RAII installation for scoped profiling (tests, CLI commands). Restores
/// the previously installed collector on destruction.
class ScopedSpanCollector {
 public:
  explicit ScopedSpanCollector(SpanCollector& collector)
      : previous_(ActiveSpanCollector()) {
    SetSpanCollector(&collector);
  }
  ScopedSpanCollector(const ScopedSpanCollector&) = delete;
  ScopedSpanCollector& operator=(const ScopedSpanCollector&) = delete;
  ~ScopedSpanCollector() { SetSpanCollector(previous_); }

 private:
  SpanCollector* previous_;
};

}  // namespace commsched::obs
