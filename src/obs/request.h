// Request-scoped observability context (DESIGN.md §12).
//
// The service daemon installs one RequestContext per request on the worker
// thread that executes it. While installed:
//   * every TraceEvent automatically carries a "req":"<id>" field, so JSONL
//     trace lines of a served request are attributable to it;
//   * every Span records the request id, so the span tree of one request
//     can be reassembled from a SpanCollector;
//   * stage Spans (span.h) accumulate a per-stage wall-clock breakdown
//     (queue wait, parse, model materialization, search, serialize) that the
//     daemon returns in the response's optional "timings" field.
//
// The context is thread-local: it covers the synchronous execution chain on
// the worker thread (service -> exec -> sched -> simnet). A ParallelFor
// issued on a daemon worker runs inline (common/parallel.h), so a served
// request's parallel_seeds and distance build stay on its thread and are
// tagged too.
//
// With no context installed (every non-daemon path: the one-shot CLI, unit
// tests, benches) all hooks are a thread-local pointer load and a branch, and
// emitted bytes are unchanged — golden traces stay byte-identical.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace commsched::obs {

/// Stages of one served request, in breakdown-rendering order. kOther is
/// the remainder (total minus the instrumented stages), so the reported
/// stages always sum exactly to the reported total.
enum class RequestStage : std::size_t {
  kQueue = 0,   // admission-queue wait before a worker picked the request up
  kParse,       // protocol parse
  kModel,       // topology build + routing + distance-table (or cache hit)
  kSearch,      // mapping search / quality evaluation / simulation sweep
  kSerialize,   // response rendering
  kOther,       // everything not covered above (dispatch, bookkeeping)
};

inline constexpr std::size_t kRequestStageCount = 6;

[[nodiscard]] const char* RequestStageName(RequestStage stage);

/// Per-request accumulator. Owned by the daemon for the lifetime of one
/// request; only touched from the worker thread executing that request.
class RequestContext {
 public:
  explicit RequestContext(std::string request_id) : id_(std::move(request_id)) {}

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  [[nodiscard]] const std::string& id() const { return id_; }

  void AddStageNanos(RequestStage stage, std::uint64_t ns) {
    stage_ns_[static_cast<std::size_t>(stage)] += ns;
  }

  [[nodiscard]] std::uint64_t stage_ns(RequestStage stage) const {
    return stage_ns_[static_cast<std::size_t>(stage)];
  }

  /// Sum of every instrumented stage (excluding kOther).
  [[nodiscard]] std::uint64_t InstrumentedNanos() const;

  /// The context installed on the calling thread, or nullptr.
  [[nodiscard]] static RequestContext* Current();

 private:
  friend class ScopedRequestContext;

  std::string id_;
  std::array<std::uint64_t, kRequestStageCount> stage_ns_{};
};

/// RAII installation of a RequestContext as the calling thread's current
/// context. Scopes nest (the previous context is restored), though the
/// daemon uses exactly one per request.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext& context);
  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;
  ~ScopedRequestContext();

 private:
  RequestContext* previous_;
};

}  // namespace commsched::obs
