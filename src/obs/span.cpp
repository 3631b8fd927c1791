#include "obs/span.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace commsched::obs {

namespace {

/// Per-thread nesting depth of open spans. Collector-agnostic: nested scopes
/// on one thread always open/close in LIFO order, so a plain counter is
/// enough even if collectors are swapped mid-run.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

SpanCollector::SpanCollector() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t SpanCollector::NowMicros() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

std::uint32_t SpanCollector::ThreadIndex() {
  const std::thread::id id = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      thread_index_.emplace(id, static_cast<std::uint32_t>(thread_index_.size()));
  return it->second;
}

void SpanCollector::Record(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

std::size_t SpanCollector::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<SpanRecord> SpanCollector::Records() const {
  std::vector<SpanRecord> records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    records = records_;
  }
  // Spans complete (and are appended) innermost-first; sort into begin order
  // with enclosing spans before their children so the export is stable and
  // reads top-down.
  std::stable_sort(records.begin(), records.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_us != b.start_us) return a.start_us < b.start_us;
                     if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                     return a.tid < b.tid;
                   });
  return records;
}

void SpanCollector::WriteChromeTrace(std::ostream& out) const {
  const std::vector<SpanRecord> records = Records();
  out << "[\n";
  for (std::size_t k = 0; k < records.size(); ++k) {
    const SpanRecord& r = records[k];
    std::string line = "{\"name\":\"";
    AppendJsonEscaped(line, r.name);
    line += "\",\"cat\":\"commsched\",\"ph\":\"X\",\"ts\":";
    line += std::to_string(r.start_us);
    line += ",\"dur\":";
    line += std::to_string(r.dur_us);
    line += ",\"pid\":1,\"tid\":";
    line += std::to_string(r.tid);
    line += ",\"args\":{\"depth\":";
    line += std::to_string(r.depth);
    if (!r.req.empty()) {
      line += ",\"req\":\"";
      AppendJsonEscaped(line, r.req);
      line += "\"";
    }
    if (!r.arg_key.empty()) {
      line += ",\"";
      AppendJsonEscaped(line, r.arg_key);
      line += "\":";
      line += std::to_string(r.arg);
    }
    line += "}}";
    if (k + 1 < records.size()) line += ",";
    out << line << "\n";
  }
  out << "]\n";
}

std::string SpanCollector::ToChromeTraceJson() const {
  std::ostringstream out;
  WriteChromeTrace(out);
  return out.str();
}

namespace internal {
std::atomic<SpanCollector*> g_span_collector{nullptr};
}  // namespace internal

void SetSpanCollector(SpanCollector* collector) {
  internal::g_span_collector.store(collector, std::memory_order_release);
}

Span::Span(std::string_view name, std::string_view arg_key, std::uint64_t arg,
           Timer* timer)
    : collector_(ActiveSpanCollector()), timer_(timer) {
  if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  if (collector_ == nullptr) return;
  record_.name.assign(name);
  record_.arg_key.assign(arg_key);
  if (const RequestContext* context = RequestContext::Current()) {
    record_.req = context->id();
  }
  record_.arg = arg;
  record_.tid = collector_->ThreadIndex();
  record_.depth = t_span_depth++;
  record_.start_us = collector_->NowMicros();
}

Span::Span(std::string_view name, RequestStage stage) : Span(name, {}, 0) {
  context_ = RequestContext::Current();
  stage_ = stage;
  if (context_ != nullptr) start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (collector_ != nullptr) {
    record_.dur_us = collector_->NowMicros() - record_.start_us;
    --t_span_depth;
    collector_->Record(std::move(record_));
  }
  if (timer_ == nullptr && context_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  if (timer_ != nullptr) timer_->RecordNanos(ns);
  if (context_ != nullptr) context_->AddStageNanos(stage_, ns);
}

void Span::SetArg(std::string_view arg_key, std::uint64_t arg) {
  if (collector_ == nullptr) return;
  record_.arg_key.assign(arg_key);
  record_.arg = arg;
}

}  // namespace commsched::obs
