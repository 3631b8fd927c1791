#include "obs/trace.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/check.h"
#include "common/json.h"
#include "obs/request.h"

namespace commsched::obs {

namespace {

/// Shortest round-trip rendering; JSON has no NaN/Inf, those become null.
void AppendDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) {
    out += "null";
    return;
  }
  out.append(buf, ptr);
}

}  // namespace

TraceEvent::TraceEvent(std::string_view type) {
  body_ += "\"type\":\"";
  AppendJsonEscaped(body_, type);
  body_ += "\"";
  // Request attribution: while a daemon worker has a RequestContext
  // installed, every event it emits names the request. Non-daemon paths
  // (CLI, tests) have no context, so their traces are byte-unchanged.
  if (const RequestContext* context = RequestContext::Current()) {
    body_ += ",\"req\":\"";
    AppendJsonEscaped(body_, context->id());
    body_ += "\"";
  }
}

TraceEvent& TraceEvent::AppendUint(std::string_view key, std::uint64_t value) {
  body_ += ",\"";
  body_.append(key);
  body_ += "\":";
  body_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::AppendInt(std::string_view key, std::int64_t value) {
  body_ += ",\"";
  body_.append(key);
  body_ += "\":";
  body_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::F(std::string_view key, double value) {
  body_ += ",\"";
  body_.append(key);
  body_ += "\":";
  AppendDouble(body_, value);
  return *this;
}

TraceEvent& TraceEvent::F(std::string_view key, bool value) {
  body_ += ",\"";
  body_.append(key);
  body_ += "\":";
  body_ += value ? "true" : "false";
  return *this;
}

TraceEvent& TraceEvent::F(std::string_view key, std::string_view value) {
  body_ += ",\"";
  body_.append(key);
  body_ += "\":\"";
  AppendJsonEscaped(body_, value);
  body_ += "\"";
  return *this;
}

TraceEvent& TraceEvent::F(std::string_view key, const char* value) {
  return F(key, std::string_view(value));
}

Tracer::Tracer(std::ostream& out) : out_(&out) {}

std::unique_ptr<Tracer> Tracer::OpenFile(const std::string& path) {
  std::unique_ptr<Tracer> tracer(new Tracer());
  tracer->owned_.open(path, std::ios::out | std::ios::trunc);
  if (!tracer->owned_) {
    throw ConfigError("cannot open trace file '" + path + "'");
  }
  tracer->out_ = &tracer->owned_;
  return tracer;
}

void Tracer::Emit(const TraceEvent& event) {
  std::string line;
  line.reserve(event.body().size() + 24);
  const std::lock_guard<std::mutex> lock(mutex_);
  line += "{\"seq\":";
  line += std::to_string(sequence_.fetch_add(1, std::memory_order_relaxed));
  line += ",";
  line += event.body();
  line += "}\n";
  *out_ << line;
}

void Tracer::Flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_->flush();
}

namespace internal {
std::atomic<Tracer*> g_tracer{nullptr};
}  // namespace internal

void SetTracer(Tracer* tracer) {
  internal::g_tracer.store(tracer, std::memory_order_release);
}

}  // namespace commsched::obs
