#include "service/daemon.h"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <istream>
#include <ostream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "obs/request.h"
#include "obs/rolling.h"
#include "obs/trace.h"

namespace commsched::svc {
namespace {

std::atomic<bool> g_drain_signalled{false};

void DrainSignalHandler(int /*signo*/) {
  g_drain_signalled.store(true, std::memory_order_relaxed);
}

std::uint64_t ElapsedNanos(std::chrono::steady_clock::time_point from,
                           std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Splices `,"req":"<id>","timings":{...}` into a finished response line,
/// just before its closing brace. The reported stages (including the
/// "other_ns" remainder) sum exactly to total_ns.
std::string SpliceTimings(std::string response, const obs::RequestContext& context,
                          std::uint64_t total_ns) {
  if (response.empty() || response.back() != '}') return response;
  const std::uint64_t instrumented = context.InstrumentedNanos();
  std::string extra = ",\"req\":\"" + JsonEscape(context.id()) + "\",\"timings\":{";
  extra += "\"total_ns\":" + std::to_string(total_ns);
  for (std::size_t s = 0; s < obs::kRequestStageCount; ++s) {
    const auto stage = static_cast<obs::RequestStage>(s);
    const std::uint64_t ns = stage == obs::RequestStage::kOther
                                 ? (total_ns > instrumented ? total_ns - instrumented : 0)
                                 : context.stage_ns(stage);
    extra += ",\"" + std::string(obs::RequestStageName(stage)) + "\":" + std::to_string(ns);
  }
  extra += "}";
  response.insert(response.size() - 1, extra);
  return response;
}

}  // namespace

void InstallDrainSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = DrainSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: blocked reads see EINTR
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // A TCP client may disappear between request and response; the write
  // error is handled per session, not by process death.
  signal(SIGPIPE, SIG_IGN);
}

bool DrainSignalled() { return g_drain_signalled.load(std::memory_order_relaxed); }

void ResetDrainSignalForTesting() {
  g_drain_signalled.store(false, std::memory_order_relaxed);
}

Daemon::Daemon(SchedulingService& service, DaemonOptions options)
    : service_(service),
      options_(options),
      pool_(options.workers),
      latency_hist_(obs::Registry::Global().GetHistogram("svc.latency_ns")),
      rolling_requests_(obs::RollingRegistry::Global().GetCounter("svc.requests")),
      rolling_errors_(obs::RollingRegistry::Global().GetCounter("svc.errors")),
      rolling_latency_(obs::RollingRegistry::Global().GetHistogram("svc.latency_ns")) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.slow_log_capacity == 0) options_.slow_log_capacity = 1;
  if (!options_.slow_log_path.empty()) {
    slow_log_.open(options_.slow_log_path, std::ios::app);
    if (!slow_log_) {
      throw ConfigError("cannot open slow-request log '" + options_.slow_log_path + "'");
    }
  }
  service_.SetStatusProvider([this] { return StatusSnapshot(); });
}

Daemon::~Daemon() {
  Drain();
  // After the final drain no worker can touch `this`; detach from the
  // service so stats/health on a daemon-less service report unattached.
  service_.SetStatusProvider(nullptr);
}

DaemonStatus Daemon::StatusSnapshot() const {
  DaemonStatus status;
  status.attached = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    status.draining = draining_;
    status.queue_depth = pending_;
    status.served = served_;
  }
  status.running = running_.load(std::memory_order_relaxed);
  status.workers = pool_.thread_count();
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    status.slow_tail.assign(slow_tail_.begin(), slow_tail_.end());
  }
  return status;
}

void Daemon::RecordSlowRequest(const std::string& record) {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  slow_tail_.push_back(record);
  while (slow_tail_.size() > options_.slow_log_capacity) slow_tail_.pop_front();
  if (slow_log_.is_open()) {
    slow_log_ << record << "\n";
    slow_log_.flush();
  }
}

void Daemon::Submit(std::string line, std::function<void(const std::string&)> sink) {
  const auto admitted = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_) {
      served_++;
      obs::Registry::Global().GetCounter("svc.rejected").Add();
      lock.unlock();
      sink(ErrorResponse(SalvageRequestId(line), "service is draining"));
      return;
    }
    // Backpressure: the transport's reader blocks here while the queue is
    // full, so clients see an unread socket/pipe instead of lost requests.
    slot_free_.wait(lock, [this] { return pending_ < options_.queue_capacity; });
    pending_++;
    obs::Registry::Global().GetHistogram("svc.queue.depth_sampled").Record(pending_);
  }
  auto shared_line = std::make_shared<std::string>(std::move(line));
  auto shared_sink = std::make_shared<std::function<void(const std::string&)>>(std::move(sink));
  pool_.Submit([this, shared_line, shared_sink, admitted] {
    Process(*shared_line, admitted, *shared_sink);
  });
}

void Daemon::RejectOverlongLine(const std::function<void(const std::string&)>& sink) {
  obs::Registry::Global().GetCounter("svc.requests").Add();
  obs::Registry::Global().GetCounter("svc.errors").Add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    served_++;
  }
  sink(ErrorResponse("", "request line longer than " + std::to_string(kMaxRequestLineBytes) +
                             " bytes"));
}

void Daemon::Process(const std::string& line,
                     std::chrono::steady_clock::time_point admitted,
                     const std::function<void(const std::string&)>& sink) {
  running_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::Global().GetCounter("svc.requests").Add();
  const auto started = std::chrono::steady_clock::now();
  const std::uint64_t queue_ns = ElapsedNanos(admitted, started);

  std::string response;
  std::string op_name = "?";
  std::string request_id;
  std::uint64_t total_ns = 0;
  auto finished = started;
  try {
    const Request request = ParseRequest(line);
    const std::uint64_t parse_ns = ElapsedNanos(started, std::chrono::steady_clock::now());
    op_name = OpName(request.op);

    // Every served request gets a request id — the client's, or a generated
    // one — that tags its trace events, spans and slow-log record.
    request_id =
        request.id.empty()
            ? "r-" + std::to_string(request_seq_.fetch_add(1, std::memory_order_relaxed) + 1)
            : request.id;
    obs::RequestContext context(request_id);
    context.AddStageNanos(obs::RequestStage::kQueue, queue_ns);
    context.AddStageNanos(obs::RequestStage::kParse, parse_ns);
    const obs::ScopedRequestContext scope(context);

    if (obs::Tracer* t = obs::ActiveTracer()) {
      t->Emit(obs::TraceEvent("svc.request").F("id", request.id).F("op", op_name));
    }
    const std::uint64_t deadline_ms =
        request.deadline_ms != 0 ? request.deadline_ms : options_.default_deadline_ms;
    const std::uint64_t waited_ms = queue_ns / 1'000'000;
    if (deadline_ms != 0 && waited_ms > deadline_ms) {
      obs::Registry::Global().GetCounter("svc.deadline_expired").Add();
      response = ErrorResponse(request.id, "deadline of " + std::to_string(deadline_ms) +
                                               " ms expired after " +
                                               std::to_string(waited_ms) + " ms in queue");
    } else {
      response = service_.Execute(request);
    }
    finished = std::chrono::steady_clock::now();
    total_ns = ElapsedNanos(admitted, finished);
    if (request.want_timings) response = SpliceTimings(std::move(response), context, total_ns);
  } catch (const std::exception& e) {
    obs::Registry::Global().GetCounter("svc.errors").Add();
    response = ErrorResponse(SalvageRequestId(line), e.what());
    finished = std::chrono::steady_clock::now();
    total_ns = ElapsedNanos(admitted, finished);
    if (request_id.empty()) request_id = SalvageRequestId(line);
  }
  // Record before the response leaves: once a client has seen its reply, a
  // scrape must already reflect that request (the e2e tests rely on this).
  const bool failed = response.find("\"ok\":false") != std::string::npos;
  latency_hist_.Record(total_ns);
  if (options_.windowed_metrics) {
    // Reuse the completion timestamp instead of a second clock read — the
    // steady_clock epoch is exactly what obs::NowNanos() reports.
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(finished.time_since_epoch())
            .count());
    rolling_requests_.Add(1, now_ns);
    if (failed) rolling_errors_.Add(1, now_ns);
    rolling_latency_.Record(total_ns, now_ns);
  }
  const std::uint64_t total_ms = total_ns / 1'000'000;
  if (options_.slow_request_ms != 0 && total_ms >= options_.slow_request_ms) {
    obs::Registry::Global().GetCounter("svc.slow_requests").Add();
    JsonObjectWriter record;
    record.Field("req", request_id);
    record.Field("op", op_name);
    record.Field("ms", total_ms);
    record.Field("queue_ms", queue_ns / 1'000'000);
    record.Field("ok", !failed);
    RecordSlowRequest(record.Finish());
  }
  sink(response);
  if (obs::Tracer* t = obs::ActiveTracer()) {
    t->Emit(obs::TraceEvent("svc.response")
                .F("id", SalvageRequestId(line))
                .F("micros", total_ns / 1000));
  }
  running_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_--;
    served_++;
    slot_free_.notify_one();
    if (pending_ == 0) idle_.notify_all();
  }
}

void Daemon::RequestDrain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

bool Daemon::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void Daemon::Drain() {
  RequestDrain();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

std::uint64_t Daemon::served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return served_;
}

namespace {

enum class LineRead { kLine, kOverlong, kEnd };

/// std::getline for request lines, bounded by kMaxRequestLineBytes: an
/// overlong line is consumed through its newline without being kept.
LineRead ReadRequestLine(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf* buffer = in.rdbuf();
  bool any = false;
  bool overlong = false;
  while (true) {
    const int c = buffer->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      break;  // serve an unterminated trailing line, like std::getline
    }
    any = true;
    if (c == '\n') break;
    if (overlong) continue;
    if (line.size() == kMaxRequestLineBytes) {
      overlong = true;
      std::string().swap(line);
      continue;
    }
    line.push_back(static_cast<char>(c));
  }
  if (!any) return LineRead::kEnd;
  return overlong ? LineRead::kOverlong : LineRead::kLine;
}

}  // namespace

int RunStdioServer(SchedulingService& service, const DaemonOptions& options, std::istream& in,
                   std::ostream& out) {
  InstallDrainSignalHandlers();
  Daemon daemon(service, options);
  std::mutex out_mutex;
  const auto respond = [&out, &out_mutex](const std::string& response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response << "\n";
    out.flush();
  };
  std::string line;
  while (!DrainSignalled()) {
    const LineRead read = ReadRequestLine(in, line);
    if (read == LineRead::kEnd) break;
    if (read == LineRead::kOverlong) {
      daemon.RejectOverlongLine(respond);
      continue;
    }
    if (Trim(line).empty()) continue;
    daemon.Submit(line, respond);
  }
  daemon.Drain();
  if (obs::Tracer* t = obs::ActiveTracer()) {
    t->Emit(obs::TraceEvent("svc.drain").F("served", daemon.served()));
  }
  {
    std::lock_guard<std::mutex> lock(out_mutex);
    out.flush();
  }
  return 0;
}

namespace {

/// Buffered line reader over a file descriptor. EINTR is retried unless a
/// drain was signalled (then it reads as EOF, mirroring stdio behaviour).
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// Next line, bounded by kMaxRequestLineBytes like ReadRequestLine: the
  /// buffer never holds more than one limit plus one read chunk.
  LineRead NextLine(std::string& line) {
    line.clear();
    bool overlong = false;
    std::size_t scanned = 0;  // bytes of buffer_ known to hold no newline
    while (true) {
      const std::size_t newline = buffer_.find('\n', scanned);
      if (newline != std::string::npos) {
        overlong = overlong || newline > kMaxRequestLineBytes;
        if (!overlong) line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return overlong ? LineRead::kOverlong : LineRead::kLine;
      }
      if (buffer_.size() > kMaxRequestLineBytes) {
        overlong = true;
        buffer_.clear();
      }
      scanned = buffer_.size();
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR && !DrainSignalled()) continue;
      // EOF (or drain): serve any unterminated trailing line.
      if (overlong) {
        buffer_.clear();
        return LineRead::kOverlong;
      }
      if (!buffer_.empty()) {
        line.swap(buffer_);
        return LineRead::kLine;
      }
      return LineRead::kEnd;
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Writes the whole buffer, retrying partial writes and EINTR.
bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t wrote = ::write(fd, data.data() + sent, data.size() - sent);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;  // client went away; its responses are undeliverable
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// One TCP connection: reads JSONL requests, writes responses; waits for
/// its own in-flight requests before closing so a client that half-closes
/// still receives every answer.
///
/// A connection whose first line is an HTTP GET is served as a one-shot
/// HTTP exchange instead (GET /metrics for Prometheus scrapers, /health and
/// /ready for probes) — the same port speaks both protocols, so operating
/// the daemon needs no second listener.
class TcpSession {
 public:
  TcpSession(int fd, Daemon& daemon) : fd_(fd), daemon_(&daemon) {}

  void Run() {
    FdLineReader reader(fd_);
    std::string line;
    for (LineRead read; (read = reader.NextLine(line)) != LineRead::kEnd;) {
      if (read == LineRead::kOverlong) {
        daemon_->RejectOverlongLine([this](const std::string& response) {
          std::lock_guard<std::mutex> lock(write_mutex_);
          WriteAll(fd_, response + "\n");
        });
        continue;
      }
      if (Trim(line).empty()) continue;
      if (StartsWith(line, "GET ")) {
        ServeHttp(Trim(line), reader);
        break;  // Connection: close
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_++;
      }
      daemon_->Submit(line, [this](const std::string& response) {
        {
          std::lock_guard<std::mutex> lock(write_mutex_);
          WriteAll(fd_, response + "\n");
        }
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_--;
        if (outstanding_ == 0) idle_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
    lock.unlock();
    ::close(fd_);
  }

  /// Forces the reader to EOF (used at drain); responses still flow.
  void ShutdownRead() { ::shutdown(fd_, SHUT_RD); }

 private:
  /// Answers one HTTP GET (request line already read; headers are drained
  /// and ignored) and leaves the connection ready to close.
  void ServeHttp(const std::string& request_line, FdLineReader& reader) {
    std::string header;
    while (reader.NextLine(header) == LineRead::kLine && !Trim(header).empty()) {
    }
    const std::vector<std::string> parts = Split(request_line, ' ');
    const std::string path = parts.size() > 1 ? parts[1] : "/";
    obs::Registry::Global().GetCounter("svc.http.gets").Add();

    std::string status = "200 OK";
    std::string content_type = "application/json";
    std::string body;
    if (path == "/metrics") {
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = daemon_->service().MetricsText();
    } else if (path == "/health") {
      Request request;
      request.op = RequestOp::kHealth;
      body = daemon_->service().Execute(request) + "\n";
    } else if (path == "/ready") {
      Request request;
      request.op = RequestOp::kReady;
      body = daemon_->service().Execute(request) + "\n";
      if (daemon_->draining()) status = "503 Service Unavailable";
    } else {
      status = "404 Not Found";
      content_type = "text/plain; charset=utf-8";
      body = "not found (try /metrics, /health, /ready)\n";
    }
    const std::string response = "HTTP/1.1 " + status + "\r\nContent-Type: " + content_type +
                                 "\r\nContent-Length: " + std::to_string(body.size()) +
                                 "\r\nConnection: close\r\n\r\n" + body;
    std::lock_guard<std::mutex> lock(write_mutex_);
    WriteAll(fd_, response);
  }

  int fd_;
  Daemon* daemon_;
  std::mutex write_mutex_;
  std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t outstanding_ = 0;
};

}  // namespace

int RunTcpServer(SchedulingService& service, const DaemonOptions& options, std::uint16_t port,
                 std::ostream& announce) {
  InstallDrainSignalHandlers();
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) throw ConfigError("cannot create listening socket");
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd);
    throw ConfigError("cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
                      std::strerror(errno));
  }
  if (::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    throw ConfigError("cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  announce << "listening on 127.0.0.1:" << ntohs(addr.sin_port) << "\n" << std::flush;

  Daemon daemon(service, options);
  std::mutex sessions_mutex;
  std::vector<std::shared_ptr<TcpSession>> sessions;
  std::vector<std::thread> session_threads;

  while (!DrainSignalled()) {
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the drain flag
      break;
    }
    auto session = std::make_shared<TcpSession>(client_fd, daemon);
    {
      std::lock_guard<std::mutex> lock(sessions_mutex);
      sessions.push_back(session);
    }
    session_threads.emplace_back([session] { session->Run(); });
  }
  ::close(listen_fd);

  // Drain: no new connections, force open readers to EOF, let every session
  // flush its outstanding responses, then wait for the pool.
  {
    std::lock_guard<std::mutex> lock(sessions_mutex);
    for (auto& session : sessions) session->ShutdownRead();
  }
  for (std::thread& thread : session_threads) thread.join();
  daemon.Drain();
  if (obs::Tracer* t = obs::ActiveTracer()) {
    t->Emit(obs::TraceEvent("svc.drain").F("served", daemon.served()));
  }
  return 0;
}

}  // namespace commsched::svc
