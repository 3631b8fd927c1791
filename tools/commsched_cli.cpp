// commsched command-line interface; run it without arguments for usage.
//
// schedule, simulate and experiment are service requests: argv becomes one
// protocol svc::Request (flag --foo-bar is key "foo_bar"; topology flags
// nest under "topology"; DESIGN.md §10), SchedulingService::Execute runs
// it, and the response's text is the output. topo and distance build their
// graph from the same topology flags.
//
// Observability (any command): --trace <file> streams structured JSONL
// events to the file; --metrics prints the global registry as one JSON line
// after the output; --metrics-out <file> writes the same JSON to a file;
// --chrome-trace <file> writes a Chrome trace-event profile of the run's
// spans (load in Perfetto / chrome://tracing).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/commsched.h"

namespace {

using namespace commsched;

/// Whether all of `text` parses as one integer.
bool ParsesWhole(const std::string& text, std::size_t& value) {
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  return error == std::errc() && stop == end;
}

/// Minimal --flag/--flag value argument parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw ConfigError("expected --flag, got '" + key + "'");
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  [[nodiscard]] bool Has(const std::string& key) const { return values_.count(key) > 0; }

  [[nodiscard]] std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The flag's value, which must be a whole non-negative integer.
  [[nodiscard]] std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t value = 0;
    if (!ParsesWhole(it->second, value)) {
      throw ConfigError("--" + key + " expects a non-negative integer, got '" + it->second + "'");
    }
    return value;
  }

  [[nodiscard]] const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// The whole file; `what` names it in the error.
std::string ReadFile(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + what + " '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Flags that nest under the request's "topology" object.
const std::set<std::string> kTopologyFlags = {"kind", "switches", "hosts", "degree",
                                              "seed", "rows",     "cols",  "dim",
                                              "x",    "y",        "z",     "k"};

/// Flags every command takes; they never reach a request.
const std::set<std::string> kObservabilityFlags = {"trace", "metrics", "metrics-out",
                                                   "chrome-trace"};

/// The flags each command outside the request path reads, besides the
/// observability flags (and the topology flags, for the commands that
/// build a graph). schedule, simulate and experiment flags are checked by
/// the protocol's parser instead.
const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"topo", {"dot"}},
    {"distance", {"hops"}},
    {"report", {"metrics-file", "top", "csv"}},
    {"serve",
     {"topo-cache", "result-cache", "allow-stats-reset", "store-dir", "workers", "queue",
      "deadline-ms", "no-windowed-metrics", "slow-ms", "slow-log", "slow-log-capacity",
      "listen"}},
    {"top", {"connect", "interval-ms", "once"}},
};

/// Most worker threads `serve --workers` may ask for.
constexpr std::size_t kMaxServeWorkers = 256;

/// Throws ConfigError on a flag `command` does not read, before any work.
void CheckCommandFlags(const std::string& command, const Args& args) {
  const auto reads = kCommandFlags.find(command);
  if (reads == kCommandFlags.end()) return;
  const bool builds_graph = command == "topo" || command == "distance";
  for (const auto& [flag, value] : args.values()) {
    if (kObservabilityFlags.count(flag) > 0 || reads->second.count(flag) > 0) continue;
    if (builds_graph && (kTopologyFlags.count(flag) > 0 || flag == "path")) continue;
    throw ConfigError("unknown flag --" + flag + " for " + command);
  }
}

/// A flag's value as a JSON literal: a bare flag is true, numbers and
/// true/false stay literal, anything else is a string.
std::string JsonLiteral(const std::string& value) {
  if (value.empty()) return "true";
  try {
    const JsonValue parsed = ParseJson(value);
    if (parsed.is_number() || parsed.is_bool()) return value;
  } catch (const ConfigError&) {
    // Not a JSON scalar: a string.
  }
  return "\"" + JsonEscape(value) + "\"";
}

/// The topology flags as a protocol "topology" object; `--kind file --path
/// P` inlines P's text as {"kind":"text","text":...}.
std::string TopologyJson(const Args& args) {
  JsonObjectWriter topology;
  for (const auto& [flag, value] : args.values()) {
    if (kTopologyFlags.count(flag) > 0 && !(flag == "kind" && value == "file")) {
      topology.Raw(flag, JsonLiteral(value));
    }
  }
  if (args.Get("kind", "") == "file") {
    const std::string path = args.Get("path", "");
    if (path.empty()) throw ConfigError("--kind file requires --path");
    topology.Field("kind", "text");
    topology.Field("text", ReadFile(path, "topology file"));
  }
  return topology.Finish();
}

topo::SwitchGraph BuildGraph(const Args& args) {
  return svc::BuildTopology(svc::ParseTopology(ParseJson(TopologyJson(args))));
}

/// argv as one protocol request: each flag is the key of its name with '-'
/// spelled '_', and --fault-plan F inlines F's plan. The protocol's parser
/// then applies its field rules, so an unknown flag is an error.
svc::Request ParseArgsRequest(const std::string& op, const Args& args) {
  JsonObjectWriter request;
  request.Field("op", op);
  request.Raw("topology", TopologyJson(args));
  for (const auto& [flag, value] : args.values()) {
    if (kTopologyFlags.count(flag) > 0 || kObservabilityFlags.count(flag) > 0) continue;
    if (flag == "dot" && op == "schedule") continue;
    if (flag == "path" && args.Get("kind", "") == "file") continue;
    std::string key = flag;
    std::replace(key.begin(), key.end(), '-', '_');
    if (key == "op" || key == "topology") throw ConfigError("unknown flag --" + flag);
    request.Raw(key, key == "fault_plan"
                         ? faults::FaultPlan::FromJson(ReadFile(value, "fault plan")).ToJson()
                         : JsonLiteral(value));
  }
  return svc::ParseRequest(request.Finish());
}

int CmdTopo(const Args& args) {
  const topo::SwitchGraph graph = BuildGraph(args);
  if (args.Has("dot")) {
    std::cout << topo::ToDot(graph);
    return 0;
  }
  std::cout << topo::ToText(graph);
  const route::UpDownRouting routing(graph);
  std::cout << "# connected: yes, up*/down* root: " << routing.root()
            << ", deadlock-free: " << (route::IsDeadlockFree(routing) ? "yes" : "no") << "\n";
  return 0;
}

int CmdDistance(const Args& args) {
  const topo::SwitchGraph graph = BuildGraph(args);
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = args.Has("hops")
                                        ? dist::DistanceTable::BuildHopCount(routing)
                                        : dist::DistanceTable::Build(routing);
  std::cout << table.ToCsv();
  return 0;
}

/// schedule, simulate and experiment: one service request, whose text is
/// the output. `schedule --dot` adds the graph coloured by the partition.
int CmdRequest(const std::string& op, const Args& args) {
  const svc::Request request = ParseArgsRequest(op, args);
  svc::SchedulingService service;
  const JsonValue response = ParseJson(service.Execute(request));
  if (!response.Find("ok")->AsBool("ok")) {
    throw ConfigError(response.Find("error")->AsString("error"));
  }
  std::cout << response.Find("text")->AsString("text");
  const JsonValue* partition = response.Find("partition");
  if (args.Has("dot") && partition != nullptr) {
    const topo::SwitchGraph graph = svc::BuildTopology(request.topology);
    // "(0,3) (1,2)": the k-th parenthesised group is cluster k.
    std::vector<std::size_t> cluster_of_switch(graph.switch_count());
    std::size_t cluster = 0;
    std::size_t id = 0;
    for (const char c : partition->AsString("partition")) {
      if (c >= '0' && c <= '9') {
        id = id * 10 + static_cast<std::size_t>(c - '0');
      } else if (c == ',' || c == ')') {
        cluster_of_switch.at(id) = cluster;
        id = 0;
        if (c == ')') ++cluster;
      }
    }
    std::cout << topo::ToDot(graph, cluster_of_switch);
  }
  return 0;
}

int CmdReport(const Args& args) {
  const std::size_t top = args.GetSize("top", 5);
  const std::string trace_path = args.Get("trace", "");
  if (trace_path.empty()) throw ConfigError("report requires --trace <file>");
  std::ifstream in(trace_path);
  if (!in) throw ConfigError("cannot open trace file '" + trace_path + "'");
  obs::TraceSummary summary = obs::SummarizeTrace(in);
  const std::string metrics_path = args.Get("metrics-file", "");
  if (!metrics_path.empty() &&
      !obs::LoadMetrics(ReadFile(metrics_path, "metrics file"), summary)) {
    throw ConfigError("metrics file '" + metrics_path + "' is not a registry dump");
  }
  obs::RenderReport(summary, std::cout, top);
  const std::string csv_path = args.Get("csv", "");
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) throw ConfigError("cannot open csv file '" + csv_path + "'");
    obs::WriteSweepCsv(summary, csv);
    std::cout << "sweep csv: " << csv_path << "\n";
  }
  return 0;
}

int CmdServe(const Args& args) {
  svc::DaemonOptions daemon_options;
  daemon_options.workers = args.GetSize("workers", 0);
  if (daemon_options.workers > kMaxServeWorkers) {
    throw ConfigError("--workers must be at most " + std::to_string(kMaxServeWorkers) +
                      ", got " + std::to_string(daemon_options.workers));
  }
  svc::ServiceOptions service_options;
  service_options.topology_cache_capacity = args.GetSize("topo-cache", 32);
  service_options.result_cache_capacity = args.GetSize("result-cache", 1024);
  service_options.allow_stats_reset = args.Has("allow-stats-reset");
  service_options.store_dir = args.Get("store-dir", "");
  svc::SchedulingService service(service_options);

  daemon_options.queue_capacity = args.GetSize("queue", 64);
  daemon_options.default_deadline_ms = args.GetSize("deadline-ms", 0);
  daemon_options.windowed_metrics = !args.Has("no-windowed-metrics");
  daemon_options.slow_request_ms = args.GetSize("slow-ms", 0);
  daemon_options.slow_log_path = args.Get("slow-log", "");
  daemon_options.slow_log_capacity = args.GetSize("slow-log-capacity", 32);

  if (args.Has("listen")) {
    // A bare --listen asks for an ephemeral port, like --listen 0.
    const std::size_t port = args.Get("listen", "").empty() ? 0 : args.GetSize("listen", 0);
    if (port > 65535) throw ConfigError("--listen port must be 0..65535");
    return svc::RunTcpServer(service, daemon_options, static_cast<std::uint16_t>(port),
                             std::cout);
  }
  return svc::RunStdioServer(service, daemon_options, std::cin, std::cout);
}

/// Opens a TCP connection to "[HOST:]PORT" (HOST defaults to 127.0.0.1,
/// IPv4 literal). Throws ConfigError with the failing target in the message.
int ConnectTcp(const std::string& target) {
  std::string host = "127.0.0.1";
  std::string port_text = target;
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos) {
    host = target.substr(0, colon);
    port_text = target.substr(colon + 1);
  }
  std::size_t port = 0;
  if (!ParsesWhole(port_text, port) || port == 0 || port > 65535) {
    throw ConfigError("bad target '" + target + "' (want [HOST:]PORT)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ConfigError("bad host '" + host + "' (IPv4 literal expected)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ConfigError("cannot create socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw ConfigError("cannot connect to " + host + ":" + port_text + ": " + reason);
  }
  return fd;
}

bool WriteAllFd(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t wrote = ::write(fd, data.data() + sent, data.size() - sent);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// Sends one JSONL request to a serving daemon at "[HOST:]PORT" and returns
/// the response line (one connection per call; `top` refreshes are seconds
/// apart).
std::string TcpJsonRequest(const std::string& target, const std::string& line) {
  const int fd = ConnectTcp(target);
  if (!WriteAllFd(fd, line + "\n")) {
    ::close(fd);
    throw ConfigError("write to daemon failed");
  }
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const std::size_t newline = response.find('\n');
  if (newline == std::string::npos) {
    throw ConfigError("daemon closed the connection without a response");
  }
  return response.substr(0, newline);
}

/// One refresh of the top dashboard: renders a stats response.
void RenderTopFrame(const std::string& target, const JsonValue& stats, std::ostream& out) {
  const auto uint_at = [](const JsonValue* value) -> std::uint64_t {
    return value == nullptr ? 0 : value->AsUint("top field");
  };
  const auto double_at = [](const JsonValue* value) -> double {
    return value == nullptr ? 0.0 : value->AsDouble("top field");
  };
  const auto ms = [](double ns) { return ns / 1e6; };

  const JsonValue* queue = stats.Find("queue");
  const JsonValue* rolling = stats.Find("rolling");
  const JsonValue* rates = rolling != nullptr ? rolling->Find("rates") : nullptr;
  const JsonValue* windows = rolling != nullptr ? rolling->Find("windows") : nullptr;
  const JsonValue* window = windows != nullptr ? windows->Find("svc.latency_ns") : nullptr;
  const JsonValue* cumulative = stats.Find("histograms") != nullptr
                                    ? stats.Find("histograms")->Find("svc.latency_ns")
                                    : nullptr;

  out << "commsched top - " << target;
  if (queue != nullptr) {
    out << "   workers " << uint_at(queue->Find("workers")) << "   draining "
        << (queue->Find("draining") != nullptr && queue->Find("draining")->AsBool("draining")
                ? "yes"
                : "no");
  }
  out << "\n";
  out << "  served " << uint_at(stats.Find("executed"));
  if (queue != nullptr) {
    out << "   inflight " << uint_at(queue->Find("running")) << "   queue "
        << uint_at(queue->Find("depth"));
  }
  if (rates != nullptr) {
    out << "   req/s " << double_at(rates->Find("svc.requests")) << "   err/s "
        << double_at(rates->Find("svc.errors"));
  }
  out << "\n";
  if (window != nullptr) {
    out << "  latency (10s window, " << uint_at(window->Find("count")) << " reqs): p50 "
        << ms(double_at(window->Find("p50"))) << " ms, p99 "
        << ms(double_at(window->Find("p99"))) << " ms";
  }
  if (cumulative != nullptr) {
    out << "   (lifetime p99 " << ms(double_at(cumulative->Find("p99"))) << " ms)";
  }
  if (window != nullptr || cumulative != nullptr) out << "\n";

  const auto cache_line = [&](const char* label, const JsonValue* cache) {
    if (cache == nullptr) return;
    const std::uint64_t hits = uint_at(cache->Find("hits"));
    const std::uint64_t misses = uint_at(cache->Find("misses"));
    const std::uint64_t total = hits + misses;
    out << "  " << label << " cache: " << hits << "/" << total << " hits";
    if (total > 0) {
      out << " (" << 100.0 * static_cast<double>(hits) / static_cast<double>(total) << "%)";
    }
    out << ", size " << uint_at(cache->Find("size")) << "/" << uint_at(cache->Find("capacity"))
        << "\n";
  };
  cache_line("topology", stats.Find("topology_cache"));
  cache_line("result", stats.Find("result_cache"));

  const JsonValue* ops = stats.Find("ops");
  if (ops != nullptr && ops->is_object() && !ops->AsObject("ops").empty()) {
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    for (const auto& [name, value] : ops->AsObject("ops")) {
      counts.emplace_back(name, value.AsUint("ops." + name));
    }
    std::sort(counts.begin(), counts.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out << "  ops:";
    for (const auto& [name, count] : counts) out << " " << name << "=" << count;
    out << "\n";
  }

  const JsonValue* slow = stats.Find("slow");
  if (slow != nullptr && slow->is_array() && !slow->AsArray("slow").empty()) {
    out << "  slow requests (latest last):\n";
    for (const JsonValue& record : slow->AsArray("slow")) {
      out << "   ";
      for (const auto& [key, value] : record.AsObject("slow record")) {
        out << " " << key << "=";
        if (value.is_string()) {
          out << value.AsString(key);
        } else if (value.is_bool()) {
          out << (value.AsBool(key) ? "true" : "false");
        } else {
          out << value.AsDouble(key);
        }
      }
      out << "\n";
    }
  }
}

int CmdTop(const Args& args) {
  const std::string target = args.Get("connect", "");
  if (target.empty()) throw ConfigError("top requires --connect [HOST:]PORT");
  const std::size_t interval_ms = args.GetSize("interval-ms", 1000);
  const bool once = args.Has("once");
  svc::InstallDrainSignalHandlers();  // ctrl-C exits the loop cleanly
  while (true) {
    const std::string response = TcpJsonRequest(target, R"({"id":"top","op":"stats"})");
    const JsonValue stats = ParseJson(response);
    const JsonValue* ok = stats.Find("ok");
    if (ok == nullptr || !ok->AsBool("ok")) {
      throw ConfigError("stats request failed: " + response);
    }
    std::ostringstream frame;
    RenderTopFrame(target, stats, frame);
    if (!once) std::cout << "\x1b[2J\x1b[H";  // clear + home between refreshes
    std::cout << frame.str() << std::flush;
    if (once || svc::DrainSignalled()) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    if (svc::DrainSignalled()) return 0;
  }
}

int Usage() {
  std::cerr <<
      "usage: commsched_cli <topo|distance|schedule|simulate|experiment|report|serve|"
      "top> [--flags]\n"
      "  topo       generate/describe a topology (--kind random|rings|mixed|mesh|torus|\n"
      "             torus3d|fattree|hypercube|file, --switches N, --seed S,\n"
      "             --x/--y/--z torus3d dims, --k fat-tree arity, --dot)\n"
      "  distance   equivalent-distance table as CSV (--hops for hop counts)\n"
      "  schedule   search for a mapping + quality coefficients (--apps K,\n"
      "             --algo tabu|sd|sa|gsa with --seeds N --iters N, or --algo random\n"
      "             with --samples N; --search-seed S, --parallel-seeds, --dot);\n"
      "             --multilevel maps a generated process graph instead:\n"
      "             --procs N processes, --pattern ring|grid|random,\n"
      "             --pattern-seed S, --coarsen-target N, --refine-budget B,\n"
      "             --distance resistance|hops (hops scales to 1k+ switches)\n"
      "  simulate   load sweep for a mapping (--mapping op|random|blocked,\n"
      "             --parallel-seeds for the op search, --vcs V, --adaptive,\n"
      "             --duato, --points P, --max-rate R, --telemetry N samples\n"
      "             network telemetry every N measured cycles, --fault-plan F\n"
      "             replays a JSON schedule of link/switch failures mid-run,\n"
      "             --reconfig-downtime N sets the routing pause after each fault)\n"
      "  experiment full paper experiment: OP vs random mappings (--randoms K,\n"
      "             --mapping-seed S, and simulate's --apps and sweep flags)\n"
      "             schedule, simulate and experiment run as one service request\n"
      "             (the serve protocol's keys, '-' spelled '_')\n"
      "  report     analyse a JSONL trace: latency percentiles, hottest links,\n"
      "             per-seed convergence (--trace F, --metrics-file F, --csv F,\n"
      "             --top K)\n"
      "  serve      scheduling daemon: JSONL requests on stdin -> responses on\n"
      "             stdout, or --listen [PORT] for TCP on 127.0.0.1 (PORT 0 = ephemeral,\n"
      "             announced on stdout); --workers N, --queue N, --deadline-ms N,\n"
      "             --topo-cache N, --result-cache N. SIGTERM/SIGINT or stdin EOF\n"
      "             drains, then exits 0 (DESIGN.md section 10). The TCP listener\n"
      "             also answers HTTP GET /metrics, /health and /ready; --slow-ms N\n"
      "             logs slower requests (--slow-log F, --slow-log-capacity N);\n"
      "             --allow-stats-reset, --no-windowed-metrics; --store-dir D\n"
      "             persists solved models and warm-boots from them (section 14)\n"
      "  top        live dashboard for a serving daemon: --connect [HOST:]PORT,\n"
      "             --interval-ms N refresh period (default 1000), --once\n"
      "             prints a single frame and exits (scripting/tests)\n"
      "observability flags (any command):\n"
      "  --trace F        write a JSONL event trace (search moves, sim milestones,\n"
      "                   net.sample telemetry) to F\n"
      "  --metrics        print the counter/timer/histogram registry as one JSON\n"
      "                   line at the end\n"
      "  --metrics-out F  write the registry JSON to F (readable by report)\n"
      "  --chrome-trace F write a Chrome trace-event span profile to F\n"
      "every command rejects a flag it does not read and a number that does not\n"
      "parse whole, with an error that names the flag\n";
  return 2;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "topo") return CmdTopo(args);
  if (command == "distance") return CmdDistance(args);
  if (command == "schedule" || command == "simulate" || command == "experiment") {
    return CmdRequest(command, args);
  }
  if (command == "report") return CmdReport(args);
  if (command == "serve") return CmdServe(args);
  if (command == "top") return CmdTop(args);
  return Usage();
}

/// Fails fast (typed ConfigError, exit 1) if an output path cannot be
/// written, instead of discovering it after a long run. Opens in append
/// mode so an existing file is not clobbered by the check.
void RequireWritable(const std::string& flag, const std::string& path) {
  if (path.empty()) throw ConfigError("--" + flag + " requires a file path");
  std::ofstream probe(path, std::ios::out | std::ios::app);
  if (!probe) {
    throw ConfigError("cannot open " + flag + " file '" + path + "' for writing");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    CheckCommandFlags(command, args);
    std::unique_ptr<obs::Tracer> tracer;
    std::optional<obs::ScopedTracer> scoped_tracer;
    if (args.Has("trace") && command != "report") {
      const std::string path = args.Get("trace", "");
      if (path.empty()) throw ConfigError("--trace requires a file path");
      tracer = obs::Tracer::OpenFile(path);
      scoped_tracer.emplace(*tracer);
    }
    obs::SpanCollector spans;
    std::optional<obs::ScopedSpanCollector> scoped_spans;
    if (args.Has("chrome-trace")) {
      RequireWritable("chrome-trace", args.Get("chrome-trace", ""));
      scoped_spans.emplace(spans);
    }
    if (args.Has("metrics-out")) {
      RequireWritable("metrics-out", args.Get("metrics-out", ""));
    }
    const int rc = Dispatch(command, args);
    scoped_tracer.reset();  // uninstall before the file closes
    if (tracer != nullptr) tracer->Flush();
    scoped_spans.reset();
    if (rc == 0 && args.Has("chrome-trace")) {
      const std::string path = args.Get("chrome-trace", "");
      std::ofstream out(path);
      if (!out) throw ConfigError("cannot open chrome trace file '" + path + "'");
      spans.WriteChromeTrace(out);
    }
    if (rc == 0 && args.Has("metrics-out")) {
      const std::string path = args.Get("metrics-out", "");
      std::ofstream out(path);
      if (!out) throw ConfigError("cannot open metrics file '" + path + "'");
      out << obs::Registry::Global().ToJson() << "\n";
    }
    if (rc == 0 && args.Has("metrics")) {
      std::cout << obs::Registry::Global().ToJson() << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
