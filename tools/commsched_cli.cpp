// commsched command-line interface.
//
//   commsched_cli topo     --kind random --switches 16 --seed 1 [--dot]
//   commsched_cli distance --kind rings [--hops]
//   commsched_cli schedule --kind random --switches 16 --apps 4 [--seeds 10]
//                          [--algo tabu|sd|random|sa|gsa] [--parallel-seeds]
//   commsched_cli schedule --kind torus3d --x 10 --y 10 --z 10 --multilevel
//                          --procs 100000 --pattern grid --distance hops
//   commsched_cli simulate --kind rings --apps 4 --mapping op|random|blocked
//                          [--points 9] [--max-rate 1.4] [--vcs 1] [--duato]
//                          [--telemetry N] [--fault-plan plan.json]
//                          [--reconfig-downtime 128]
//   commsched_cli experiment --kind random --switches 16 [--randoms 9]
//   commsched_cli report   --trace run.jsonl [--metrics-file m.json]
//                          [--csv sweep.csv] [--top 5]
//   commsched_cli serve    [--listen PORT] [--workers N] [--slow-ms N]
//                          [--allow-stats-reset] [--store-dir DIR]
//   commsched_cli top      --connect [HOST:]PORT [--interval-ms 1000] [--once]
//
// Observability (any command): --trace <file> streams structured JSONL
// events (search moves/restarts, simulator milestones, sweep points) to the
// file; --metrics prints the global counter/timer registry as one JSON line
// after the command output; --metrics-out <file> writes the same JSON to a
// file; --chrome-trace <file> writes a Chrome trace-event profile of the
// run's spans (load in Perfetto / chrome://tracing).
//
// Topology kinds: random (paper's irregular model), rings (the designed
// 24-switch net), mixed (dense/sparse 16-switch), mesh RxC, torus RxC,
// hypercube D, file <path> (text format of topology/serialize.h).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/commsched.h"

namespace {

using namespace commsched;

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

  [[nodiscard]] std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }

  [[nodiscard]] double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

topo::SwitchGraph BuildTopology(const Args& args) {
  const std::string kind = args.Get("kind", "random");
  if (kind == "random") {
    topo::IrregularTopologyOptions options;
    options.switch_count = args.GetSize("switches", 16);
    options.hosts_per_switch = args.GetSize("hosts", 4);
    options.interswitch_degree = args.GetSize("degree", 3);
    options.seed = args.GetSize("seed", 1);
    return topo::GenerateIrregularTopology(options);
  }
  if (kind == "rings") return topo::MakeFourRingsOfSix(args.GetSize("hosts", 4));
  if (kind == "mixed") return topo::MakeMixedDensity16(args.GetSize("hosts", 4));
  if (kind == "mesh" || kind == "torus") {
    // A torus needs every ring of >= 3 switches to stay a simple graph.
    const std::size_t min = kind == "mesh" ? 1 : 3;
    const std::size_t rows = args.GetSize("rows", 4);
    const std::size_t cols = args.GetSize("cols", 4);
    topo::RequireDimension(kind + " --rows", rows, min);
    topo::RequireDimension(kind + " --cols", cols, min);
    return kind == "mesh" ? topo::MakeMesh2D(rows, cols, args.GetSize("hosts", 4))
                          : topo::MakeTorus2D(rows, cols, args.GetSize("hosts", 4));
  }
  if (kind == "torus3d") {
    const std::size_t x = args.GetSize("x", 4);
    const std::size_t y = args.GetSize("y", 4);
    const std::size_t z = args.GetSize("z", 4);
    topo::RequireDimension("torus3d --x", x, 3);
    topo::RequireDimension("torus3d --y", y, 3);
    topo::RequireDimension("torus3d --z", z, 3);
    return topo::MakeTorus3D(x, y, z, args.GetSize("hosts", 4));
  }
  if (kind == "fattree") {
    const std::size_t k = args.GetSize("k", 4);
    if (k < 2 || k % 2 != 0) {
      throw ConfigError("fattree --k must be even and >= 2, got " + std::to_string(k));
    }
    return topo::MakeFatTree(k, args.GetSize("hosts", 4));
  }
  if (kind == "hypercube") {
    const std::size_t dim = args.GetSize("dim", 4);
    topo::RequireDimension("hypercube --dim", dim, 1, 20);
    return topo::MakeHypercube(dim, args.GetSize("hosts", 4));
  }
  if (kind == "file") {
    const std::string path = args.Get("path", "");
    if (path.empty()) throw ConfigError("--kind file requires --path");
    std::ifstream in(path);
    if (!in) throw ConfigError("cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return topo::FromText(text.str());
  }
  throw ConfigError("unknown topology kind '" + kind + "'");
}

int CmdTopo(const Args& args) {
  const topo::SwitchGraph graph = BuildTopology(args);
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
  const topo::SwitchGraph graph = BuildTopology(args);
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = args.Has("hops")
                                        ? dist::DistanceTable::BuildHopCount(routing)
                                        : dist::DistanceTable::Build(routing);
  std::cout << table.ToCsv();
  return 0;
}

/// The CLI's search knobs, exactly as the scheduling service interprets
/// them — both front ends funnel into svc::RunMappingSearch so a served
/// request is byte-identical to a one-shot run.
svc::SearchKnobs KnobsFromArgs(const Args& args) {
  svc::SearchKnobs knobs;
  knobs.algo = args.Get("algo", "tabu");
  if (args.Has("seeds")) knobs.seeds = args.GetSize("seeds", 0);
  if (args.Has("iters")) knobs.iterations = args.GetSize("iters", 0);
  if (args.Has("samples")) knobs.samples = args.GetSize("samples", 0);
  knobs.rng_seed = args.GetSize("search-seed", 1);
  knobs.parallel_seeds = args.Has("parallel-seeds");
  svc::ValidateSearchKnobs(knobs);  // fail at parse time, not mid-run
  return knobs;
}

/// The multilevel knobs, exactly as the service's schedule op interprets
/// them — both front ends funnel into svc::RunMultilevelSchedule so a
/// served request stays byte-identical to a one-shot run.
svc::MultilevelKnobs MultilevelKnobsFromArgs(const Args& args) {
  svc::MultilevelKnobs knobs;
  knobs.processes = args.GetSize("procs", 0);
  knobs.pattern = args.Get("pattern", "grid");
  knobs.pattern_seed = args.GetSize("pattern-seed", 1);
  knobs.coarsen_target = args.GetSize("coarsen-target", 0);
  knobs.refine_budget = args.GetSize("refine-budget", 0);
  if (args.Has("seeds")) knobs.seeds = args.GetSize("seeds", 0);
  if (args.Has("iters")) knobs.iterations = args.GetSize("iters", 0);
  knobs.rng_seed = args.GetSize("search-seed", 1);
  knobs.distance = args.Get("distance", "resistance");
  svc::ValidateMultilevelKnobs(knobs);
  return knobs;
}

int CmdScheduleMultilevel(const Args& args, const topo::SwitchGraph& graph) {
  const svc::MultilevelKnobs knobs = MultilevelKnobsFromArgs(args);
  const route::UpDownRouting routing(graph);
  // hops skips the O(N^3)-ish resistance solve — required for 1k+ switches.
  const dist::DistanceTable table = knobs.distance == "hops"
                                        ? dist::DistanceTable::BuildGraphHops(graph)
                                        : dist::DistanceTable::Build(routing);
  const sched::ml::MultilevelResult result =
      svc::RunMultilevelSchedule(table, graph.hosts_per_switch(), knobs);
  std::cout << svc::FormatMultilevelText(result, graph.switch_count(),
                                         graph.hosts_per_switch());
  return 0;
}

int CmdSchedule(const Args& args) {
  const topo::SwitchGraph graph = BuildTopology(args);
  if (args.Has("multilevel")) return CmdScheduleMultilevel(args, graph);
  const std::vector<std::size_t> sizes =
      svc::EvenClusterSizes(graph.switch_count(), args.GetSize("apps", 4));
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const sched::SearchResult result =
      svc::RunMappingSearch(table, sizes, KnobsFromArgs(args));
  std::cout << sched::FormatSearchResult(result);
  if (args.Has("dot")) {
    std::cout << topo::ToDot(graph, result.best.cluster_of_switch());
  }
  return 0;
}

int CmdSimulate(const Args& args) {
  const topo::SwitchGraph graph = BuildTopology(args);
  const route::UpDownRouting routing(graph);
  const std::size_t apps = args.GetSize("apps", 4);
  const std::vector<std::size_t> sizes = svc::EvenClusterSizes(graph.switch_count(), apps);
  const work::Workload workload = work::Workload::Uniform(apps, graph.host_count() / apps);

  const std::string mapping_kind = args.Get("mapping", "op");
  std::optional<dist::DistanceTable> table;  // only the op mapping needs it
  if (mapping_kind == "op") table = dist::DistanceTable::Build(routing);
  const qual::Partition partition = svc::ChooseMappingPartition(
      mapping_kind, table.has_value() ? &*table : nullptr, sizes,
      args.GetSize("mapping-seed", 2000), args.Has("parallel-seeds"));
  const auto mapping = work::ProcessMapping::FromPartition(graph, workload, partition);
  const sim::TrafficPattern pattern(graph, workload, mapping);

  sim::SweepOptions sweep;
  sweep.points = args.GetSize("points", 9);
  sweep.min_rate = args.GetDouble("min-rate", 0.08);
  sweep.max_rate = args.GetDouble("max-rate", 1.4);
  sweep.config.virtual_channels = args.GetSize("vcs", 1);
  sweep.config.adaptive_routing = args.Has("adaptive");
  sweep.config.warmup_cycles = args.GetSize("warmup", 5000);
  sweep.config.measure_cycles = args.GetSize("measure", 15000);
  sweep.config.telemetry_sample_cycles = args.GetSize("telemetry", 0);

  std::optional<faults::FaultPlan> plan;  // must outlive the sweep
  const std::string plan_path = args.Get("fault-plan", "");
  if (!plan_path.empty()) {
    std::ifstream plan_in(plan_path);
    if (!plan_in) throw ConfigError("cannot open fault plan '" + plan_path + "'");
    std::ostringstream plan_text;
    plan_text << plan_in.rdbuf();
    plan = faults::FaultPlan::FromJson(plan_text.str());
    plan->ValidateFor(graph);
    sweep.config.fault_plan = &*plan;
    sweep.config.reconfig_downtime_cycles = args.GetSize("reconfig-downtime", 128);
  }

  sim::SweepResult result;
  if (args.Has("duato")) {
    const std::size_t vcs = std::max<std::size_t>(2, sweep.config.virtual_channels);
    sweep.config.virtual_channels = vcs;
    const sim::DuatoFullyAdaptivePolicy policy(graph, vcs);
    result = sim::RunLoadSweep(graph, policy, pattern, sweep);
  } else {
    result = sim::RunLoadSweep(graph, routing, pattern, sweep);
  }

  std::cout << svc::FormatSimulateText(partition, result);
  if (plan.has_value()) {
    std::size_t dropped = 0;
    std::size_t lost = 0;
    std::size_t reconfig = 0;
    for (const sim::SweepPoint& p : result.points) {
      dropped += p.metrics.dropped_flits;
      lost += p.metrics.messages_lost;
      reconfig = std::max(reconfig, p.metrics.reconfig_cycles);
    }
    std::cout << "faults: " << plan->events().size() << " planned events, dropped flits "
              << dropped << ", messages lost " << lost << ", reconfig cycles/run "
              << reconfig << "\n";
  }
  return 0;
}

int CmdExperiment(const Args& args) {
  const topo::SwitchGraph graph = BuildTopology(args);
  core::ExperimentOptions options;
  options.applications = args.GetSize("apps", 4);
  // Typed errors for what the library would reject as contract violations.
  if (options.applications < 2) {
    throw ConfigError("experiment needs at least two applications, got " +
                      std::to_string(options.applications));
  }
  static_cast<void>(svc::EvenClusterSizes(graph.switch_count(), options.applications));
  options.random_mappings = args.GetSize("randoms", 9);
  if (options.random_mappings < 1) {
    throw ConfigError("experiment needs at least one random mapping, got " +
                      std::to_string(options.random_mappings));
  }
  options.sweep.points = args.GetSize("points", 9);
  options.sweep.min_rate = args.GetDouble("min-rate", 0.08);
  options.sweep.max_rate = args.GetDouble("max-rate", 1.4);
  options.sweep.config.warmup_cycles = args.GetSize("warmup", 5000);
  options.sweep.config.measure_cycles = args.GetSize("measure", 15000);
  options.tabu.max_iterations_per_seed = graph.switch_count() >= 20 ? 60 : 20;
  options.tabu.parallel_seeds = args.Has("parallel-seeds");
  const core::ExperimentResult result = core::RunPaperExperiment(graph, options);

  TextTable table({"mapping", "C_c", "throughput", "partition"});
  table.set_precision(4);
  for (const core::MappingEvaluation& eval : result.mappings) {
    table.AddRow({eval.label, eval.cc, eval.Throughput(), eval.partition.ToString()});
  }
  std::cout << table;
  std::cout << "OP / best random throughput: " << result.ThroughputImprovement() << "x\n";
  return 0;
}

int CmdReport(const Args& args) {
  const std::string trace_path = args.Get("trace", "");
  if (trace_path.empty()) throw ConfigError("report requires --trace <file>");
  std::ifstream in(trace_path);
  if (!in) throw ConfigError("cannot open trace file '" + trace_path + "'");
  obs::TraceSummary summary = obs::SummarizeTrace(in);
  const std::string metrics_path = args.Get("metrics-file", "");
  if (!metrics_path.empty()) {
    std::ifstream metrics_in(metrics_path);
    if (!metrics_in) throw ConfigError("cannot open metrics file '" + metrics_path + "'");
    std::ostringstream metrics_text;
    metrics_text << metrics_in.rdbuf();
    if (!obs::LoadMetrics(metrics_text.str(), summary)) {
      throw ConfigError("metrics file '" + metrics_path + "' is not a registry dump");
    }
  }
  obs::RenderReport(summary, std::cout, args.GetSize("top", 5));
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
  svc::ServiceOptions service_options;
  service_options.topology_cache_capacity = args.GetSize("topo-cache", 32);
  service_options.result_cache_capacity = args.GetSize("result-cache", 1024);
  service_options.allow_stats_reset = args.Has("allow-stats-reset");
  service_options.store_dir = args.Get("store-dir", "");
  svc::SchedulingService service(service_options);

  svc::DaemonOptions daemon_options;
  daemon_options.workers = args.GetSize("workers", 0);
  daemon_options.queue_capacity = args.GetSize("queue", 64);
  daemon_options.default_deadline_ms = args.GetSize("deadline-ms", 0);
  daemon_options.windowed_metrics = !args.Has("no-windowed-metrics");
  daemon_options.slow_request_ms = args.GetSize("slow-ms", 0);
  daemon_options.slow_log_path = args.Get("slow-log", "");
  daemon_options.slow_log_capacity = args.GetSize("slow-log-capacity", 32);

  if (args.Has("listen")) {
    const std::size_t port = args.GetSize("listen", 0);
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
  int port = 0;
  try {
    port = std::stoi(port_text);
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
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
      "  schedule   search for a mapping + quality coefficients (--apps K, --seeds N,\n"
      "             --algo tabu|sd|random|sa|gsa, --parallel-seeds, --dot);\n"
      "             --multilevel maps a generated process graph instead:\n"
      "             --procs N processes, --pattern ring|grid|random,\n"
      "             --pattern-seed S, --coarsen-target N, --refine-budget B,\n"
      "             --distance resistance|hops (hops scales to 1k+ switches)\n"
      "  simulate   load sweep for a mapping (--mapping op|random|blocked,\n"
      "             --parallel-seeds for the op search, --vcs V,\n"
      "             --adaptive, --duato, --points P, --max-rate R,\n"
      "             --telemetry N\n"
      "             to sample deep network telemetry every N measured cycles;\n"
      "             --fault-plan F replays a JSON schedule of link/switch\n"
      "             failures mid-run, --reconfig-downtime N sets the routing\n"
      "             pause after each fault)\n"
      "  experiment full paper experiment: OP vs random mappings (--randoms K,\n"
      "             --parallel-seeds)\n"
      "  report     analyse a JSONL trace: latency percentiles, hottest links,\n"
      "             per-seed convergence (--trace F, --metrics-file F, --csv F,\n"
      "             --top K)\n"
      "  serve      scheduling daemon: JSONL requests on stdin -> responses on\n"
      "             stdout (or --listen [PORT] for TCP on 127.0.0.1; PORT 0 or\n"
      "             omitted = ephemeral, announced on stdout). --workers N,\n"
      "             --queue N admission capacity, --deadline-ms N default\n"
      "             deadline, --topo-cache N, --result-cache N. SIGTERM/SIGINT\n"
      "             or stdin EOF drains: every admitted request is answered,\n"
      "             then the process exits 0. See DESIGN.md section 10.\n"
      "             Observability (DESIGN.md section 12): the TCP listener\n"
      "             also answers HTTP GET /metrics (Prometheus), /health and\n"
      "             /ready; --slow-ms N logs requests slower than N ms\n"
      "             (--slow-log F appends them to F as JSONL, --slow-log-\n"
      "             capacity N bounds the in-memory tail); --allow-stats-reset\n"
      "             enables the stats op's {\"reset\":true} variant;\n"
      "             --no-windowed-metrics disables the rolling 10 s views;\n"
      "             --store-dir D persists solved network models to D and\n"
      "             warm-boots from it on restart (DESIGN.md section 14)\n"
      "  top        live dashboard for a serving daemon: --connect [HOST:]PORT,\n"
      "             --interval-ms N refresh period (default 1000), --once\n"
      "             prints a single frame and exits (scripting/tests)\n"
      "observability flags (any command):\n"
      "  --trace F        write a JSONL event trace (search moves, sim milestones,\n"
      "                   net.sample telemetry) to F\n"
      "  --metrics        print the counter/timer/histogram registry as one JSON\n"
      "                   line at the end\n"
      "  --metrics-out F  write the registry JSON to F (readable by report)\n"
      "  --chrome-trace F write a Chrome trace-event span profile to F\n";
  return 2;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "topo") return CmdTopo(args);
  if (command == "distance") return CmdDistance(args);
  if (command == "schedule") return CmdSchedule(args);
  if (command == "simulate") return CmdSimulate(args);
  if (command == "experiment") return CmdExperiment(args);
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
      if (path.empty()) throw ConfigError("--metrics-out requires a file path");
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
