// End-to-end acceptance test for `commsched_cli serve` (DESIGN.md §10):
// spawns the real binary, drives the JSONL protocol over its stdin/stdout,
// and checks the tentpole guarantees —
//   * a served request's `text` is byte-identical to the one-shot CLI run
//     with the same knobs;
//   * a 64-request concurrent mixed burst gets exactly one response per
//     request and the topology cache converges to hits;
//   * SIGTERM drains cleanly: every admitted request is answered, the
//     process exits 0, no response line is lost or truncated.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/commsched.h"

namespace commsched {
namespace {

std::string TempPath(const std::string& name) {
  // Pid-qualified: ctest runs each e2e test as its own process, and two of
  // them sharing an output file is a clobber race under -j.
  return ::testing::TempDir() + "commsched_e2e_" + std::to_string(getpid()) +
         "_" + name;
}

/// Runs the one-shot CLI, returning its stdout. Asserts exit code 0.
std::string RunCli(const std::string& args) {
  const std::string out_path = TempPath("oneshot.out");
  const std::string command = std::string(COMMSCHED_CLI_PATH) + " " + args + " > " + out_path;
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A `commsched_cli serve` child process with pipes on stdin/stdout.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& extra_args = {}) {
    int to_child[2];
    int from_child[2];
    CS_CHECK(pipe(to_child) == 0 && pipe(from_child) == 0, "pipe failed");
    pid_ = fork();
    CS_CHECK(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      std::vector<std::string> args = {COMMSCHED_CLI_PATH, "serve"};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);  // exec failed
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
  }

  ~ServeProcess() {
    if (stdin_fd_ >= 0) close(stdin_fd_);
    if (stdout_fd_ >= 0) close(stdout_fd_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(write(stdin_fd_, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  /// Blocking read of the next response line ("" on EOF).
  std::string ReadLine() {
    std::string line;
    char c = 0;
    while (true) {
      const ssize_t got = read(stdout_fd_, &c, 1);
      if (got != 1) return line;  // EOF mid-line: caller sees the fragment
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  void CloseStdin() {
    close(stdin_fd_);
    stdin_fd_ = -1;
  }

  void Signal(int signo) { kill(pid_, signo); }

  /// Waits for exit and returns the exit code (-1 on abnormal death).
  int Wait() {
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
};

std::map<std::string, JsonValue> ReadResponses(ServeProcess& serve, std::size_t count) {
  std::map<std::string, JsonValue> by_id;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string line = serve.ReadLine();
    if (line.empty()) break;  // EOF: the caller's count assertion will fire
    JsonValue parsed = ParseJson(line);
    const JsonValue* id = parsed.Find("id");
    if (id == nullptr) {
      ADD_FAILURE() << "response without id: " << line;
      continue;
    }
    by_id.emplace(id->AsString("id"), std::move(parsed));
  }
  return by_id;
}

/// Extracts the ephemeral port from the TCP server's announce line
/// ("listening on 127.0.0.1:<port>").
int AnnouncedPort(ServeProcess& serve) {
  const std::string line = serve.ReadLine();
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) {
    ADD_FAILURE() << "no port in announce line: " << line;
    return -1;
  }
  return std::atoi(line.c_str() + colon + 1);
}

/// Connects to 127.0.0.1:`port`, sends `payload` verbatim, and reads until
/// the peer closes or a newline arrives (`until_eof` picks which).
std::string TcpExchange(int port, const std::string& payload, bool until_eof) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  CS_CHECK(fd >= 0, "socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return "";
  }
  std::size_t written = 0;
  while (written < payload.size()) {
    const ssize_t put = write(fd, payload.data() + written, payload.size() - written);
    if (put <= 0) break;
    written += static_cast<std::size_t>(put);
  }
  std::string reply;
  char buffer[4096];
  while (true) {
    const ssize_t got = read(fd, buffer, sizeof(buffer));
    if (got <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(got));
    if (!until_eof && reply.find('\n') != std::string::npos) break;
  }
  close(fd);
  return reply;
}

std::string TcpJsonLine(int port, const std::string& request) {
  std::string reply = TcpExchange(port, request + "\n", /*until_eof=*/false);
  const std::size_t newline = reply.find('\n');
  if (newline != std::string::npos) reply.resize(newline);
  return reply;
}

std::string HttpGet(int port, const std::string& path) {
  return TcpExchange(port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n",
                     /*until_eof=*/true);
}

TEST(ServiceE2E, ServedTextMatchesOneShotCliByteForByte) {
  ServeProcess serve({"--workers", "2"});
  serve.Send(R"({"id":"sched","op":"schedule","topology":{"kind":"mixed"},"apps":4})");
  serve.Send(
      R"({"id":"sched24","op":"schedule","topology":{"kind":"rings"},"apps":4,"algo":"sd"})");
  serve.Send(
      R"({"id":"sim","op":"simulate","topology":{"kind":"random","switches":12},"apps":4,)"
      R"("mapping":"blocked","points":2,"max_rate":0.4,"warmup":500,"measure":1500})");
  serve.CloseStdin();
  const auto responses = ReadResponses(serve, 3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(serve.Wait(), 0);

  EXPECT_EQ(responses.at("sched").Find("text")->AsString("text"),
            RunCli("schedule --kind mixed --apps 4"));
  EXPECT_EQ(responses.at("sched24").Find("text")->AsString("text"),
            RunCli("schedule --kind rings --apps 4 --algo sd"));
  EXPECT_EQ(responses.at("sim").Find("text")->AsString("text"),
            RunCli("simulate --kind random --switches 12 --apps 4 --mapping blocked "
                   "--points 2 --max-rate 0.4 --warmup 500 --measure 1500"));
}

// Served multilevel schedules, over the resistance table and over hop
// counts, print what the one-shot `schedule --multilevel` prints.
TEST(ServiceE2E, ServedMultilevelTextMatchesOneShotCli) {
  ServeProcess serve({"--workers", "2"});
  serve.Send(R"({"id":"ml","op":"schedule","topology":{"kind":"mixed"},"multilevel":true,)"
             R"("procs":60,"pattern":"grid"})");
  serve.Send(
      R"({"id":"hops","op":"schedule","topology":{"kind":"torus3d","x":4,"y":4,"z":4},)"
      R"("multilevel":true,"procs":200,"pattern":"ring","distance":"hops"})");
  serve.CloseStdin();
  const auto responses = ReadResponses(serve, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(serve.Wait(), 0);

  EXPECT_EQ(responses.at("ml").Find("text")->AsString("text"),
            RunCli("schedule --kind mixed --multilevel --procs 60 --pattern grid"));
  EXPECT_EQ(responses.at("hops").Find("text")->AsString("text"),
            RunCli("schedule --kind torus3d --x 4 --y 4 --z 4 --multilevel --procs 200 "
                   "--pattern ring --distance hops"));
}

// Served experiments print what the one-shot `experiment` prints, with short
// sweeps: on a 16-switch random net, on the 24-switch rings and with two
// applications.
TEST(ServiceE2E, ServedExperimentMatchesOneShotCli) {
  const std::string sweep = R"("randoms":3,"points":3,"max_rate":0.8,"warmup":500,"measure":1500})";
  const std::string flags = " --randoms 3 --points 3 --max-rate 0.8 --warmup 500 --measure 1500";
  ServeProcess serve({"--workers", "2"});
  serve.Send(R"({"id":"random16","op":"experiment","topology":{"kind":"random","switches":16},)" +
             sweep);
  serve.Send(R"({"id":"rings","op":"experiment","topology":{"kind":"rings"},)" + sweep);
  serve.Send(R"({"id":"apps2","op":"experiment","topology":{"kind":"random","switches":16},)"
             R"("apps":2,)" +
             sweep);
  serve.CloseStdin();
  const auto responses = ReadResponses(serve, 3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(serve.Wait(), 0);

  const std::pair<std::string, std::string> cases[] = {
      {"random16", "experiment --kind random --switches 16"},
      {"rings", "experiment --kind rings"},
      {"apps2", "experiment --kind random --switches 16 --apps 2"},
  };
  for (const auto& [id, args] : cases) {
    const JsonValue& served = responses.at(id);
    ASSERT_TRUE(served.Find("ok")->AsBool("ok")) << id << ": "
                                                 << served.Find("error")->AsString("error");
    const std::string text = served.Find("text")->AsString("text");
    EXPECT_NE(text.find("OP / best random throughput: "), std::string::npos) << text;
    EXPECT_EQ(text, RunCli(args + flags)) << id;
  }
}

// A served simulate with Duato routing, telemetry and an inline fault plan
// prints what the one-shot run given the plan file prints, `faults:` line
// included.
TEST(ServiceE2E, ServedFaultedSimulateMatchesOneShotCli) {
  const std::string plan_path =
      std::string(COMMSCHED_TEST_DATA_DIR) + "/faultplan_diff_switch.json";
  std::ifstream plan_in(plan_path);
  ASSERT_TRUE(plan_in.good()) << plan_path;
  std::ostringstream plan_text;
  plan_text << plan_in.rdbuf();
  // One line: a JSONL request cannot carry the file's newlines.
  const std::string plan = faults::FaultPlan::FromJson(plan_text.str()).ToJson();

  ServeProcess serve({"--workers", "1"});
  serve.Send(R"({"id":"sim","op":"simulate","topology":{"kind":"rings"},"apps":4,)"
             R"("mapping":"blocked","points":2,"max_rate":0.4,"warmup":500,"measure":1500,)"
             R"("duato":true,"telemetry":500,"fault_plan":)" +
             plan + "}");
  serve.CloseStdin();
  const auto responses = ReadResponses(serve, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(serve.Wait(), 0);

  const JsonValue& sim = responses.at("sim");
  ASSERT_TRUE(sim.Find("ok")->AsBool("ok")) << sim.Find("error")->AsString("error");
  const std::string text = sim.Find("text")->AsString("text");
  EXPECT_NE(text.find("faults: 1 planned events"), std::string::npos) << text;
  EXPECT_EQ(text, RunCli("simulate --kind rings --apps 4 --mapping blocked --points 2 "
                         "--max-rate 0.4 --warmup 500 --measure 1500 --duato --telemetry 500 "
                         "--fault-plan " +
                         plan_path));
}

TEST(ServiceE2E, ConcurrentMixedBurstAnswersAllAndHitsCache) {
  ServeProcess serve({"--workers", "4", "--queue", "16"});
  std::set<std::string> expected_ids;
  for (int i = 0; i < 64; ++i) {
    const std::string id = "b" + std::to_string(i);
    expected_ids.insert(id);
    switch (i % 4) {
      case 0:
        serve.Send(R"({"id":")" + id +
                   R"(","op":"schedule","topology":{"kind":"mixed"},"apps":4})");
        break;
      case 1:
        serve.Send(R"({"id":")" + id +
                   R"(","op":"schedule","topology":{"kind":"random","switches":12},)"
                   R"("apps":4,"algo":"random","samples":200})");
        break;
      case 2:
        serve.Send(R"({"id":")" + id +
                   R"(","op":"quality","topology":{"kind":"random","switches":12},)"
                   R"("partition":[0,0,0,1,1,1,2,2,2,3,3,3]})");
        break;
      default:
        serve.Send(R"({"id":")" + id + R"(","op":"ping"})");
        break;
    }
  }
  // stats goes last: by the time it is served, earlier duplicates resolved.
  serve.Send(R"({"id":"stats","op":"stats"})");
  serve.CloseStdin();
  const auto responses = ReadResponses(serve, 65);
  ASSERT_EQ(responses.size(), 65u);
  EXPECT_EQ(serve.Wait(), 0);

  for (const std::string& id : expected_ids) {
    ASSERT_TRUE(responses.count(id)) << "lost response for " << id;
    EXPECT_TRUE(responses.at(id).Find("ok")->AsBool("ok")) << id;
  }
  // 64 requests over 2 distinct topologies: the model cache must be hitting.
  const JsonValue& stats = responses.at("stats");
  const JsonValue* model_cache = stats.Find("topology_cache");
  ASSERT_NE(model_cache, nullptr);
  EXPECT_EQ(model_cache->Find("misses")->AsUint("misses"), 2u);
  EXPECT_GT(model_cache->Find("hits")->AsUint("hits"), 0u);
  const JsonValue* result_cache = stats.Find("result_cache");
  ASSERT_NE(result_cache, nullptr);
  EXPECT_GT(result_cache->Find("hits")->AsUint("hits"), 0u);
}

TEST(ServiceE2E, SigtermDrainsWithoutLosingResponses) {
  ServeProcess serve({"--workers", "2"});
  std::set<std::string> expected_ids;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "t" + std::to_string(i);
    expected_ids.insert(id);
    if (i % 3 == 0) {
      serve.Send(R"({"id":")" + id + R"(","op":"sleep","ms":30})");
    } else {
      serve.Send(R"({"id":")" + id +
                 R"(","op":"schedule","topology":{"kind":"mixed"},"apps":4})");
    }
  }
  // Wait until every request has been admitted AND answered, then SIGTERM:
  // the drain contract says the process must still exit 0 with nothing lost.
  const auto responses = ReadResponses(serve, 12);
  ASSERT_EQ(responses.size(), 12u);
  for (const std::string& id : expected_ids) {
    ASSERT_TRUE(responses.count(id)) << "lost response for " << id;
    EXPECT_TRUE(responses.at(id).Find("ok")->AsBool("ok")) << id;
  }
  serve.Signal(SIGTERM);
  EXPECT_EQ(serve.Wait(), 0);
  // After exit, stdout holds no partial line (drain flushed everything).
  EXPECT_EQ(serve.ReadLine(), "");
}

TEST(ServiceE2E, MalformedAndExpiredRequestsGetErrorResponses) {
  ServeProcess serve({"--workers", "1", "--deadline-ms", "60000"});
  serve.Send("{broken json");
  serve.Send(R"({"id":"bad","op":"warp"})");
  serve.Send(R"({"id":"ok","op":"ping"})");
  serve.CloseStdin();
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i) lines.push_back(serve.ReadLine());
  EXPECT_EQ(serve.Wait(), 0);
  std::size_t errors = 0;
  std::size_t oks = 0;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    const JsonValue parsed = ParseJson(line);
    if (parsed.Find("ok")->AsBool("ok")) {
      ++oks;
    } else {
      ++errors;
      EXPECT_NE(parsed.Find("error"), nullptr) << line;
    }
  }
  EXPECT_EQ(oks, 1u);
  EXPECT_EQ(errors, 2u);
}

// Observability acceptance (DESIGN.md §12): the TCP listener speaks both
// JSONL and one-shot HTTP; /metrics is Prometheus text whose counters move
// between scrapes under load; `commsched top --once` renders a dashboard.
TEST(ServiceE2E, HttpMetricsScrapeAndTopDashboard) {
  ServeProcess serve({"--listen", "0", "--workers", "2"});
  const int port = AnnouncedPort(serve);
  ASSERT_GT(port, 0);

  // Drive some traffic over the JSONL side of the same listener.
  const std::string sched = TcpJsonLine(
      port, R"({"id":"s1","op":"schedule","topology":{"kind":"mixed"},"apps":4,"timings":true})");
  const JsonValue parsed = ParseJson(sched);
  ASSERT_TRUE(parsed.Find("ok")->AsBool("ok")) << sched;
  EXPECT_EQ(parsed.Find("req")->AsString("req"), "s1");
  ASSERT_NE(parsed.Find("timings"), nullptr) << sched;

  const std::string scrape1 = HttpGet(port, "/metrics");
  EXPECT_NE(scrape1.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(scrape1.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(scrape1.find("# TYPE commsched_svc_requests_total counter"), std::string::npos);
  EXPECT_NE(scrape1.find("commsched_svc_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(scrape1.find("commsched_svc_requests_rate"), std::string::npos);
  EXPECT_NE(scrape1.find("commsched_svc_queue_depth"), std::string::npos);

  // More load, then a second scrape: the served-request counter must move.
  for (int i = 0; i < 3; ++i) {
    TcpJsonLine(port, R"({"id":"p)" + std::to_string(i) + R"(","op":"ping"})");
  }
  const std::string scrape2 = HttpGet(port, "/metrics");
  const auto counter_of = [](const std::string& scrape) {
    const std::string key = "\ncommsched_svc_requests_total ";
    const std::size_t at = scrape.find(key);
    return at == std::string::npos ? -1 : std::atoi(scrape.c_str() + at + key.size());
  };
  EXPECT_GT(counter_of(scrape2), counter_of(scrape1));
  EXPECT_GE(counter_of(scrape1), 1);

  const std::string health = HttpGet(port, "/health");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  const std::string ready = HttpGet(port, "/ready");
  EXPECT_NE(ready.find("\"ready\":true"), std::string::npos);
  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  // The dashboard polls the same stats op over TCP.
  const std::string top =
      RunCli("top --connect 127.0.0.1:" + std::to_string(port) + " --once");
  EXPECT_NE(top.find("req/s"), std::string::npos) << top;
  EXPECT_NE(top.find("served"), std::string::npos) << top;

  serve.Signal(SIGTERM);
  EXPECT_EQ(serve.Wait(), 0);
}

TEST(ServiceE2E, SlowRequestLogCapturesThresholdedRequests) {
  const std::string log_path = TempPath("slow.jsonl");
  std::remove(log_path.c_str());
  // A wide gap between the threshold and the sleep: a ping on a loaded box
  // must stay under the threshold.
  ServeProcess serve(
      {"--listen", "0", "--workers", "1", "--slow-ms", "100", "--slow-log", log_path});
  const int port = AnnouncedPort(serve);
  ASSERT_GT(port, 0);

  // One request over the threshold, one under: only the sleep is logged.
  TcpJsonLine(port, R"({"id":"slow","op":"sleep","ms":300})");
  TcpJsonLine(port, R"({"id":"fast","op":"ping"})");
  const std::string stats = TcpJsonLine(port, R"({"id":"st","op":"stats"})");
  EXPECT_NE(stats.find("\"slow\":[{"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"req\":\"slow\""), std::string::npos) << stats;

  serve.Signal(SIGTERM);
  EXPECT_EQ(serve.Wait(), 0);

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open()) << log_path;
  std::string record;
  ASSERT_TRUE(static_cast<bool>(std::getline(log, record)));
  EXPECT_NE(record.find("\"req\":\"slow\""), std::string::npos) << record;
  EXPECT_NE(record.find("\"op\":\"sleep\""), std::string::npos) << record;
  std::string second;
  EXPECT_FALSE(static_cast<bool>(std::getline(log, second))) << second;
  std::remove(log_path.c_str());
}

// Batch protocol over the real daemon (DESIGN.md §14): a SIGTERM arriving
// while a batch frame is mid-execution must not truncate it — every
// accepted sub-request completes and the frame's single response line is
// flushed before the process exits 0.
TEST(ServiceE2E, BatchSurvivesSigtermMidExecution) {
  ServeProcess serve({"--workers", "1"});
  std::string frame = R"({"id":"bf","op":"batch","requests":[)";
  for (int i = 0; i < 6; ++i) {
    if (i > 0) frame += ",";
    frame += R"({"id":"e)" + std::to_string(i) + R"(","op":"sleep","ms":40})";
  }
  frame += "]}";
  serve.Send(frame);
  // Give the worker time to start executing, then drain mid-batch.
  usleep(80 * 1000);
  serve.Signal(SIGTERM);
  serve.CloseStdin();

  const std::string line = serve.ReadLine();
  ASSERT_FALSE(line.empty()) << "batch response lost on drain";
  const JsonValue parsed = ParseJson(line);
  EXPECT_TRUE(parsed.Find("ok")->AsBool("ok")) << line;
  EXPECT_EQ(parsed.Find("id")->AsString("id"), "bf");
  EXPECT_EQ(parsed.Find("count")->AsUint("count"), 6u);
  EXPECT_EQ(parsed.Find("failed")->AsUint("failed"), 0u);
  EXPECT_EQ(parsed.Find("responses")->AsArray("responses").size(), 6u);
  EXPECT_EQ(serve.Wait(), 0);
}

TEST(ServiceE2E, BatchErrorEntriesCarryFrameIdAndIndex) {
  ServeProcess serve({"--workers", "2"});
  serve.Send(
      R"({"id":"mix","op":"batch","requests":[)"
      R"({"id":"g1","op":"ping"},)"
      R"({"id":"b1","op":"ping","nope":true},)"
      R"({"id":"g2","op":"schedule","topology":{"kind":"mixed"},"apps":4}]})");
  serve.CloseStdin();
  const std::string line = serve.ReadLine();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(serve.Wait(), 0);
  const JsonValue parsed = ParseJson(line);
  ASSERT_TRUE(parsed.Find("ok")->AsBool("ok")) << line;
  EXPECT_EQ(parsed.Find("failed")->AsUint("failed"), 1u);
  const auto& responses = parsed.Find("responses")->AsArray("responses");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].Find("ok")->AsBool("ok"));
  EXPECT_FALSE(responses[1].Find("ok")->AsBool("ok"));
  EXPECT_EQ(responses[1].Find("id")->AsString("id"), "b1");
  EXPECT_EQ(responses[1].Find("batch")->AsString("batch"), "mix");
  EXPECT_EQ(responses[1].Find("index")->AsUint("index"), 1u);
  EXPECT_TRUE(responses[2].Find("ok")->AsBool("ok"));
  // The good schedule sub-response matches the one-shot CLI byte-for-byte
  // even when it rode through a batch frame.
  EXPECT_EQ(responses[2].Find("text")->AsString("text"),
            RunCli("schedule --kind mixed --apps 4"));
}

}  // namespace
}  // namespace commsched
