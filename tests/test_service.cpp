// Unit tests for the scheduling service: JSON protocol parsing, the
// memoizing LRU caches, execution helpers shared with the CLI, the
// SchedulingService brain, and the Daemon's admission/deadline/drain
// machinery (DESIGN.md §10).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/commsched.h"

namespace commsched {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServiceJson, ParsesNestedDocument) {
  const JsonValue root = ParseJson(
      R"({"s":"a\"b\nA","n":-2.5,"t":true,"f":false,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":7}})");
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("s")->AsString("s"), "a\"b\nA");
  EXPECT_DOUBLE_EQ(root.Find("n")->AsDouble("n"), -2.5);
  EXPECT_TRUE(root.Find("t")->AsBool("t"));
  EXPECT_FALSE(root.Find("f")->AsBool("f"));
  EXPECT_TRUE(root.Find("z")->is_null());
  EXPECT_EQ(root.Find("arr")->AsArray("arr").size(), 3u);
  EXPECT_EQ(root.Find("obj")->Find("k")->AsUint("k"), 7u);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(ServiceJson, RejectsMalformedInput) {
  EXPECT_THROW(ParseJson("{"), ConfigError);
  EXPECT_THROW(ParseJson("{} trailing"), ConfigError);
  EXPECT_THROW(ParseJson("{\"a\":truu}"), ConfigError);
  EXPECT_THROW(ParseJson(""), ConfigError);
  try {
    (void)ParseJson("[1,2,");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
  }
}

TEST(ServiceJson, RejectsNestingBeyondDepthLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(kMaxJsonDepth)).is_array());
  EXPECT_TRUE(ParseJson(R"({"a":[{"b":[]}],"c":{}})").is_object());
  try {
    (void)ParseJson(nested(kMaxJsonDepth + 1));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos) << e.what();
  }
  std::string objects;
  for (std::size_t k = 0; k <= kMaxJsonDepth; ++k) objects += "{\"k\":";
  EXPECT_THROW((void)ParseJson(objects + "1"), ConfigError);
  // The hostile-input reproduction: 100k unclosed brackets used to recurse
  // off the end of the stack.
  EXPECT_THROW((void)ParseJson(std::string(100000, '[')), ConfigError);
}

TEST(ServiceJson, UintRejectsNegativeAndFractional) {
  EXPECT_THROW((void)ParseJson("-3").AsUint("x"), ConfigError);
  EXPECT_THROW((void)ParseJson("2.5").AsUint("x"), ConfigError);
  EXPECT_THROW((void)ParseJson("\"7\"").AsUint("x"), ConfigError);
  EXPECT_EQ(ParseJson("12").AsUint("x"), 12u);
}

TEST(ServiceJson, WriterPreservesOrderAndEscapes) {
  JsonObjectWriter writer;
  writer.Field("id", "a\"b");
  writer.Field("ok", true);
  writer.Field("count", static_cast<std::uint64_t>(3));
  writer.Raw("nested", "{\"x\":1}");
  EXPECT_EQ(writer.Finish(), R"({"id":"a\"b","ok":true,"count":3,"nested":{"x":1}})");
  // A writer round-trips through the parser.
  const JsonValue parsed = ParseJson(writer.Finish());
  EXPECT_EQ(parsed.Find("id")->AsString("id"), "a\"b");
}

TEST(ServiceJson, HashMatchesFnv1aTestVectors) {
  // Canonical FNV-1a 64 vectors — the hash must stay stable across releases
  // because cache keys are logged and compared across processes.
  EXPECT_EQ(svc::HashBytes(""), 14695981039346656037ULL);
  EXPECT_EQ(svc::HashBytes("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(svc::HashBytes("updown:maxdegree|x"), svc::HashBytes("updown:maxdegree|y"));
}

// --------------------------------------------------------------- cache --

TEST(ServiceCache, CountsHitsMissesAndEvictsLru) {
  svc::LruCache<int> cache("test_lru", 2);
  auto build = [](int v) { return [v] { return std::make_shared<const int>(v); }; };
  EXPECT_EQ(*cache.GetOrCompute(1, build(10)), 10);
  EXPECT_EQ(*cache.GetOrCompute(2, build(20)), 20);
  EXPECT_EQ(*cache.GetOrCompute(1, build(99)), 10);  // hit: build not called
  EXPECT_EQ(*cache.GetOrCompute(3, build(30)), 30);  // evicts key 2 (LRU)
  EXPECT_EQ(*cache.GetOrCompute(2, build(21)), 21);  // rebuilt after eviction
  const svc::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(ServiceCache, ConcurrentMissesShareOneBuild) {
  svc::LruCache<int> cache("test_shared", 8);
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<int> seen(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &builds, &seen, t] {
      seen[static_cast<std::size_t>(t)] = *cache.GetOrCompute(42, [&builds] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<const int>(7);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  for (const int value : seen) EXPECT_EQ(value, 7);
}

TEST(ServiceCache, FailedBuildPropagatesAndRetries) {
  svc::LruCache<int> cache("test_retry", 4);
  EXPECT_THROW(cache.GetOrCompute(
                   5, []() -> std::shared_ptr<const int> { throw ConfigError("boom"); }),
               ConfigError);
  // The failed entry was dropped; a later request retries and succeeds.
  EXPECT_EQ(*cache.GetOrCompute(5, [] { return std::make_shared<const int>(5); }), 5);
}

// ---------------------------------------------------------------- exec --

TEST(ServiceExec, EvenClusterSizes) {
  EXPECT_EQ(svc::EvenClusterSizes(16, 4), std::vector<std::size_t>(4, 4));
  EXPECT_THROW(svc::EvenClusterSizes(14, 4), ConfigError);
  EXPECT_THROW(svc::EvenClusterSizes(16, 0), ConfigError);
  // One-switch clusters have no intracluster pair for F_G to average.
  EXPECT_EQ(svc::EvenClusterSizes(12, 6), std::vector<std::size_t>(6, 2));
  EXPECT_THROW(svc::EvenClusterSizes(12, 12), ConfigError);
}

TEST(ServiceExec, MappingSearchNeedsTwoClusters) {
  const dist::DistanceTable table(8, 1.0);
  for (const char* algo : {"tabu", "sd", "random", "sa", "gsa"}) {
    svc::SearchKnobs knobs;
    knobs.algo = algo;
    EXPECT_THROW(static_cast<void>(svc::RunMappingSearch(table, {8}, knobs)), ConfigError)
        << algo;
  }
}

TEST(ServiceExec, CanonicalKnobsResolveDefaultsAndIgnoreParallel) {
  svc::SearchKnobs knobs;
  // The tabu iteration default depends on the switch count (paper: 60 on
  // the 24-switch network, 20 on the 16-switch ones).
  EXPECT_EQ(svc::CanonicalSearchKnobs(knobs, 16), "algo=tabu;seeds=10;iters=20;rng=1");
  EXPECT_EQ(svc::CanonicalSearchKnobs(knobs, 24), "algo=tabu;seeds=10;iters=60;rng=1");
  svc::SearchKnobs parallel = knobs;
  parallel.parallel_seeds = true;  // determinism contract: identical results
  EXPECT_EQ(svc::CanonicalSearchKnobs(parallel, 16), svc::CanonicalSearchKnobs(knobs, 16));
  svc::SearchKnobs bad;
  bad.algo = "bogus";
  EXPECT_THROW(svc::CanonicalSearchKnobs(bad, 16), ConfigError);
}

TEST(ServiceExec, DefaultedKnobsEqualTheirEffectiveValues) {
  const topo::SwitchGraph graph = topo::MakeMixedDensity16();
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const std::vector<std::size_t> sizes(4, 4);
  struct Case {
    const char* algo;
    std::optional<std::size_t> seeds, iterations, samples;
    const char* key;
  };
  // Each searcher's documented defaults on 16 switches, spelled out.
  const Case cases[] = {
      {"tabu", 10, 20, std::nullopt, "algo=tabu;seeds=10;iters=20;rng=1"},
      {"sd", 10, 1000, std::nullopt, "algo=sd;seeds=10;iters=1000;rng=1"},
      {"random", std::nullopt, std::nullopt, 1000, "algo=random;samples=1000;rng=1"},
      {"sa", 1, 20000, std::nullopt, "algo=sa;seeds=1;iters=20000;rng=1"},
      {"gsa", 1, 200, std::nullopt, "algo=gsa;seeds=1;iters=200;rng=1"},
  };
  for (const Case& c : cases) {
    svc::SearchKnobs defaulted;
    defaulted.algo = c.algo;
    svc::SearchKnobs spelled = defaulted;
    spelled.seeds = c.seeds;
    spelled.iterations = c.iterations;
    spelled.samples = c.samples;
    EXPECT_EQ(svc::CanonicalSearchKnobs(defaulted, 16), c.key);
    EXPECT_EQ(svc::CanonicalSearchKnobs(spelled, 16), c.key);
    EXPECT_EQ(sched::FormatSearchResult(svc::RunMappingSearch(table, sizes, defaulted)),
              sched::FormatSearchResult(svc::RunMappingSearch(table, sizes, spelled)))
        << c.algo;
  }
  svc::MultilevelKnobs ml;
  ml.processes = 300;
  svc::MultilevelKnobs ml_spelled = ml;
  ml_spelled.seeds = 4;
  const char* const ml_key =
      "ml=1;procs=300;pattern=grid;pattern_seed=1;coarsen=0;budget=0;seeds=4;iters=0;rng=1;"
      "distance=resistance";
  EXPECT_EQ(svc::CanonicalMultilevelKnobs(ml), ml_key);
  EXPECT_EQ(svc::CanonicalMultilevelKnobs(ml_spelled), ml_key);
}

TEST(ServiceExec, RunMappingSearchMatchesDirectTabu) {
  const topo::SwitchGraph graph = topo::MakeMixedDensity16();
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const std::vector<std::size_t> sizes(4, 4);

  const sched::SearchResult via_exec = svc::RunMappingSearch(table, sizes, svc::SearchKnobs{});
  sched::TabuOptions options;  // the CLI defaults, spelled out
  options.seeds = 10;
  options.max_iterations_per_seed = 20;
  options.rng_seed = 1;
  const sched::SearchResult direct = sched::TabuSearch(table, sizes, options);
  EXPECT_EQ(via_exec.best.ToString(), direct.best.ToString());
  EXPECT_DOUBLE_EQ(via_exec.best_cc, direct.best_cc);
  EXPECT_EQ(sched::FormatSearchResult(via_exec), sched::FormatSearchResult(direct));
}

// ------------------------------------------------------------ protocol --

TEST(ServiceProtocol, ParsesDefaultsAndFields) {
  const svc::Request defaults = svc::ParseRequest(R"({"op":"schedule"})");
  EXPECT_EQ(defaults.op, svc::RequestOp::kSchedule);
  EXPECT_EQ(defaults.topology.kind, "random");
  EXPECT_EQ(defaults.topology.switches, 16u);
  EXPECT_EQ(defaults.apps, 4u);
  EXPECT_EQ(defaults.search.algo, "tabu");
  EXPECT_FALSE(defaults.search.seeds.has_value());
  EXPECT_EQ(defaults.search.rng_seed, 1u);
  EXPECT_EQ(defaults.deadline_ms, 0u);

  const svc::Request full = svc::ParseRequest(
      R"({"id":"r1","op":"simulate","topology":{"kind":"mesh","rows":3,"cols":4},)"
      R"("apps":2,"mapping":"random","mapping_seed":5,"points":3,"min_rate":0.1,)"
      R"("max_rate":0.9,"warmup":100,"measure":400,"vcs":2,"deadline_ms":250})");
  EXPECT_EQ(full.id, "r1");
  EXPECT_EQ(full.topology.kind, "mesh");
  EXPECT_EQ(full.topology.rows, 3u);
  EXPECT_EQ(full.mapping, "random");
  EXPECT_EQ(full.points, 3u);
  EXPECT_DOUBLE_EQ(full.max_rate, 0.9);
  EXPECT_EQ(full.deadline_ms, 250u);
}

TEST(ServiceProtocol, RejectsUnknownKeysAndOps) {
  EXPECT_THROW(svc::ParseRequest(R"({"op":"ping","bogus":1})"), ConfigError);
  EXPECT_THROW(svc::ParseRequest(R"({"op":"launch"})"), ConfigError);
  EXPECT_THROW(svc::ParseRequest(R"({"id":"x"})"), ConfigError);  // no op
  EXPECT_THROW(svc::ParseRequest(R"({"op":"ping","topology":{"sides":3}})"), ConfigError);
}

TEST(ServiceProtocol, SalvagesRequestIdFromBrokenRequests) {
  EXPECT_EQ(svc::SalvageRequestId(R"({"id":"r7","op":"nope"})"), "r7");
  EXPECT_EQ(svc::SalvageRequestId("not json at all"), "");
  EXPECT_EQ(svc::SalvageRequestId(R"({"id":42})"), "");  // non-string id
}

TEST(ServiceProtocol, BuildsEveryTopologyKind) {
  svc::TopologyRequest request;
  request.kind = "rings";
  EXPECT_EQ(svc::BuildTopology(request).switch_count(), 24u);
  request.kind = "mixed";
  EXPECT_EQ(svc::BuildTopology(request).switch_count(), 16u);
  request.kind = "hypercube";
  request.dim = 3;
  EXPECT_EQ(svc::BuildTopology(request).switch_count(), 8u);
  // Inline text canonicalizes to the same model as the generator.
  svc::TopologyRequest text;
  text.kind = "text";
  text.text = topo::ToText(topo::MakeMixedDensity16());
  EXPECT_EQ(topo::ToText(svc::BuildTopology(text)), text.text);
  svc::TopologyRequest bad;
  bad.kind = "klein-bottle";
  EXPECT_THROW(svc::BuildTopology(bad), ConfigError);
}

/// Dimensions the topology builders would assert on are rejected at the
/// request boundary with a ConfigError naming the field.
TEST(ServiceProtocol, RejectsDegenerateTopologyDimensions) {
  const auto error_of = [](const std::string& topology) -> std::string {
    try {
      const svc::Request request =
          svc::ParseRequest(R"({"op":"schedule","topology":)" + topology + "}");
      (void)svc::BuildTopology(request.topology);
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of(R"({"kind":"mesh","rows":0,"cols":0})"), "mesh rows must be >= 1, got 0");
  EXPECT_EQ(error_of(R"({"kind":"mesh","rows":2,"cols":0})"), "mesh cols must be >= 1, got 0");
  EXPECT_EQ(error_of(R"({"kind":"torus","rows":2,"cols":4})"), "torus rows must be >= 3, got 2");
  EXPECT_EQ(error_of(R"({"kind":"torus","rows":3,"cols":1})"), "torus cols must be >= 3, got 1");
  EXPECT_EQ(error_of(R"({"kind":"torus3d","x":3,"y":2,"z":3})"), "torus3d y must be >= 3, got 2");
  EXPECT_EQ(error_of(R"({"kind":"hypercube","dim":0})"), "hypercube dim must be in [1, 20], got 0");
  EXPECT_EQ(error_of(R"({"kind":"hypercube","dim":21})"),
            "hypercube dim must be in [1, 20], got 21");
  // The boundary values themselves build.
  EXPECT_EQ(error_of(R"({"kind":"mesh","rows":1,"cols":1})"), "no error");
  EXPECT_EQ(error_of(R"({"kind":"torus","rows":3,"cols":3})"), "no error");
  EXPECT_EQ(error_of(R"({"kind":"hypercube","dim":1})"), "no error");
}

// ------------------------------------------------------------- service --

TEST(ServiceExecute, PingAndUnknownAlgo) {
  svc::SchedulingService service;
  EXPECT_EQ(service.Execute(svc::ParseRequest(R"({"id":"p","op":"ping"})")),
            R"({"id":"p","ok":true,"op":"ping"})");
  // Execute never throws: failures render as ok:false responses.
  const std::string error =
      service.Execute(svc::ParseRequest(R"({"id":"e","op":"schedule","algo":"bogus"})"));
  const JsonValue parsed = ParseJson(error);
  EXPECT_FALSE(parsed.Find("ok")->AsBool("ok"));
  EXPECT_EQ(parsed.Find("id")->AsString("id"), "e");
  EXPECT_NE(parsed.Find("error")->AsString("error").find("bogus"), std::string::npos);
}

TEST(ServiceExecute, ScheduleCachesModelsAndResults) {
  svc::SchedulingService service;
  const svc::Request request =
      svc::ParseRequest(R"({"id":"s","op":"schedule","topology":{"kind":"mixed"}})");
  const JsonValue first = ParseJson(service.Execute(request));
  EXPECT_TRUE(first.Find("ok")->AsBool("ok"));
  EXPECT_EQ(first.Find("model_cache")->AsString("model_cache"), "miss");
  EXPECT_EQ(first.Find("result_cache")->AsString("result_cache"), "miss");

  const JsonValue repeat = ParseJson(service.Execute(request));
  EXPECT_EQ(repeat.Find("model_cache")->AsString("model_cache"), "hit");
  EXPECT_EQ(repeat.Find("result_cache")->AsString("result_cache"), "hit");
  EXPECT_EQ(repeat.Find("text")->AsString("text"), first.Find("text")->AsString("text"));

  // The response text is the canonical CLI rendering.
  const topo::SwitchGraph graph = topo::MakeMixedDensity16();
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const sched::SearchResult direct =
      svc::RunMappingSearch(table, svc::EvenClusterSizes(16, 4), svc::SearchKnobs{});
  EXPECT_EQ(first.Find("text")->AsString("text"), sched::FormatSearchResult(direct));

  // Same network described as inline text: canonical key, so a cache hit.
  JsonObjectWriter topology;
  topology.Field("kind", "text");
  topology.Field("text", topo::ToText(graph));
  JsonObjectWriter as_text;
  as_text.Field("id", "s2");
  as_text.Field("op", "schedule");
  as_text.Raw("topology", topology.Finish());
  const JsonValue aliased = ParseJson(service.Execute(svc::ParseRequest(as_text.Finish())));
  EXPECT_EQ(aliased.Find("model_cache")->AsString("model_cache"), "hit");
  EXPECT_EQ(aliased.Find("result_cache")->AsString("result_cache"), "hit");
}

// A multilevel "hops" request reads only the graph: it neither looks up
// nor solves a network model, and its text is a direct run over the BFS
// hop table.
TEST(ServiceExecute, MultilevelHopsBuildsNoModel) {
  svc::SchedulingService service;
  const obs::Counter& solves = obs::Registry::Global().GetCounter("svc.model.solve");
  const std::uint64_t solves_before = solves.value();
  const std::uint64_t misses_before = service.TopologyCacheStats().misses;
  const std::string response = service.Execute(svc::ParseRequest(
      R"({"id":"h","op":"schedule","topology":{"kind":"torus3d","x":4,"y":4,"z":4},)"
      R"("multilevel":true,"procs":200,"pattern":"ring","distance":"hops"})"));
  const JsonValue parsed = ParseJson(response);
  ASSERT_TRUE(parsed.Find("ok")->AsBool("ok")) << response;
  EXPECT_EQ(solves.value(), solves_before);
  EXPECT_EQ(service.TopologyCacheStats().misses, misses_before);

  const topo::SwitchGraph graph = topo::MakeTorus3D(4, 4, 4, 4);
  svc::MultilevelKnobs knobs;
  knobs.processes = 200;
  knobs.pattern = "ring";
  knobs.distance = "hops";
  const sched::ml::MultilevelResult direct = svc::RunMultilevelSchedule(
      dist::DistanceTable::BuildGraphHops(graph), graph.hosts_per_switch(), knobs);
  EXPECT_EQ(parsed.Find("text")->AsString("text"),
            svc::FormatMultilevelText(direct, graph.switch_count(), graph.hosts_per_switch()));
}

TEST(ServiceExecute, QualityEvaluatesPartition) {
  svc::SchedulingService service;
  const std::string response = service.Execute(svc::ParseRequest(
      R"({"id":"q","op":"quality","topology":{"kind":"mixed"},)"
      R"("partition":[0,0,0,0,1,1,1,1,2,2,2,2,3,3,3,3]})"));
  const JsonValue parsed = ParseJson(response);
  ASSERT_TRUE(parsed.Find("ok")->AsBool("ok")) << response;

  const topo::SwitchGraph graph = topo::MakeMixedDensity16();
  const route::UpDownRouting routing(graph);
  const dist::DistanceTable table = dist::DistanceTable::Build(routing);
  const qual::Partition partition(
      std::vector<std::size_t>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3});
  const double fg = qual::GlobalSimilarity(table, partition);
  const double dg = qual::GlobalDissimilarity(table, partition);
  EXPECT_EQ(FormatJsonNumber(fg), FormatJsonNumber(parsed.Find("fg")->AsDouble("fg")));
  EXPECT_EQ(FormatJsonNumber(dg / fg), FormatJsonNumber(parsed.Find("cc")->AsDouble("cc")));

  // Wrong-length partitions are rejected per-request, not fatally.
  const JsonValue error = ParseJson(service.Execute(svc::ParseRequest(
      R"({"op":"quality","topology":{"kind":"mixed"},"partition":[0,1]})")));
  EXPECT_FALSE(error.Find("ok")->AsBool("ok"));
}

// Degenerate application counts, and quality partitions with one cluster
// or no two-switch cluster, answer ok:false with a typed message — never a
// leaked contract violation or a division by zero.
TEST(ServiceExecute, DegenerateApplicationCountsAreConfigErrors) {
  svc::SchedulingService service;
  const std::pair<std::string, std::string> cases[] = {
      {R"({"id":"z","op":"schedule","topology":{"kind":"random","switches":12},"apps":0})",
       "application count must be positive"},
      {R"({"id":"z","op":"schedule","topology":{"kind":"random","switches":12},"apps":12})",
       "each application needs at least two switches"},
      {R"({"id":"z","op":"schedule","topology":{"kind":"random","switches":12},"apps":1})",
       "at least two applications"},
      {R"({"id":"z","op":"schedule","topology":{"kind":"random","switches":12},"apps":12,)"
       R"("algo":"sd"})",
       "each application needs at least two switches"},
      {R"({"id":"z","op":"simulate","topology":{"kind":"random","switches":12},"apps":0})",
       "application count must be positive"},
      {R"({"id":"z","op":"simulate","topology":{"kind":"random","switches":12},"apps":12,)"
       R"("mapping":"blocked"})",
       "each application needs at least two switches"},
      {R"({"id":"z","op":"quality","topology":{"kind":"mixed"},)"
       R"("partition":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]})",
       "partition (0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15) needs at least two clusters"},
      {R"({"id":"z","op":"quality","topology":{"kind":"mixed"},)"
       R"("partition":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]})",
       "one of them with two switches"},
  };
  for (const auto& [line, message] : cases) {
    const std::string response = service.Execute(svc::ParseRequest(line));
    const JsonValue parsed = ParseJson(response);
    EXPECT_FALSE(parsed.Find("ok")->AsBool("ok")) << line;
    const std::string error = parsed.Find("error")->AsString("error");
    EXPECT_NE(error.find(message), std::string::npos) << line << ": " << error;
    EXPECT_EQ(response.find("contract violation"), std::string::npos) << line << ": " << response;
  }
}

// Out-of-range sweep knobs answer ok:false naming the knob — never a leaked
// contract violation, and never an ok table of zeros.
TEST(ServiceExecute, BadSweepKnobsAreConfigErrors) {
  svc::SchedulingService service;
  const std::string prefix =
      R"({"id":"s","op":"simulate","topology":{"kind":"random","switches":12},)"
      R"("mapping":"blocked","warmup":100,)";
  const std::pair<std::string, std::string> cases[] = {
      {R"("points":1})", "sweep points must be >= 2 (got 1)"},
      {R"("min_rate":0.5,"max_rate":0.1})", "0 < min_rate < max_rate"},
      {R"("max_rate":-1})", "0 < min_rate < max_rate"},
      {R"("vcs":0})", "sweep vcs must be >= 1 (got 0)"},
      {R"("points":2,"measure":0})", "sweep measure cycles must be >= 1 (got 0)"},
  };
  for (const auto& [knobs, message] : cases) {
    const std::string response = service.Execute(svc::ParseRequest(prefix + knobs));
    const JsonValue parsed = ParseJson(response);
    EXPECT_FALSE(parsed.Find("ok")->AsBool("ok")) << knobs;
    const std::string error = parsed.Find("error")->AsString("error");
    EXPECT_NE(error.find(message), std::string::npos) << knobs << ": " << error;
    EXPECT_EQ(response.find("contract violation"), std::string::npos) << knobs << ": " << response;
  }
}

TEST(ServiceExecute, SimulateRendersSweepPoints) {
  svc::SchedulingService service;
  const std::string response = service.Execute(svc::ParseRequest(
      R"({"id":"m","op":"simulate","topology":{"kind":"random","switches":12},)"
      R"("mapping":"blocked","points":2,"max_rate":0.4,"warmup":500,"measure":1500})"));
  const JsonValue parsed = ParseJson(response);
  ASSERT_TRUE(parsed.Find("ok")->AsBool("ok")) << response;
  EXPECT_EQ(parsed.Find("points")->AsArray("points").size(), 2u);
  const std::string text = parsed.Find("text")->AsString("text");
  EXPECT_NE(text.find("mapping: "), std::string::npos);
  EXPECT_NE(text.find("throughput: "), std::string::npos);
  EXPECT_NE(text.find("| offered |"), std::string::npos);
  // Deterministic: the same request renders byte-identically.
  const JsonValue again = ParseJson(service.Execute(svc::ParseRequest(
      R"({"id":"m","op":"simulate","topology":{"kind":"random","switches":12},)"
      R"("mapping":"blocked","points":2,"max_rate":0.4,"warmup":500,"measure":1500})")));
  EXPECT_EQ(again.Find("text")->AsString("text"), text);
  EXPECT_EQ(again.Find("model_cache")->AsString("model_cache"), "hit");
}

TEST(ServiceExecute, StatsReportsCacheCounters) {
  svc::SchedulingService service;
  (void)service.Execute(svc::ParseRequest(R"({"op":"schedule","topology":{"kind":"mixed"}})"));
  (void)service.Execute(svc::ParseRequest(R"({"op":"schedule","topology":{"kind":"mixed"}})"));
  const JsonValue stats =
      ParseJson(service.Execute(svc::ParseRequest(R"({"id":"st","op":"stats"})")));
  ASSERT_TRUE(stats.Find("ok")->AsBool("ok"));
  EXPECT_EQ(stats.Find("executed")->AsUint("executed"), 3u);
  const JsonValue* topo_cache = stats.Find("topology_cache");
  ASSERT_NE(topo_cache, nullptr);
  EXPECT_EQ(topo_cache->Find("hits")->AsUint("hits"), 1u);
  EXPECT_EQ(topo_cache->Find("misses")->AsUint("misses"), 1u);
  const JsonValue* result_cache = stats.Find("result_cache");
  ASSERT_NE(result_cache, nullptr);
  EXPECT_EQ(result_cache->Find("hits")->AsUint("hits"), 1u);
}

// --------------------------------------------------------------- batch --

TEST(ServiceBatch, ParsesEntriesAndCapturesPerEntryErrors) {
  const svc::Request batch = svc::ParseRequest(
      R"({"id":"f","op":"batch","requests":[)"
      R"({"id":"a","op":"ping"},)"
      R"({"id":"bad","op":"launch"},)"
      R"({"id":"b","op":"stats"}]})");
  EXPECT_EQ(batch.op, svc::RequestOp::kBatch);
  ASSERT_EQ(batch.batch.size(), 3u);
  EXPECT_TRUE(batch.batch[0].error.empty());
  EXPECT_EQ(batch.batch[0].request.id, "a");
  // The malformed middle entry is captured, not dropped, and its id is
  // salvaged for the error response.
  EXPECT_FALSE(batch.batch[1].error.empty());
  EXPECT_EQ(batch.batch[1].salvaged_id, "bad");
  EXPECT_TRUE(batch.batch[2].error.empty());
}

TEST(ServiceBatch, RejectsDegenerateFrames) {
  // requests must be a non-empty array and only valid on op batch.
  EXPECT_THROW(svc::ParseRequest(R"({"op":"batch"})"), ConfigError);
  EXPECT_THROW(svc::ParseRequest(R"({"op":"batch","requests":[]})"), ConfigError);
  EXPECT_THROW(svc::ParseRequest(R"({"op":"ping","requests":[{"op":"ping"}]})"),
               ConfigError);
  // A nested batch is isolated like any other bad entry, not a frame error.
  const svc::Request nested = svc::ParseRequest(
      R"({"id":"n","op":"batch","requests":[{"id":"inner","op":"batch",)"
      R"("requests":[{"op":"ping"}]}]})");
  ASSERT_EQ(nested.batch.size(), 1u);
  EXPECT_NE(nested.batch[0].error.find("batch"), std::string::npos)
      << nested.batch[0].error;
  EXPECT_EQ(nested.batch[0].salvaged_id, "inner");
}

TEST(ServiceBatch, SubResponsesAreByteIdenticalToStandaloneExecution) {
  svc::SchedulingService service;
  const char* kSub[] = {
      R"({"id":"s1","op":"schedule","topology":{"kind":"mixed"}})",
      R"({"id":"p1","op":"ping"})",
      R"({"id":"s2","op":"schedule","topology":{"kind":"mixed"}})",
  };
  // Standalone baseline on a fresh service so cache hit/miss markers align.
  std::vector<std::string> standalone;
  {
    svc::SchedulingService reference;
    for (const char* line : kSub) {
      standalone.push_back(reference.Execute(svc::ParseRequest(line)));
    }
  }
  const std::string frame = std::string(R"({"id":"f","op":"batch","requests":[)") +
                            kSub[0] + "," + kSub[1] + "," + kSub[2] + "]}";
  const std::string text = service.Execute(svc::ParseRequest(frame));
  const JsonValue response = ParseJson(text);
  ASSERT_TRUE(response.Find("ok")->AsBool("ok"));
  EXPECT_EQ(response.Find("op")->AsString("op"), "batch");
  EXPECT_EQ(response.Find("count")->AsUint("count"), 3u);
  EXPECT_EQ(response.Find("failed")->AsUint("failed"), 0u);
  ASSERT_EQ(response.Find("responses")->AsArray("responses").size(), 3u);
  // Sub-responses are embedded raw, so each standalone rendering must occur
  // verbatim — byte-identical — and in admission order.
  std::size_t from = 0;
  for (std::size_t i = 0; i < standalone.size(); ++i) {
    const std::size_t at = text.find(standalone[i], from);
    ASSERT_NE(at, std::string::npos) << "sub-response " << i << " not verbatim in " << text;
    from = at + standalone[i].size();
  }
}

TEST(ServiceBatch, MalformedEntryIsolatedWithBatchIdAndIndex) {
  svc::SchedulingService service;
  const std::string frame =
      R"({"id":"frame9","op":"batch","requests":[)"
      R"({"id":"ok1","op":"ping"},)"
      R"({"id":"broken","op":"ping","bogus_key":1},)"
      R"({"id":"ok2","op":"ping"}]})";
  const JsonValue response = ParseJson(service.Execute(svc::ParseRequest(frame)));
  ASSERT_TRUE(response.Find("ok")->AsBool("ok"));  // the frame succeeds
  EXPECT_EQ(response.Find("failed")->AsUint("failed"), 1u);
  const auto& responses = response.Find("responses")->AsArray("responses");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].Find("ok")->AsBool("ok"));
  EXPECT_TRUE(responses[2].Find("ok")->AsBool("ok"));
  // The error object correlates: salvaged entry id, enclosing batch id, and
  // the entry's index in the frame.
  const JsonValue& error = responses[1];
  EXPECT_FALSE(error.Find("ok")->AsBool("ok"));
  EXPECT_EQ(error.Find("id")->AsString("id"), "broken");
  EXPECT_EQ(error.Find("batch")->AsString("batch"), "frame9");
  EXPECT_EQ(error.Find("index")->AsUint("index"), 1u);
  EXPECT_NE(error.Find("error")->AsString("error").find("bogus_key"), std::string::npos);
}

TEST(ServiceBatch, SharesModelAcrossEntriesInOneFrame) {
  svc::SchedulingService service;
  const std::string frame =
      R"({"id":"f","op":"batch","requests":[)"
      R"({"id":"a","op":"schedule","topology":{"kind":"mixed"}},)"
      R"({"id":"b","op":"quality","topology":{"kind":"mixed"},)"
      R"("partition":[0,0,0,0,1,1,1,1,2,2,2,2,3,3,3,3]}]})";
  (void)service.Execute(svc::ParseRequest(frame));
  // One topology, two sub-requests: exactly one model solve.
  EXPECT_EQ(service.TopologyCacheStats().misses, 1u);
  EXPECT_EQ(service.TopologyCacheStats().hits, 1u);
}

// -------------------------------------------------------------- daemon --

TEST(ServiceDaemon, DeliversEveryResponseExactlyOnce) {
  svc::SchedulingService service;
  svc::DaemonOptions options;
  options.workers = 4;
  options.queue_capacity = 8;
  svc::Daemon daemon(service, options);
  std::mutex mutex;
  std::vector<std::string> responses;
  for (int i = 0; i < 16; ++i) {
    daemon.Submit(R"({"id":"d)" + std::to_string(i) + R"(","op":"ping"})",
                  [&mutex, &responses](const std::string& response) {
                    std::lock_guard<std::mutex> lock(mutex);
                    responses.push_back(response);
                  });
  }
  daemon.Drain();
  EXPECT_EQ(responses.size(), 16u);
  EXPECT_EQ(daemon.served(), 16u);
  std::set<std::string> ids;
  for (const std::string& response : responses) {
    ids.insert(ParseJson(response).Find("id")->AsString("id"));
  }
  EXPECT_EQ(ids.size(), 16u);  // every request answered exactly once
}

TEST(ServiceDaemon, BackpressureBlocksSubmitWhenQueueFull) {
  svc::SchedulingService service;
  svc::DaemonOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  svc::Daemon daemon(service, options);
  std::atomic<int> done{0};
  daemon.Submit(R"({"op":"sleep","ms":150})", [&done](const std::string&) { done++; });
  const auto start = std::chrono::steady_clock::now();
  // The queue slot is held by the sleeping request: this Submit must block
  // until the worker finishes it.
  daemon.Submit(R"({"op":"ping"})", [&done](const std::string&) { done++; });
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 50);
  daemon.Drain();
  EXPECT_EQ(done.load(), 2);
}

TEST(ServiceDaemon, ExpiredDeadlineAnsweredWithError) {
  svc::SchedulingService service;
  svc::DaemonOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  svc::Daemon daemon(service, options);
  std::mutex mutex;
  std::map<std::string, std::string> responses;
  auto sink = [&mutex, &responses](const std::string& response) {
    const JsonValue parsed = ParseJson(response);
    std::lock_guard<std::mutex> lock(mutex);
    responses[parsed.Find("id")->AsString("id")] = response;
  };
  // The worker is busy for 200ms; the 1ms-deadline request behind it must
  // expire in the queue, the no-deadline request must still execute.
  daemon.Submit(R"({"id":"slow","op":"sleep","ms":200})", sink);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // ensure ordering
  daemon.Submit(R"({"id":"late","op":"ping","deadline_ms":1})", sink);
  daemon.Submit(R"({"id":"ok","op":"ping"})", sink);
  daemon.Drain();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(ParseJson(responses["slow"]).Find("ok")->AsBool("ok"));
  EXPECT_TRUE(ParseJson(responses["ok"]).Find("ok")->AsBool("ok"));
  const JsonValue late = ParseJson(responses["late"]);
  EXPECT_FALSE(late.Find("ok")->AsBool("ok"));
  EXPECT_NE(late.Find("error")->AsString("error").find("deadline"), std::string::npos);
}

TEST(ServiceDaemon, RejectsSubmissionsWhileDraining) {
  svc::SchedulingService service;
  svc::Daemon daemon(service);
  daemon.RequestDrain();
  EXPECT_TRUE(daemon.draining());
  std::string response;
  daemon.Submit(R"({"id":"r","op":"ping"})",
                [&response](const std::string& r) { response = r; });
  const JsonValue parsed = ParseJson(response);
  EXPECT_FALSE(parsed.Find("ok")->AsBool("ok"));
  EXPECT_NE(parsed.Find("error")->AsString("error").find("drain"), std::string::npos);
}

TEST(ServiceDaemon, StdioServerAnswersEveryLine) {
  svc::ResetDrainSignalForTesting();
  svc::SchedulingService service;
  std::istringstream in(
      "{\"id\":\"a\",\"op\":\"ping\"}\n"
      "\n"  // blank lines are skipped, not answered
      "this is not json\n"
      "{\"id\":\"b\",\"op\":\"schedule\",\"topology\":{\"kind\":\"mixed\"}}\n"
      "{\"id\":\"c\",\"op\":\"stats\"}\n");
  std::ostringstream out;
  svc::DaemonOptions options;
  options.workers = 2;
  EXPECT_EQ(svc::RunStdioServer(service, options, in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  std::set<std::string> ids;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    const JsonValue parsed = ParseJson(line);  // every line valid JSON
    const JsonValue* id = parsed.Find("id");
    if (id != nullptr) ids.insert(id->AsString("id"));
  }
  EXPECT_EQ(count, 4u);  // 3 ids + 1 id-less parse error
  EXPECT_EQ(ids, (std::set<std::string>{"a", "b", "c"}));
}

/// The hostile-input reproductions through the stdio transport: a 100k-deep
/// bracket line, a line past the byte limit and a zero-sized mesh each get
/// an error reply, and the daemon keeps serving the lines after them.
TEST(ServiceDaemon, StdioServerAnswersHostileLinesAndKeepsServing) {
  svc::ResetDrainSignalForTesting();
  svc::SchedulingService service;
  std::istringstream in(std::string(100000, '[') + "\n" +
                        std::string(svc::kMaxRequestLineBytes + 1, 'x') + "\n" +
                        std::string(svc::kMaxRequestLineBytes, ' ') + "\n" +
                        R"({"id":"m","op":"schedule","topology":{"kind":"mesh","rows":0,"cols":0}})"
                        "\n"
                        R"({"id":"p","op":"ping"})"
                        "\n" +
                        std::string(svc::kMaxRequestLineBytes + 5, '{'));  // unterminated
  std::ostringstream out;
  svc::DaemonOptions options;
  options.workers = 2;
  EXPECT_EQ(svc::RunStdioServer(service, options, in, out), 0);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> errors;
  std::map<std::string, bool> ok_by_id;
  while (std::getline(lines, line)) {
    const JsonValue parsed = ParseJson(line);
    const bool ok = parsed.Find("ok")->AsBool("ok");
    if (const JsonValue* id = parsed.Find("id")) {
      ok_by_id[id->AsString("id")] = ok;
      if (!ok) errors.push_back(parsed.Find("error")->AsString("error"));
    } else {
      EXPECT_FALSE(ok) << line;
      errors.push_back(parsed.Find("error")->AsString("error"));
    }
  }
  EXPECT_EQ(ok_by_id, (std::map<std::string, bool>{{"m", false}, {"p", true}}));
  // Deep nesting, mesh rows and two overlong lines; the all-blank line at
  // exactly the limit is skipped like any blank line.
  ASSERT_EQ(errors.size(), 4u);
  const auto count = [&errors](const std::string& needle) {
    return std::count_if(errors.begin(), errors.end(), [&](const std::string& e) {
      return e.find(needle) != std::string::npos;
    });
  };
  EXPECT_EQ(count("nesting deeper than"), 1);
  EXPECT_EQ(count("mesh rows must be >= 1"), 1);
  EXPECT_EQ(count("request line longer than"), 2);
  EXPECT_EQ(count("contract violation"), 0);
}

/// Captures the daemon's announce line and lets the test wait for it.
class AnnounceBuffer : public std::stringbuf {
 public:
  int sync() override {
    std::lock_guard<std::mutex> lock(mutex_);
    text_ = str();
    ready_.notify_all();
    return 0;
  }

  std::uint16_t WaitForPort() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return text_.find('\n') != std::string::npos; });
    const std::string prefix = "listening on 127.0.0.1:";
    const std::size_t at = text_.find(prefix);
    EXPECT_NE(at, std::string::npos) << text_;
    return static_cast<std::uint16_t>(std::stoul(text_.substr(at + prefix.size())));
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::string text_;
};

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string ReadLineFromFd(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  return line;
}

TEST(ServiceDaemon, TcpServerServesAndDrainsOnSignal) {
  svc::ResetDrainSignalForTesting();
  svc::SchedulingService service;
  svc::DaemonOptions options;
  options.workers = 2;
  AnnounceBuffer announce_buffer;
  std::ostream announce(&announce_buffer);
  int rc = -1;
  std::thread server([&service, &options, &announce, &rc] {
    rc = svc::RunTcpServer(service, options, 0, announce);
  });
  const std::uint16_t port = announce_buffer.WaitForPort();

  const int fd = ConnectLoopback(port);
  const std::string request = "{\"id\":\"t1\",\"op\":\"ping\"}\n{\"id\":\"t2\",\"op\":\"stats\"}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::set<std::string> ids;
  ids.insert(ParseJson(ReadLineFromFd(fd)).Find("id")->AsString("id"));
  ids.insert(ParseJson(ReadLineFromFd(fd)).Find("id")->AsString("id"));
  EXPECT_EQ(ids, (std::set<std::string>{"t1", "t2"}));

  // A line past the byte limit is answered with an error and the same
  // connection keeps serving.
  const std::string overlong = std::string(svc::kMaxRequestLineBytes + 4096, 'x') + "\n" +
                               "{\"id\":\"t3\",\"op\":\"ping\"}\n";
  std::thread writer([fd, &overlong] {
    std::size_t sent = 0;
    while (sent < overlong.size()) {
      const ssize_t wrote = ::write(fd, overlong.data() + sent, overlong.size() - sent);
      if (wrote <= 0) break;
      sent += static_cast<std::size_t>(wrote);
    }
  });
  std::map<std::string, std::string> replies;  // id (or "") -> line
  for (int k = 0; k < 2; ++k) {
    const std::string line = ReadLineFromFd(fd);
    const JsonValue reply = ParseJson(line);
    const JsonValue* id = reply.Find("id");
    replies[id == nullptr ? "" : id->AsString("id")] = line;
  }
  writer.join();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[""].find("request line longer than"), std::string::npos) << replies[""];
  EXPECT_NE(replies["t3"].find("\"ok\":true"), std::string::npos) << replies["t3"];
  ::close(fd);

  // Drain: raise the signal (the handler only sets the flag), then poke the
  // blocked accept with a throwaway connection so the loop re-checks it.
  ::raise(SIGTERM);
  const int poke = ConnectLoopback(port);
  ::close(poke);
  server.join();
  EXPECT_EQ(rc, 0);
  svc::ResetDrainSignalForTesting();
}

}  // namespace
}  // namespace commsched
