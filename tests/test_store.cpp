// Tests for the content-addressed artifact store (DESIGN.md §14): binary
// round-trips, header/hash corruption and truncation detection, atomic
// writes, model encode/decode fidelity, and the service's warm-boot path
// (a restart must serve a previously-seen model with zero re-solves).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/commsched.h"

namespace commsched {
namespace {

namespace fs = std::filesystem;
using svc::ArtifactKind;
using svc::ArtifactStore;

/// Fresh per-test store directory (removed and recreated so reruns and
/// counter-sharing tests start clean).
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "commsched_store_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string OnlyFile(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "expected exactly one file in " << dir;
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty()) << "expected one file in " << dir;
  return found;
}

void CorruptByteAt(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(Store, PutGetRoundTripsPayloadBytes) {
  ArtifactStore store(FreshDir("roundtrip"));
  const std::string payload = std::string("binary\0payload", 14) + "\xff\x01";
  EXPECT_TRUE(store.Put(ArtifactKind::kModel, 42, payload));
  const auto got = store.Get(ArtifactKind::kModel, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  const svc::StoreStats stats = store.Stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST(Store, MissingKeyIsAMissAndListKeysSeesOnlyArtifacts) {
  const std::string dir = FreshDir("listing");
  ArtifactStore store(dir);
  EXPECT_FALSE(store.Get(ArtifactKind::kModel, 7).has_value());
  EXPECT_EQ(store.Stats().misses, 1u);

  EXPECT_TRUE(store.Put(ArtifactKind::kModel, 0xabcdef0123456789ULL, "a"));
  EXPECT_TRUE(store.Put(ArtifactKind::kModel, 5, "b"));
  // Stray files — a temp leftover and an unrelated name — are not keys.
  std::ofstream(dir + "/.model-0000000000000005.csart.tmp123") << "partial";
  std::ofstream(dir + "/notes.txt") << "hello";
  const std::vector<std::uint64_t> keys = store.ListKeys(ArtifactKind::kModel);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], 5u);
  EXPECT_EQ(keys[1], 0xabcdef0123456789ULL);
}

TEST(Store, FileNameIsStableAndHexPadded) {
  EXPECT_EQ(ArtifactStore::FileName(ArtifactKind::kModel, 5), "model-0000000000000005.csart");
  EXPECT_EQ(ArtifactStore::FileName(ArtifactKind::kModel, 0xabcdef0123456789ULL),
            "model-abcdef0123456789.csart");
}

TEST(Store, DetectsPayloadCorruption) {
  const std::string dir = FreshDir("corrupt");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.Put(ArtifactKind::kModel, 9, "the quick brown fox"));
  const std::string path = OnlyFile(dir);
  CorruptByteAt(path, 40 + 4);  // a payload byte past the 40-byte header

  const svc::VerifyResult verdict = ArtifactStore::VerifyFile(path);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("hash mismatch"), std::string::npos) << verdict.error;

  EXPECT_FALSE(store.Get(ArtifactKind::kModel, 9).has_value());
  EXPECT_EQ(store.Stats().corrupt, 1u);
}

TEST(Store, DetectsTruncationAndBadMagicAndShortHeader) {
  const std::string dir = FreshDir("truncate");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.Put(ArtifactKind::kModel, 11, "0123456789abcdef0123456789"));
  const std::string path = OnlyFile(dir);

  fs::resize_file(path, 40 + 10);  // drop payload tail
  svc::VerifyResult verdict = ArtifactStore::VerifyFile(path);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("size mismatch"), std::string::npos) << verdict.error;
  EXPECT_FALSE(store.Get(ArtifactKind::kModel, 11).has_value());

  fs::resize_file(path, 17);  // not even a whole header
  verdict = ArtifactStore::VerifyFile(path);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("truncated header"), std::string::npos) << verdict.error;

  ASSERT_TRUE(store.Put(ArtifactKind::kModel, 11, "0123456789abcdef0123456789"));
  CorruptByteAt(path, 0);  // magic
  verdict = ArtifactStore::VerifyFile(path);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("bad magic"), std::string::npos) << verdict.error;
}

TEST(Store, PutOverwritesAtomicallyAndLeavesNoTempOnSuccess) {
  const std::string dir = FreshDir("atomic");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.Put(ArtifactKind::kModel, 3, "first"));
  ASSERT_TRUE(store.Put(ArtifactKind::kModel, 3, "second"));
  const auto got = store.Get(ArtifactKind::kModel, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "second");
  // rename() replaced the artifact in place: one visible file, no temps.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_NE(entry.path().filename().string()[0], '.');
  }
  EXPECT_EQ(files, 1u);
}

// ------------------------------------------------- model serialization --

svc::TopologyRequest MixedTopology() {
  svc::TopologyRequest topology;
  topology.kind = "mixed";
  return topology;
}

TEST(Store, ModelArtifactRoundTripsRoutingAndDistances) {
  const auto original = std::make_shared<const svc::NetworkModel>(
      svc::BuildTopology(MixedTopology()));
  const std::string payload = svc::EncodeModelArtifact(*original);
  const auto restored = svc::DecodeModelArtifact(payload);

  EXPECT_EQ(topo::ToText(restored->graph), topo::ToText(original->graph));
  EXPECT_EQ(restored->routing.root(), original->routing.root());
  EXPECT_EQ(restored->table.size(), original->table.size());
  EXPECT_EQ(restored->table.MaxAbsDiff(original->table), 0.0);
  const std::size_t n = original->graph.switch_count();
  for (topo::SwitchId s = 0; s < n; ++s) {
    for (topo::SwitchId t = 0; t < n; ++t) {
      if (s == t) continue;
      EXPECT_EQ(restored->routing.MinimalDistance(s, t),
                original->routing.MinimalDistance(s, t));
      EXPECT_EQ(restored->routing.LinksOnMinimalPaths(s, t),
                original->routing.LinksOnMinimalPaths(s, t));
    }
  }
  EXPECT_EQ(svc::ModelHashOfGraph(restored->graph), svc::ModelHashOfGraph(original->graph));
}

TEST(Store, DecodeRejectsTruncatedAndTrailingPayloads) {
  const auto model = std::make_shared<const svc::NetworkModel>(
      svc::BuildTopology(MixedTopology()));
  const std::string payload = svc::EncodeModelArtifact(*model);
  EXPECT_THROW(svc::DecodeModelArtifact(payload.substr(0, payload.size() / 2)), ConfigError);
  EXPECT_THROW(svc::DecodeModelArtifact(payload + "x"), ConfigError);
  EXPECT_THROW(svc::DecodeModelArtifact(""), ConfigError);
}

// Replaces the payload's trailing n x n table (its order as a u64, then the
// doubles) with `order` and `values`.
std::string WithTable(const std::string& payload, std::size_t n, std::uint64_t order,
                      const std::vector<double>& values) {
  std::string out = payload.substr(0, payload.size() - 8 - 8 * n * n);
  out.append(reinterpret_cast<const char*>(&order), 8);
  out.append(reinterpret_cast<const char*>(values.data()), 8 * values.size());
  return out;
}

TEST(Store, DecodeRejectsTableThatDoesNotFitTheGraph) {
  const auto model = std::make_shared<const svc::NetworkModel>(
      svc::BuildTopology(MixedTopology()));
  const std::string payload = svc::EncodeModelArtifact(*model);
  const std::size_t n = model->graph.switch_count();
  ASSERT_GT(n, 2u);
  // Self-consistent payload whose 2x2 table cannot serve an n-switch graph.
  EXPECT_THROW(svc::DecodeModelArtifact(WithTable(payload, n, 2, {0.0, 1.0, 1.0, 0.0})),
               ConfigError);
  // Right order, but a negative or non-finite distance.
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> values = model->table.values();
    values[1] = bad;
    values[n] = bad;
    EXPECT_THROW(svc::DecodeModelArtifact(WithTable(payload, n, n, values)), ConfigError) << bad;
  }
  // The unpatched table still decodes.
  EXPECT_EQ(svc::DecodeModelArtifact(WithTable(payload, n, n, model->table.values()))->table.size(),
            n);
}

// ------------------------------------------------------------ warm boot --

std::string ScheduleLine(const char* id) {
  return std::string(R"({"id":")") + id +
         R"(","op":"schedule","topology":{"kind":"mixed"},"apps":4,"seeds":2,"iters":10})";
}

TEST(Store, WarmBootServesModelWithoutResolving) {
  const std::string dir = FreshDir("warmboot");
  std::string cold_response;
  {
    svc::ServiceOptions options;
    options.store_dir = dir;
    svc::SchedulingService cold(options);
    cold_response = cold.Execute(svc::ParseRequest(ScheduleLine("cold")));
    EXPECT_NE(cold_response.find("\"ok\":true"), std::string::npos) << cold_response;
    EXPECT_EQ(cold.TopologyCacheStats().misses, 1u);
    ASSERT_NE(cold.store(), nullptr);
    EXPECT_EQ(cold.store()->Stats().writes, 1u);
  }  // daemon restart: in-memory caches are gone, the store survives

  svc::ServiceOptions options;
  options.store_dir = dir;
  svc::SchedulingService warm(options);
  EXPECT_EQ(warm.TopologyCacheStats().size, 1u);     // preloaded at boot
  EXPECT_EQ(warm.TopologyCacheStats().misses, 0u);   // Insert is not a miss
  ASSERT_NE(warm.store(), nullptr);
  EXPECT_GE(warm.store()->Stats().hits, 1u);

  // The restored model computes the byte-identical result; only the cache
  // marker differs (the warm run reports "hit" where the cold saw "miss").
  const std::string warm_response = warm.Execute(svc::ParseRequest(ScheduleLine("cold")));
  const JsonValue warm_parsed = ParseJson(warm_response);
  const JsonValue cold_parsed = ParseJson(cold_response);
  EXPECT_EQ(warm_parsed.Find("text")->AsString("text"),
            cold_parsed.Find("text")->AsString("text"));
  EXPECT_EQ(warm_parsed.Find("model_cache")->AsString("model_cache"), "hit");
  EXPECT_EQ(warm.TopologyCacheStats().misses, 0u);   // no re-solve
  EXPECT_EQ(warm.TopologyCacheStats().hits, 1u);
}

TEST(Store, WarmBootSkipsCorruptArtifactsAndRecovers) {
  const std::string dir = FreshDir("warmboot_corrupt");
  {
    svc::ServiceOptions options;
    options.store_dir = dir;
    svc::SchedulingService cold(options);
    (void)cold.Execute(svc::ParseRequest(ScheduleLine("seed")));
  }
  CorruptByteAt(OnlyFile(dir), 40 + 2);

  svc::ServiceOptions options;
  options.store_dir = dir;
  svc::SchedulingService warm(options);
  EXPECT_EQ(warm.TopologyCacheStats().size, 0u);  // corrupt artifact not loaded
  ASSERT_NE(warm.store(), nullptr);
  EXPECT_GE(warm.store()->Stats().corrupt, 1u);

  // The request still succeeds — cold solve — and rewrites a good artifact.
  const std::string response = warm.Execute(svc::ParseRequest(ScheduleLine("seed")));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(warm.TopologyCacheStats().misses, 1u);
  EXPECT_EQ(ArtifactStore::VerifyFile(OnlyFile(dir)).ok, true);
}

TEST(Store, EvictedModelRestoresFromDiskInsteadOfResolving) {
  const std::string dir = FreshDir("evict");
  svc::ServiceOptions options;
  options.store_dir = dir;
  options.topology_cache_capacity = 1;
  svc::SchedulingService service(options);

  svc::TopologyRequest mixed = MixedTopology();
  svc::TopologyRequest rings;
  rings.kind = "rings";
  (void)service.GetModel(mixed);  // cold solve, persisted
  (void)service.GetModel(rings);  // evicts mixed (capacity 1)
  const std::uint64_t writes = service.store()->Stats().writes;
  EXPECT_EQ(writes, 2u);

  bool hit = true;
  (void)service.GetModel(mixed, nullptr, &hit);  // cache miss, store hit
  EXPECT_FALSE(hit);
  EXPECT_GE(service.store()->Stats().hits, 1u);
  EXPECT_EQ(service.store()->Stats().writes, writes);  // restored, not re-solved
}

TEST(Store, RejectsFileWhereDirectoryExpected) {
  const std::string path = ::testing::TempDir() + "commsched_store_not_a_dir";
  fs::remove_all(path);
  std::ofstream(path) << "file";
  EXPECT_THROW(ArtifactStore store(path), ConfigError);
}

}  // namespace
}  // namespace commsched
