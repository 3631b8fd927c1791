// Seeded mutation fuzz of every reader of outside input: the one JSON codec
// (common/json.h) and the readers built on it (protocol requests, fault
// plans, the trace/metrics folding behind `commsched_cli report`), the
// topology text format (topo::FromText), and the store's binary model
// artifact (svc::DecodeModelArtifact) and artifact file header check
// (svc::ArtifactStore::VerifyFile). Fixed seed corpora are mutated by
// random byte overwrites, truncations, insertions of structural bytes and
// boundary numbers under a fixed budget, so every run feeds the same
// inputs. Each input must parse or be rejected with a ConfigError (for
// `report`: be counted as unparseable); anything else — a ContractError, a
// std::out_of_range, a std::bad_alloc, a crash — fails.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "faults/fault_plan.h"
#include "obs/report.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/store.h"
#include "topology/generator.h"
#include "topology/library.h"
#include "topology/serialize.h"

namespace commsched {
namespace {

#ifndef COMMSCHED_TEST_DATA_DIR
#define COMMSCHED_TEST_DATA_DIR "tests/data"
#endif

constexpr std::size_t kMutantsPerSeed = 200;
constexpr std::uint64_t kFuzzSeed = 20001;

std::string ReadData(const std::string& name) {
  std::ifstream in(std::string(COMMSCHED_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The checked-in fault plans, metrics text and golden trace lines, plus
/// the protocol request of DESIGN.md §10, a simulate request carrying the
/// simulate-only keys and an inline fault plan, and an experiment request.
std::vector<std::string> SeedCorpus() {
  std::vector<std::string> corpus = {
      ReadData("faultplan_diff_links.json"),
      ReadData("faultplan_diff_switch.json"),
      ReadData("metrics_good.txt"),
      R"({"id":"r1","op":"schedule","topology":{"kind":"random","switches":16,"seed":7},)"
      R"("apps":4,"algo":"tabu","seeds":10,"iters":60,"search_seed":1})",
      R"({"id":"r2","op":"simulate","topology":{"kind":"rings"},"apps":4,)"
      R"("mapping":"blocked","points":2,"max_rate":0.4,"warmup":500,"measure":1500,)"
      R"("duato":true,"telemetry":500,"reconfig_downtime":128,"fault_plan":)" +
          ReadData("faultplan_diff_switch.json") + "}",
      R"({"id":"r3","op":"experiment","topology":{"kind":"random","switches":16},"apps":4,)"
      R"("randoms":3,"points":4,"min_rate":0.1,"max_rate":0.9,"warmup":1000,)"
      R"("measure":3000,"mapping_seed":2000,"parallel_seeds":true})",
  };
  std::istringstream trace(ReadData("tabu_trace16.golden.jsonl"));
  for (std::string line; std::getline(trace, line);) corpus.push_back(line);
  return corpus;
}

/// One to four edits of `text`: overwrite a byte with a random one,
/// truncate, insert one of the bytes that open or escape JSON structure, or
/// swap the next number for a boundary value.
std::string Mutate(std::string text, Rng& rng) {
  static constexpr char kStructural[] = {'{', '[', '"', '\\'};
  static const char* const kNumbers[] = {"-1", "0.5", "-0", "1e999", "9007199254740993",
                                         "18446744073709551616", "4294967296"};
  const std::size_t edits = 1 + rng.NextIndex(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.NextIndex(text.size() + 1);
    switch (rng.NextIndex(4)) {
      case 0:
        if (at < text.size()) text[at] = static_cast<char>(rng.NextIndex(256));
        break;
      case 1:
        text.resize(at);
        break;
      case 2:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    kStructural[rng.NextIndex(sizeof(kStructural))]);
        break;
      default: {
        const std::size_t start = text.find_first_of("0123456789", at);
        if (start == std::string::npos) break;
        const std::size_t end = text.find_first_not_of("0123456789.eE+-", start);
        text.replace(start, (end == std::string::npos ? text.size() : end) - start,
                     kNumbers[rng.NextIndex(std::size(kNumbers))]);
      }
    }
  }
  return text;
}

/// Mutate, plus an edit for binary payloads: overwrite eight bytes at a
/// random offset with a boundary count in little-endian order.
std::string MutateBinary(std::string bytes, Rng& rng) {
  static constexpr std::uint64_t kCounts[] = {0,           1,          (1ULL << 24) + 1,
                                              1ULL << 32,  1ULL << 61, ~0ULL};
  if (bytes.size() >= 8 && rng.NextIndex(2) == 0) {
    const std::uint64_t count = kCounts[rng.NextIndex(std::size(kCounts))];
    std::memcpy(bytes.data() + rng.NextIndex(bytes.size() - 7), &count, 8);
    return bytes;
  }
  return Mutate(std::move(bytes), rng);
}

/// Runs `check` on every corpus entry and kMutantsPerSeed mutants of each.
void ForEachMutant(const std::vector<std::string>& corpus,
                   const std::function<std::string(std::string, Rng&)>& mutate,
                   const std::function<void(const std::string&)>& check) {
  Rng rng(kFuzzSeed);
  for (const std::string& seed : corpus) {
    check(seed);
    for (std::size_t k = 0; k < kMutantsPerSeed; ++k) check(mutate(seed, rng));
  }
}

/// ForEachMutant over the JSON corpus.
void ForEachMutant(const std::function<void(const std::string&)>& check) {
  ForEachMutant(SeedCorpus(), Mutate, check);
}

/// Small networks of three kinds: irregular, rings, and a torus.
std::vector<topo::SwitchGraph> TopologyCorpus() {
  std::vector<topo::SwitchGraph> graphs;
  graphs.push_back(topo::GenerateIrregularTopology({16, 4, 3, 1, 1000}));
  graphs.push_back(topo::MakeFourRingsOfSix());
  graphs.push_back(topo::MakeTorus2D(3, 4, 2));
  return graphs;
}

/// `read` must return or throw ConfigError.
void ExpectParsesOrConfigError(const std::string& input,
                               const std::function<void(const std::string&)>& read) {
  try {
    read(input);
  } catch (const ConfigError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-config exception " << e.what() << " on input: " << input;
  }
}

/// The input as a JSON object, exactly as `report` has to judge it.
bool ParsesAsObject(const std::string& text) {
  try {
    return ParseJson(text).is_object();
  } catch (const ConfigError&) {
    return false;
  }
}

TEST(JsonFuzz, ParseJsonParsesOrThrowsConfigError) {
  ForEachMutant([](const std::string& input) {
    ExpectParsesOrConfigError(input, [](const std::string& text) { (void)ParseJson(text); });
  });
}

TEST(JsonFuzz, ProtocolRequestsParseOrThrowConfigError) {
  ForEachMutant([](const std::string& input) {
    ExpectParsesOrConfigError(input,
                              [](const std::string& text) { (void)svc::ParseRequest(text); });
  });
}

TEST(JsonFuzz, FaultPlansParseOrThrowConfigError) {
  ForEachMutant([](const std::string& input) {
    ExpectParsesOrConfigError(input, [](const std::string& text) {
      (void)faults::FaultPlan::FromJson(text);
    });
  });
}

TEST(JsonFuzz, ReportCountsEveryUnparseableLine) {
  ForEachMutant([](const std::string& input) {
    std::size_t unparseable = 0;
    std::istringstream lines(input);
    for (std::string line; std::getline(lines, line);) {
      if (!Trim(line).empty() && !ParsesAsObject(line)) ++unparseable;
    }
    try {
      std::istringstream trace(input);
      const obs::TraceSummary summary = obs::SummarizeTrace(trace);
      const auto it = summary.events_by_type.find("(unparseable)");
      EXPECT_EQ(it == summary.events_by_type.end() ? 0 : it->second, unparseable) << input;

      obs::TraceSummary metrics;
      const bool loaded = obs::LoadMetrics(input, metrics);
      EXPECT_EQ(loaded, ParsesAsObject(input) && ParseJson(input).Find("counters") != nullptr)
          << input;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "report threw " << e.what() << " on input: " << input;
    }
  });
}

TEST(ReaderFuzz, TopologyTextParsesOrThrowsConfigError) {
  std::vector<std::string> corpus;
  for (const topo::SwitchGraph& graph : TopologyCorpus()) corpus.push_back(topo::ToText(graph));
  ForEachMutant(corpus, Mutate, [](const std::string& input) {
    ExpectParsesOrConfigError(input, [](const std::string& text) { (void)topo::FromText(text); });
  });
}

TEST(ReaderFuzz, ModelArtifactsDecodeOrThrowConfigError) {
  std::vector<std::string> corpus;
  for (topo::SwitchGraph& graph : TopologyCorpus()) {
    corpus.push_back(svc::EncodeModelArtifact(svc::NetworkModel(std::move(graph))));
  }
  ForEachMutant(corpus, MutateBinary, [](const std::string& input) {
    ExpectParsesOrConfigError(input,
                              [](const std::string& bytes) { (void)svc::DecodeModelArtifact(bytes); });
  });
}

// Byte mutants of stored artifact files: VerifyFile passes a file only when
// it is byte for byte one the store wrote, and fails every other with a
// reason, never with an exception other than ConfigError.
TEST(ReaderFuzz, ArtifactFilesVerifyOrFail) {
  const std::string dir = ::testing::TempDir() + "commsched_fuzz_store_" + std::to_string(getpid());
  svc::ArtifactStore store(dir);
  std::vector<std::string> corpus;
  for (topo::SwitchGraph& graph : TopologyCorpus()) {
    const svc::NetworkModel model(std::move(graph));
    const std::uint64_t key = svc::ModelHashOfGraph(model.graph);
    ASSERT_TRUE(store.Put(svc::ArtifactKind::kModel, key, svc::EncodeModelArtifact(model)));
    std::ifstream in(dir + "/" + svc::ArtifactStore::FileName(svc::ArtifactKind::kModel, key),
                     std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string path = dir + "/mutant.csart";
  ForEachMutant(corpus, MutateBinary, [&](const std::string& input) {
    ExpectParsesOrConfigError(input, [&](const std::string& bytes) {
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
      const svc::VerifyResult verdict = svc::ArtifactStore::VerifyFile(path);
      const bool stored = std::find(corpus.begin(), corpus.end(), bytes) != corpus.end();
      EXPECT_EQ(verdict.ok, stored) << verdict.error;
      EXPECT_EQ(verdict.error.empty(), verdict.ok) << verdict.error;
    });
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace commsched
