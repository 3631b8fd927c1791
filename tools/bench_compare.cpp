// bench_compare: gate benchmark results against a checked-in baseline.
//
//   bench_compare --baseline bench/baselines/BENCH_engine.json
//                 --current BENCH_engine.json [--threshold 0.15] [--metric real_time]
//
// Both files are google-benchmark JSON (--benchmark_format=json). When a file
// was produced with --benchmark_repetitions, only the "median" aggregate rows
// are compared (single runs are noisy); otherwise the plain iteration rows
// are used. For every benchmark present in both files the relative change of
// the chosen metric is printed; if any benchmark slowed down by more than
// the threshold (default 15%), the exit code is 1. Benchmarks that exist in
// only one file are reported but never fail the gate, so adding or retiring
// a benchmark does not require a lockstep baseline update.
//
// Exit codes: 0 within threshold, 1 regression, 2 bad invocation/input.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"

namespace {

using namespace commsched;

struct Options {
  std::string baseline;
  std::string current;
  std::string metric = "real_time";
  double threshold = 0.15;
};

int Usage() {
  std::cerr << "usage: bench_compare --baseline FILE --current FILE\n"
               "                     [--threshold 0.15] [--metric real_time]\n"
               "compares google-benchmark JSON files (median aggregates when\n"
               "present) and exits 1 on a regression beyond the threshold\n";
  return 2;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// name -> metric value, preferring "median" aggregate rows over raw
/// iteration rows (the aggregate's name suffix "_median" is stripped so the
/// two forms compare against each other).
std::map<std::string, double> LoadBenchmarks(const std::string& path,
                                             const std::string& metric) {
  const JsonValue root = ParseJson(ReadFile(path));
  const JsonValue* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr) {
    throw ConfigError("'" + path + "' has no \"benchmarks\" array (not google-benchmark JSON?)");
  }
  std::map<std::string, double> raw;
  std::map<std::string, double> medians;
  for (const JsonValue& entry : benchmarks->AsArray("benchmarks")) {
    const JsonValue* name = entry.Find("name");
    const JsonValue* value = entry.Find(metric);
    if (name == nullptr || value == nullptr) continue;
    std::string label = name->AsString("benchmark name");
    const JsonValue* aggregate = entry.Find("aggregate_name");
    if (aggregate != nullptr) {
      if (aggregate->AsString("aggregate_name") != "median") continue;
      const std::string suffix = "_median";
      if (label.size() > suffix.size() &&
          label.compare(label.size() - suffix.size(), suffix.size(), suffix) == 0) {
        label.resize(label.size() - suffix.size());
      }
      medians[label] = value->AsDouble(metric);
    } else {
      raw[label] = value->AsDouble(metric);
    }
  }
  if (!medians.empty()) return medians;
  if (raw.empty()) throw ConfigError("'" + path + "' contains no comparable benchmarks");
  return raw;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options options;
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw ConfigError(key + " requires a value");
        return argv[++i];
      };
      if (key == "--baseline") {
        options.baseline = next();
      } else if (key == "--current") {
        options.current = next();
      } else if (key == "--metric") {
        options.metric = next();
      } else if (key == "--threshold") {
        options.threshold = std::stod(next());
      } else {
        std::cerr << "unknown flag '" << key << "'\n";
        return Usage();
      }
    }
    if (options.baseline.empty() || options.current.empty()) return Usage();
    if (options.threshold <= 0) throw ConfigError("--threshold must be positive");

    const std::map<std::string, double> baseline =
        LoadBenchmarks(options.baseline, options.metric);
    const std::map<std::string, double> current =
        LoadBenchmarks(options.current, options.metric);

    std::vector<std::string> regressions;
    std::cout << std::fixed << std::setprecision(1);
    for (const auto& [name, base_value] : baseline) {
      const auto it = current.find(name);
      if (it == current.end()) {
        std::cout << "MISSING    " << name << " (in baseline only)\n";
        continue;
      }
      if (base_value <= 0) continue;  // degenerate baseline row, nothing to gate
      const double change = (it->second - base_value) / base_value;
      const char* verdict = change > options.threshold ? "REGRESSED " : "ok        ";
      std::cout << verdict << name << "  " << options.metric << " " << base_value << " -> "
                << it->second << "  (" << std::showpos << change * 100.0 << std::noshowpos
                << "%)\n";
      if (change > options.threshold) regressions.push_back(name);
    }
    for (const auto& [name, value] : current) {
      if (baseline.count(name) == 0) {
        std::cout << "NEW        " << name << " (no baseline)\n";
      }
    }
    if (!regressions.empty()) {
      std::cout << regressions.size() << " benchmark(s) regressed beyond "
                << options.threshold * 100.0 << "%\n";
      return 1;
    }
    std::cout << "all benchmarks within " << options.threshold * 100.0 << "% of baseline\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
