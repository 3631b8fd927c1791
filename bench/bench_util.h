// Shared helpers for the figure/table reproduction harnesses and the
// google-benchmark micro benches.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "core/commsched.h"

namespace commsched::bench {

/// Snapshot-delta reader over the global obs::Registry: construct before the
/// measured region, then ask for per-counter deltas afterwards. Benches use
/// this to report work counters (swap evaluations, flits, cycles) next to
/// wall-clock numbers — e.g. as google-benchmark custom counters, which land
/// in the perf JSON as swaps/sec or flits/cycle columns.
class ObsDelta {
 public:
  ObsDelta() : start_(obs::Registry::Global().CounterValues()) {}

  /// Counter increase since construction (0 for never-registered names).
  [[nodiscard]] std::uint64_t Delta(const std::string& name) const {
    const auto now = obs::Registry::Global().CounterValues();
    const auto it = now.find(name);
    if (it == now.end()) return 0;
    const auto base = start_.find(name);
    return it->second - (base == start_.end() ? 0 : base->second);
  }

  /// Ratio of two counter deltas (e.g. flits delivered / cycles simulated);
  /// 0 when the denominator has not moved.
  [[nodiscard]] double Rate(const std::string& numerator,
                            const std::string& denominator) const {
    const std::uint64_t denom = Delta(denominator);
    if (denom == 0) return 0.0;
    return static_cast<double>(Delta(numerator)) / static_cast<double>(denom);
  }

 private:
  std::map<std::string, std::uint64_t> start_;
};

/// Percentile estimate from a global-registry histogram (0 when absent or
/// empty). Histograms accumulate across bench iterations, so this reports
/// the distribution over the whole measured region — which is what a p50/p99
/// column should mean.
inline double HistogramPercentile(const std::string& name, double q) {
  const auto histograms = obs::Registry::Global().HistogramValues();
  const auto it = histograms.find(name);
  if (it == histograms.end() || it->second.count == 0) return 0.0;
  return it->second.Percentile(q);
}

/// The random irregular 16-switch network used throughout §5 (seeded so the
/// repo's numbers are reproducible; the paper's own instance is unpublished).
inline topo::SwitchGraph PaperNetwork16(std::uint64_t seed = 1) {
  topo::IrregularTopologyOptions options;
  options.switch_count = 16;
  options.seed = seed;
  return topo::GenerateIrregularTopology(options);
}

/// The specially designed 24-switch network of §5.2 (four rings of six).
inline topo::SwitchGraph PaperNetwork24() { return topo::MakeFourRingsOfSix(); }

/// Simulation settings sized so a full figure regenerates in seconds while
/// keeping the curve shapes stable.
inline sim::SweepOptions PaperSweep() {
  sim::SweepOptions sweep;
  sweep.points = 9;  // S1..S9
  sweep.min_rate = 0.08;
  sweep.max_rate = 1.4;
  sweep.config.warmup_cycles = 5000;
  sweep.config.measure_cycles = 15000;
  return sweep;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "==================================================================\n";
  std::cout << title << "\n";
  std::cout << "(reproduces " << paper_ref << ")\n";
  std::cout << "==================================================================\n";
}

}  // namespace commsched::bench
