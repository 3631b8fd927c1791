// Trace/metrics analysis behind the `commsched_cli report` subcommand.
//
// Consumes the two artifacts a traced run produces —
//   * the JSONL event trace written by --trace (one JSON object per line,
//     see trace.h), and
//   * the registry dump written by --metrics/--metrics-out (one JSON object
//     with "counters"/"timers"/"histograms", see obs.h) —
// and renders a human-readable summary: packet-latency percentiles, the
// top-k hottest links (from the link.util.<from>.<to> counters), per-seed
// final F_G / C_c convergence, and the load-sweep curve. WriteSweepCsv
// emits the sweep as CSV suitable for regenerating the paper's Fig. 3/5
// latency-vs-accepted-traffic curves.
//
// Each line is read with the common JSON parser (common/json.h); unknown
// event types and keys are counted but otherwise ignored, so reports stay
// forward-compatible with new instrumentation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace commsched::obs {

/// Everything the report renderer knows about one run.
struct TraceSummary {
  std::size_t events = 0;
  std::map<std::string, std::size_t> events_by_type;

  /// One Tabu seed's walk (from search.restart / search.seed_done events).
  struct SeedSummary {
    std::uint64_t seed = 0;
    std::string algo;
    std::uint64_t iters = 0;
    std::uint64_t evals = 0;
    double start_fg = 0.0;  // F_G of the random start (search.restart)
    double best_fg = 0.0;
    double best_cc = 0.0;
    bool has_start = false;
    bool has_done = false;
  };
  std::vector<SeedSummary> seeds;  // sorted by (algo, seed)

  /// One load-sweep point (from sweep.point events).
  struct SweepPointSummary {
    std::uint64_t point = 0;
    double rate = 0.0;
    double accepted = 0.0;
    double avg_latency = 0.0;
    bool saturated = false;
  };
  std::vector<SweepPointSummary> sweep;  // sorted by point

  std::size_t net_samples = 0;  // net.sample telemetry events seen

  /// One fault-plan event observed in the trace (fault.link_down, ...).
  struct FaultEventSummary {
    std::string kind;     // "link_down", "switch_up", ...
    std::uint64_t cycle = 0;
    std::string target;   // "0--1" for links, "switch 3" for switches
  };
  std::vector<FaultEventSummary> faults;  // in stream order

  /// One reconfiguration window (fault.reconfig_start .. reconfig_done).
  struct ReconfigSummary {
    std::uint64_t start_cycle = 0;
    std::uint64_t done_cycle = 0;
    std::uint64_t surviving_switches = 0;
    std::uint64_t dead_switches = 0;
    std::uint64_t evicted_switches = 0;
    std::uint64_t dropped_flits = 0;   // cumulative at completion
    std::uint64_t messages_lost = 0;   // cumulative at completion
    bool has_done = false;
  };
  std::vector<ReconfigSummary> reconfigs;

  /// Raw net.sample points (cycle + windowed delivered flits), kept so the
  /// renderer can split delivery into before/during/after-degradation
  /// phases.
  struct NetSample {
    std::uint64_t cycle = 0;
    std::uint64_t win_flits = 0;
  };
  std::vector<NetSample> samples;

  std::map<std::string, std::size_t> remap_actions;  // sched.remap, by action
  std::optional<std::uint64_t> measure_start_cycle;  // sim.start's warmup

  // ---- from the metrics dump ---------------------------------------------
  bool has_metrics = false;

  /// One directed link's measured traffic (link.util.<from>.<to> counters).
  struct LinkTraffic {
    std::size_t from = 0;
    std::size_t to = 0;
    std::uint64_t flits = 0;
  };
  std::vector<LinkTraffic> links;  // sorted by flits, descending

  /// Summary of one dumped histogram (fields as rendered by
  /// Registry::ToJson; buckets are not re-read).
  struct HistogramSummary {
    std::uint64_t count = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, HistogramSummary> histograms;

  std::map<std::string, std::uint64_t> counters;
};

/// Parses a JSONL trace stream. Lines that fail to parse are skipped (and
/// counted in the returned summary's "unparseable" type); a metrics-shaped
/// line (an object with "counters" and no "type") is folded in as if passed
/// to LoadMetrics, so a file holding trace + appended metrics works.
[[nodiscard]] TraceSummary SummarizeTrace(std::istream& trace);

/// Merges a --metrics/--metrics-out dump (single JSON object) into an
/// existing summary. Returns false when the text does not parse.
bool LoadMetrics(const std::string& metrics_json, TraceSummary& summary);

/// Renders the human-readable report. `top_links` bounds the hottest-links
/// table (default used by the CLI: 5).
void RenderReport(const TraceSummary& summary, std::ostream& out,
                  std::size_t top_links = 5);

/// Writes the sweep curve as CSV: offered,accepted,avg_latency,saturated.
void WriteSweepCsv(const TraceSummary& summary, std::ostream& out);

}  // namespace commsched::obs
