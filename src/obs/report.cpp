#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/json.h"
#include "common/strings.h"
#include "common/table.h"

namespace commsched::obs {

namespace {

/// Field readers over one parsed JSON object. A missing, null or mistyped
/// field reads as 0 / "" / false, so reports stay forward-compatible.
std::uint64_t AsCount(const JsonValue* value) {
  if (value == nullptr || !value->is_number()) return 0;
  const double number = value->AsDouble("count");
  return number >= 0.0 && number < 18446744073709551616.0 && std::floor(number) == number
             ? static_cast<std::uint64_t>(number)
             : 0;
}

std::uint64_t Uint(const JsonValue& fields, const std::string& key) {
  return AsCount(fields.Find(key));
}

double Num(const JsonValue& fields, const std::string& key) {
  const JsonValue* value = fields.Find(key);
  return value != nullptr && value->is_number() ? value->AsDouble(key) : 0.0;
}

std::string Str(const JsonValue& fields, const std::string& key) {
  const JsonValue* value = fields.Find(key);
  return value != nullptr && value->is_string() ? value->AsString(key) : std::string();
}

bool Bool(const JsonValue& fields, const std::string& key) {
  const JsonValue* value = fields.Find(key);
  return value != nullptr && value->is_bool() && value->AsBool(key);
}

/// Seed summaries are keyed by (algo, seed); restart and seed_done events
/// for the same walk merge into one row.
TraceSummary::SeedSummary& SeedRow(TraceSummary& summary, const std::string& algo,
                                   std::uint64_t seed) {
  for (auto& row : summary.seeds) {
    if (row.algo == algo && row.seed == seed) return row;
  }
  summary.seeds.push_back({});
  summary.seeds.back().algo = algo;
  summary.seeds.back().seed = seed;
  return summary.seeds.back();
}

void FoldTraceEvent(TraceSummary& summary, const JsonValue& fields) {
  const std::string type = Str(fields, "type");
  ++summary.events;
  ++summary.events_by_type[type.empty() ? "(untyped)" : type];
  if (type == "search.restart") {
    TraceSummary::SeedSummary& row =
        SeedRow(summary, Str(fields, "algo"), Uint(fields, "seed"));
    row.start_fg = Num(fields, "fg");
    row.has_start = true;
  } else if (type == "search.seed_done") {
    TraceSummary::SeedSummary& row =
        SeedRow(summary, Str(fields, "algo"), Uint(fields, "seed"));
    row.iters = Uint(fields, "iters");
    row.evals = Uint(fields, "evals");
    row.best_fg = Num(fields, "best_fg");
    row.best_cc = Num(fields, "best_cc");
    row.has_done = true;
  } else if (type == "sweep.point") {
    TraceSummary::SweepPointSummary point;
    point.point = Uint(fields, "point");
    point.rate = Num(fields, "rate");
    point.accepted = Num(fields, "accepted");
    point.avg_latency = Num(fields, "avg_latency");
    point.saturated = Bool(fields, "saturated");
    summary.sweep.push_back(point);
  } else if (type == "net.sample") {
    ++summary.net_samples;
    summary.samples.push_back({Uint(fields, "cycle"), Uint(fields, "win_flits")});
  } else if (type == "sim.start") {
    summary.measure_start_cycle = Uint(fields, "warmup");
  } else if (type == "sched.remap") {
    ++summary.remap_actions[Str(fields, "action")];
  } else if (type == "fault.reconfig_start") {
    TraceSummary::ReconfigSummary window;
    window.start_cycle = Uint(fields, "cycle");
    summary.reconfigs.push_back(window);
  } else if (type == "fault.reconfig_done") {
    if (summary.reconfigs.empty() || summary.reconfigs.back().has_done) {
      summary.reconfigs.push_back({});
      summary.reconfigs.back().start_cycle = Uint(fields, "cycle");
    }
    TraceSummary::ReconfigSummary& window = summary.reconfigs.back();
    window.done_cycle = Uint(fields, "cycle");
    window.surviving_switches = Uint(fields, "surviving_switches");
    window.dead_switches = Uint(fields, "dead_switches");
    window.evicted_switches = Uint(fields, "evicted_switches");
    window.dropped_flits = Uint(fields, "dropped_flits");
    window.messages_lost = Uint(fields, "messages_lost");
    window.has_done = true;
  } else if (StartsWith(type, "fault.")) {
    TraceSummary::FaultEventSummary fault;
    fault.kind = type.substr(6);
    fault.cycle = Uint(fields, "cycle");
    const auto id = [&fields](const char* key) {
      return fields.Find(key) == nullptr ? std::string() : std::to_string(Uint(fields, key));
    };
    if (fields.Find("switch") != nullptr) {
      fault.target = "switch " + id("switch");
    } else {
      fault.target = id("a") + "--" + id("b");
    }
    summary.faults.push_back(fault);
  }
}

void SortSummary(TraceSummary& summary) {
  std::sort(summary.seeds.begin(), summary.seeds.end(),
            [](const TraceSummary::SeedSummary& a, const TraceSummary::SeedSummary& b) {
              if (a.algo != b.algo) return a.algo < b.algo;
              return a.seed < b.seed;
            });
  std::sort(summary.sweep.begin(), summary.sweep.end(),
            [](const TraceSummary::SweepPointSummary& a,
               const TraceSummary::SweepPointSummary& b) { return a.point < b.point; });
}

/// Parses "link.util.<from>.<to>" into its endpoints.
std::optional<std::pair<std::size_t, std::size_t>> ParseLinkKey(const std::string& name) {
  if (!StartsWith(name, "link.util.")) return std::nullopt;
  const std::vector<std::string> parts = Split(name.substr(10), '.');
  if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) return std::nullopt;
  for (const std::string& part : parts) {
    if (part.find_first_not_of("0123456789") != std::string::npos) return std::nullopt;
  }
  return std::make_pair(static_cast<std::size_t>(std::stoull(parts[0])),
                        static_cast<std::size_t>(std::stoull(parts[1])));
}

void FoldMetrics(TraceSummary& summary, const JsonValue& fields) {
  summary.has_metrics = true;
  if (const JsonValue* counters = fields.Find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, raw] : counters->AsObject("counters")) {
      const std::uint64_t value = AsCount(&raw);
      summary.counters[name] = value;
      if (const auto link = ParseLinkKey(name); link.has_value()) {
        summary.links.push_back({link->first, link->second, value});
      }
    }
  }
  if (const JsonValue* hists = fields.Find("histograms"); hists != nullptr && hists->is_object()) {
    for (const auto& [name, hist] : hists->AsObject("histograms")) {
      if (!hist.is_object()) continue;
      TraceSummary::HistogramSummary& row = summary.histograms[name];
      row.count = Uint(hist, "count");
      row.max = Uint(hist, "max");
      row.mean = Num(hist, "mean");
      row.p50 = Num(hist, "p50");
      row.p90 = Num(hist, "p90");
      row.p99 = Num(hist, "p99");
    }
  }
  std::stable_sort(summary.links.begin(), summary.links.end(),
                   [](const TraceSummary::LinkTraffic& a, const TraceSummary::LinkTraffic& b) {
                     return a.flits > b.flits;
                   });
}

/// The line as a JSON object, or nullopt when it does not parse as one.
std::optional<JsonValue> ParseObjectLine(const std::string& text) {
  try {
    JsonValue value = ParseJson(text);
    if (value.is_object()) return value;
  } catch (const ConfigError&) {
  }
  return std::nullopt;
}

}  // namespace

TraceSummary SummarizeTrace(std::istream& trace) {
  TraceSummary summary;
  std::string line;
  while (std::getline(trace, line)) {
    if (Trim(line).empty()) continue;
    const std::optional<JsonValue> fields = ParseObjectLine(line);
    if (!fields.has_value()) {
      ++summary.events;
      ++summary.events_by_type["(unparseable)"];
      continue;
    }
    if (fields->Find("type") == nullptr && fields->Find("counters") != nullptr) {
      FoldMetrics(summary, *fields);  // appended metrics dump
      continue;
    }
    FoldTraceEvent(summary, *fields);
  }
  SortSummary(summary);
  return summary;
}

bool LoadMetrics(const std::string& metrics_json, TraceSummary& summary) {
  const std::optional<JsonValue> fields = ParseObjectLine(metrics_json);
  if (!fields.has_value() || fields->Find("counters") == nullptr) return false;
  FoldMetrics(summary, *fields);
  return true;
}

void RenderReport(const TraceSummary& summary, std::ostream& out, std::size_t top_links) {
  out << "== commsched report ==\n";
  out << "events: " << summary.events << " across " << summary.events_by_type.size()
      << " types\n";
  for (const auto& [type, count] : summary.events_by_type) {
    out << "  " << type << ": " << count << "\n";
  }

  if (!summary.seeds.empty()) {
    out << "\nSearch convergence (" << summary.seeds.size() << " seeds):\n";
    TextTable table({"algo", "seed", "iters", "evals", "start F_G", "final F_G", "C_c"});
    table.set_precision(4);
    const TraceSummary::SeedSummary* best = nullptr;
    for (const TraceSummary::SeedSummary& row : summary.seeds) {
      table.AddRow({row.algo, static_cast<long long>(row.seed),
                    static_cast<long long>(row.iters), static_cast<long long>(row.evals),
                    row.has_start ? TableCell(row.start_fg) : TableCell(std::string("-")),
                    row.has_done ? TableCell(row.best_fg) : TableCell(std::string("-")),
                    row.has_done ? TableCell(row.best_cc) : TableCell(std::string("-"))});
      if (row.has_done && (best == nullptr || row.best_fg < best->best_fg)) {
        best = &row;
      }
    }
    out << table;
    if (best != nullptr) {
      out << "best F_G: " << best->best_fg << " (C_c " << best->best_cc << ", seed "
          << best->seed << ")\n";
    }
  }

  // Engine tabu pressure per algorithm, from the unified per-seed counters
  // (search.<algo>.{tabu_hits,aspirations,escapes}) in the metrics dump.
  {
    struct TabuPressure {
      std::uint64_t tabu_hits = 0;
      std::uint64_t aspirations = 0;
      std::uint64_t escapes = 0;
    };
    std::map<std::string, TabuPressure> pressure;
    for (const auto& [name, value] : summary.counters) {
      if (!StartsWith(name, "search.")) continue;
      const std::size_t dot = name.find('.', 7);
      if (dot == std::string::npos) continue;
      const std::string algo = name.substr(7, dot - 7);
      const std::string field = name.substr(dot + 1);
      if (field == "tabu_hits") {
        pressure[algo].tabu_hits = value;
      } else if (field == "aspirations") {
        pressure[algo].aspirations = value;
      } else if (field == "escapes") {
        pressure[algo].escapes = value;
      }
    }
    bool any = false;
    for (const auto& [algo, row] : pressure) {
      if (row.tabu_hits + row.aspirations + row.escapes > 0) any = true;
    }
    if (any) {
      out << "\nSearch engine tabu pressure:\n";
      TextTable table({"algo", "tabu_hits", "aspirations", "escapes"});
      for (const auto& [algo, row] : pressure) {
        table.AddRow({algo, static_cast<long long>(row.tabu_hits),
                      static_cast<long long>(row.aspirations),
                      static_cast<long long>(row.escapes)});
      }
      out << table;
    }
  }

  // Simulator execution: simulated vs stepped (wall) cycles, and the
  // idle-skip efficiency, from the sim.* counters in the metrics dump. The
  // skip line prints only when some run skipped idle cycles.
  {
    const auto counter = [&summary](const char* name) -> std::uint64_t {
      const auto it = summary.counters.find(name);
      return it == summary.counters.end() ? 0 : it->second;
    };
    const std::uint64_t simulated = counter("sim.cycles");
    if (simulated > 0) {
      out << "\nExecution (" << counter("sim.runs") << " simulator runs):\n";
      out << "  simulated cycles: " << simulated << " (measured "
          << counter("sim.measured_cycles") << ")\n";
      const std::uint64_t skipped = counter("sim.event.skipped_cycles");
      const std::uint64_t skips = counter("sim.event.skips");
      if (skipped > 0 || skips > 0) {
        const std::uint64_t stepped = simulated >= skipped ? simulated - skipped : 0;
        const double efficiency =
            100.0 * static_cast<double>(skipped) / static_cast<double>(simulated);
        out << "  event engine: skipped " << skipped << " idle cycles across " << skips
            << " spans; stepped " << stepped << " wall cycles (skip efficiency "
            << efficiency << "%)\n";
      }
    }
  }

  const auto latency = summary.histograms.find("net.latency");
  if (latency != summary.histograms.end() && latency->second.count > 0) {
    const TraceSummary::HistogramSummary& h = latency->second;
    out << "\nPacket latency (cycles, " << h.count << " messages): p50=" << h.p50
        << " p90=" << h.p90 << " p99=" << h.p99 << " max=" << h.max << " mean=" << h.mean
        << "\n";
  }
  const auto occupancy = summary.histograms.find("net.vc.occupancy");
  if (occupancy != summary.histograms.end() && occupancy->second.count > 0) {
    const TraceSummary::HistogramSummary& h = occupancy->second;
    out << "VC buffer occupancy (flits, " << h.count << " samples): p50=" << h.p50
        << " p99=" << h.p99 << " max=" << h.max << "\n";
  }

  if (!summary.links.empty()) {
    std::uint64_t total = 0;
    for (const TraceSummary::LinkTraffic& link : summary.links) total += link.flits;
    const std::size_t shown = std::min(top_links, summary.links.size());
    out << "\nTop-" << shown << " hottest links (of " << summary.links.size()
        << " directed links):\n";
    TextTable table({"link", "flits", "share"});
    table.set_precision(1);
    for (std::size_t k = 0; k < shown; ++k) {
      const TraceSummary::LinkTraffic& link = summary.links[k];
      const double share =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(link.flits) / static_cast<double>(total);
      table.AddRow({std::to_string(link.from) + " -> " + std::to_string(link.to),
                    static_cast<long long>(link.flits), share});
    }
    out << table;
  }

  if (!summary.sweep.empty()) {
    out << "\nLoad sweep (" << summary.sweep.size() << " points):\n";
    TextTable table({"offered", "accepted", "avg_latency", "saturated"});
    table.set_precision(4);
    double throughput = 0.0;
    for (const TraceSummary::SweepPointSummary& point : summary.sweep) {
      table.AddRow({point.rate, point.accepted, point.avg_latency,
                    std::string(point.saturated ? "yes" : "no")});
      throughput = std::max(throughput, point.accepted);
    }
    out << table;
    out << "throughput: " << throughput << " flits/switch/cycle\n";
  }

  if (!summary.faults.empty() || !summary.reconfigs.empty()) {
    out << "\nFault & reconfiguration:\n";
    for (const TraceSummary::FaultEventSummary& fault : summary.faults) {
      out << "  cycle " << fault.cycle << ": " << fault.kind << " " << fault.target << "\n";
    }
    if (!summary.reconfigs.empty()) {
      TextTable table({"start", "done", "downtime", "alive", "dead", "evicted",
                       "dropped flits", "msgs lost"});
      for (const TraceSummary::ReconfigSummary& window : summary.reconfigs) {
        table.AddRow(
            {static_cast<long long>(window.start_cycle),
             window.has_done ? TableCell(static_cast<long long>(window.done_cycle))
                             : TableCell(std::string("-")),
             window.has_done
                 ? TableCell(static_cast<long long>(window.done_cycle - window.start_cycle))
                 : TableCell(std::string("-")),
             static_cast<long long>(window.surviving_switches),
             static_cast<long long>(window.dead_switches),
             static_cast<long long>(window.evicted_switches),
             static_cast<long long>(window.dropped_flits),
             static_cast<long long>(window.messages_lost)});
      }
      out << table;
    }
    if (!summary.remap_actions.empty()) {
      out << "  sched.remap actions:";
      for (const auto& [action, count] : summary.remap_actions) {
        out << " " << action << "=" << count;
      }
      out << "\n";
    }

    // Delivery rate before / during / after the degradation window, from
    // the net.sample telemetry windows. The degradation window spans the
    // first fault event to the last completed reconfiguration.
    if (summary.samples.size() >= 2 || summary.measure_start_cycle.has_value()) {
      std::uint64_t fault_begin = UINT64_MAX;
      for (const TraceSummary::FaultEventSummary& fault : summary.faults) {
        fault_begin = std::min(fault_begin, fault.cycle);
      }
      for (const TraceSummary::ReconfigSummary& window : summary.reconfigs) {
        fault_begin = std::min(fault_begin, window.start_cycle);
      }
      std::uint64_t fault_end = 0;
      bool any_done = false;
      for (const TraceSummary::ReconfigSummary& window : summary.reconfigs) {
        if (window.has_done) {
          fault_end = std::max(fault_end, window.done_cycle);
          any_done = true;
        }
      }
      std::uint64_t flits[3] = {0, 0, 0};   // before, during, after
      std::uint64_t cycles[3] = {0, 0, 0};
      std::uint64_t prev = summary.measure_start_cycle.value_or(0);
      bool have_prev = summary.measure_start_cycle.has_value();
      for (const TraceSummary::NetSample& sample : summary.samples) {
        if (have_prev && sample.cycle > prev) {
          std::size_t phase = 1;  // during
          if (sample.cycle <= fault_begin) {
            phase = 0;  // window ended before the first fault
          } else if (any_done && prev >= fault_end) {
            phase = 2;  // window started after the last reconfiguration
          }
          flits[phase] += sample.win_flits;
          cycles[phase] += sample.cycle - prev;
        }
        prev = sample.cycle;
        have_prev = true;
      }
      const auto rate = [&](std::size_t phase) -> double {
        return cycles[phase] == 0 ? 0.0
                                  : static_cast<double>(flits[phase]) /
                                        static_cast<double>(cycles[phase]);
      };
      if (cycles[0] + cycles[1] + cycles[2] > 0) {
        out << "  delivered flits/cycle: before=" << rate(0) << " during=" << rate(1)
            << " after=" << rate(2) << "\n";
        if (cycles[0] > 0 && cycles[2] > 0 && rate(0) > 0.0) {
          out << "  recovery: " << 100.0 * rate(2) / rate(0)
              << "% of pre-fault delivery rate\n";
        }
      }
    }
  }

  if (summary.net_samples > 0) {
    out << "\nnet.sample telemetry events: " << summary.net_samples << "\n";
  }
  if (!summary.has_metrics) {
    out << "\n(no metrics dump loaded: pass --metrics-file, or append the --metrics line "
           "to the trace; latency percentiles and link tables need it)\n";
  }
}

void WriteSweepCsv(const TraceSummary& summary, std::ostream& out) {
  out << "offered,accepted,avg_latency,saturated\n";
  for (const TraceSummary::SweepPointSummary& point : summary.sweep) {
    out << point.rate << "," << point.accepted << "," << point.avg_latency << ","
        << (point.saturated ? 1 : 0) << "\n";
  }
}

}  // namespace commsched::obs
