// §2 survey in code: the computation-side mapping heuristics the paper
// cites (OLB, UDA/MET, Fast Greedy/MCT, Min-min, Max-min [1, 12, 16], plus
// Sufferage [18]) raced on Braun-style ETC instances across consistency and
// heterogeneity classes. Expected shape (from the HCW literature): Min-min
// family near the best everywhere; OLB and MET poor — MET catastrophically
// so on consistent matrices (it piles every task onto the one globally
// fastest machine).
#include "bench_util.h"

int main() {
  using namespace commsched;
  using namespace commsched::hetero;
  bench::PrintHeader("Meta-task mapping heuristics on Braun-style ETC instances",
                     "§2 cited heuristics [1, 12, 16, 18]");

  struct Case {
    std::string name;
    EtcOptions options;
  };
  std::vector<Case> cases;
  for (const auto& [cname, consistency] :
       std::vector<std::pair<std::string, EtcConsistency>>{
           {"consistent", EtcConsistency::kConsistent},
           {"semi", EtcConsistency::kSemiConsistent},
           {"inconsistent", EtcConsistency::kInconsistent}}) {
    for (const auto& [hname, th, mh] : std::vector<std::tuple<std::string, double, double>>{
             {"hi-hi", 3000.0, 1000.0}, {"hi-lo", 3000.0, 10.0}, {"lo-hi", 100.0, 1000.0},
             {"lo-lo", 100.0, 10.0}}) {
      EtcOptions options;
      options.tasks = 256;
      options.machines = 8;
      options.task_heterogeneity = th;
      options.machine_heterogeneity = mh;
      options.consistency = consistency;
      options.seed = 42;
      cases.push_back({cname + "/" + hname, options});
    }
  }

  TextTable out({"instance", "OLB", "MET", "MCT", "Min-min", "Max-min", "Sufferage",
                 "Min-min+LS"});
  out.set_precision(0);
  for (const Case& c : cases) {
    const EtcMatrix etc = EtcMatrix::Generate(c.options);
    const auto results = RunAllHeuristics(etc);
    std::vector<TableCell> row{c.name};
    for (const auto& [name, schedule] : results) {
      row.emplace_back(schedule.makespan);
    }
    out.AddRow(std::move(row));
  }
  std::cout << out;

  // Normalized summary: each heuristic's makespan relative to the best
  // heuristic on that instance, averaged over instances.
  std::vector<double> ratio_sum;
  std::vector<std::string> names;
  for (const Case& c : cases) {
    const EtcMatrix etc = EtcMatrix::Generate(c.options);
    const auto results = RunAllHeuristics(etc);
    double best = results.front().second.makespan;
    for (const auto& [name, schedule] : results) best = std::min(best, schedule.makespan);
    if (ratio_sum.empty()) {
      ratio_sum.assign(results.size(), 0.0);
      for (const auto& [name, schedule] : results) names.push_back(name);
    }
    for (std::size_t k = 0; k < results.size(); ++k) {
      ratio_sum[k] += results[k].second.makespan / best;
    }
  }
  std::cout << "\naverage makespan relative to the per-instance best:\n";
  for (std::size_t k = 0; k < names.size(); ++k) {
    std::cout << "  " << names[k] << ": " << ratio_sum[k] / static_cast<double>(cases.size())
              << "\n";
  }
  return 0;
}
