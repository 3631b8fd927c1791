// Ablation: the paper minimizes F_G and argues this also maximizes
// C_c = D_G/F_G because cluster sizes are fixed. Here we check that claim
// empirically: optimize F_G, then compare against directly maximizing C_c
// (hill climbing on C_c) and against maximizing D_G alone.
#include "bench_util.h"

namespace {

using namespace commsched;

/// Generic steepest-ascent hill climbing on an arbitrary partition score.
template <typename Score>
qual::Partition HillClimb(qual::Partition start, Score&& score, std::size_t max_iter = 500) {
  double current = score(start);
  for (std::size_t it = 0; it < max_iter; ++it) {
    double best = current;
    std::pair<std::size_t, std::size_t> move{0, 0};
    bool found = false;
    const std::size_t n = start.switch_count();
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (start.ClusterOf(a) == start.ClusterOf(b)) continue;
        start.Swap(a, b);
        const double candidate = score(start);
        start.Swap(a, b);
        if (candidate > best + 1e-12) {
          best = candidate;
          move = {a, b};
          found = true;
        }
      }
    }
    if (!found) break;
    start.Swap(move.first, move.second);
    current = best;
  }
  return start;
}

}  // namespace

int main() {
  using namespace commsched;
  bench::PrintHeader("Ablation — target function: F_G vs C_c vs D_G", "§4.2 design choice");

  TextTable out({"network", "objective", "F_G", "D_G", "C_c"});
  out.set_precision(4);

  struct Net {
    std::string name;
    topo::SwitchGraph graph;
  };
  std::vector<Net> nets;
  nets.push_back({"random-16sw", bench::PaperNetwork16()});
  nets.push_back({"rings-24sw", bench::PaperNetwork24()});

  for (const Net& net : nets) {
    const route::UpDownRouting routing(net.graph);
    const dist::DistanceTable table = dist::DistanceTable::Build(routing);
    const std::size_t m = net.graph.switch_count() / 4;
    const std::vector<std::size_t> sizes(4, m);

    // Paper: Tabu on F_G.
    sched::TabuOptions tabu;
    tabu.max_iterations_per_seed = sched::DefaultTabuIterations(net.graph.switch_count());
    const sched::SearchResult fg_result = sched::TabuSearch(table, sizes, tabu);
    out.AddRow({net.name, std::string("min F_G (paper)"),
                qual::GlobalSimilarity(table, fg_result.best),
                qual::GlobalDissimilarity(table, fg_result.best),
                qual::ClusteringCoefficient(table, fg_result.best)});

    // Direct C_c and D_G hill climbs from the same 5 random starts.
    Rng rng(7);
    qual::Partition best_cc_part = qual::Partition::Blocked(sizes);
    double best_cc = -1.0;
    qual::Partition best_dg_part = best_cc_part;
    double best_dg = -1.0;
    for (int s = 0; s < 5; ++s) {
      const qual::Partition start = qual::Partition::Random(sizes, rng);
      const qual::Partition cc_climbed = HillClimb(start, [&](const qual::Partition& p) {
        return qual::ClusteringCoefficient(table, p);
      });
      if (qual::ClusteringCoefficient(table, cc_climbed) > best_cc) {
        best_cc = qual::ClusteringCoefficient(table, cc_climbed);
        best_cc_part = cc_climbed;
      }
      const qual::Partition dg_climbed = HillClimb(start, [&](const qual::Partition& p) {
        return qual::GlobalDissimilarity(table, p);
      });
      if (qual::GlobalDissimilarity(table, dg_climbed) > best_dg) {
        best_dg = qual::GlobalDissimilarity(table, dg_climbed);
        best_dg_part = dg_climbed;
      }
    }
    out.AddRow({net.name, std::string("max C_c directly"),
                qual::GlobalSimilarity(table, best_cc_part),
                qual::GlobalDissimilarity(table, best_cc_part), best_cc});
    out.AddRow({net.name, std::string("max D_G directly"),
                qual::GlobalSimilarity(table, best_dg_part), best_dg,
                qual::ClusteringCoefficient(table, best_dg_part)});
  }
  std::cout << out;
  std::cout << "\nreading: with fixed cluster sizes the ordered intercluster sum equals\n"
            << "2*(total - intracluster sum), so D_G is an affine *decreasing* function of\n"
            << "the same intracluster sum F_G grows with, and C_c = D_G/F_G is monotone in\n"
            << "it too: all three objectives have identical optimizers. The paper's choice\n"
            << "of minimizing F_G is not merely a good proxy for maximizing C_c — under its\n"
            << "assumptions it is exactly equivalent, which the table confirms empirically.\n";
  return 0;
}
