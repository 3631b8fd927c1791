#include "sched/search.h"

#include <sstream>

namespace commsched::sched {

void FinalizeResult(const DistanceTable& table, SearchResult& result,
                    std::span<const double> cluster_similarity) {
  result.best_fg = cluster_similarity.empty()
                       ? qual::GlobalSimilarity(table, result.best)
                       : qual::GlobalSimilarity(table, result.best, cluster_similarity);
  result.best_dg = qual::GlobalDissimilarity(table, result.best);
  CS_CHECK(result.best_fg > 0.0, "degenerate F_G");
  result.best_cc = result.best_dg / result.best_fg;
}

std::string FormatSearchResult(const SearchResult& result) {
  std::ostringstream out;
  out << "partition: " << result.best.ToString() << "\n";
  out << "F_G = " << result.best_fg << ", D_G = " << result.best_dg
      << ", C_c = " << result.best_cc << "\n";
  out << "moves: " << result.iterations << ", evaluations: " << result.evaluations << "\n";
  return out.str();
}

}  // namespace commsched::sched
