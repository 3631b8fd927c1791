// Per-host message-arrival streams.
//
// A Bernoulli(p) trial per host per cycle and a geometric inter-arrival gap
// per message are the same stochastic process (Bernoulli inter-arrival
// times are geometric), but the gap needs one draw per *message*, so the
// simulator can schedule each host's next arrival as a queue entry and skip
// the idle cycles in between. Each host gets its own splittable stream
// derived from the run seed, so a run's arrival schedule (cycles and
// destinations) depends only on the seed, the offered load and the fault
// plan, never on arbitration.
#pragma once

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace commsched::sim {

/// Cycles until the next arrival of a Bernoulli(p) process, in {1, 2, ...}:
/// P(gap = k) = p * (1-p)^(k-1). Requires 0 < p <= 1; consumes one draw.
[[nodiscard]] inline std::size_t GeometricGap(Rng& rng, double p) {
  CS_CHECK(p > 0.0 && p <= 1.0, "arrival probability out of range: ", p);
  const double u = rng.NextDouble();  // in [0, 1)
  if (p >= 1.0) return 1;
  // Inverse CDF: gap = 1 + floor(log(1-u) / log(1-p)); log1p keeps the
  // small-p case accurate. u < 1 and p < 1 here, so both logs are finite
  // and negative (u = 0 gives gap 1).
  const double g = std::log1p(-u) / std::log1p(-p);
  return 1 + static_cast<std::size_t>(g);
}

/// One independent Rng stream per host, derived from a run seed.
class ArrivalStreams {
 public:
  void Reset(std::uint64_t seed, std::size_t hosts) {
    Rng root(seed);
    streams_.clear();
    streams_.reserve(hosts);
    for (std::size_t h = 0; h < hosts; ++h) {
      streams_.push_back(root.Split());
    }
  }

  [[nodiscard]] Rng& Stream(std::size_t h) {
    CS_DCHECK(h < streams_.size(), "no arrival stream for host ", h);
    return streams_[h];
  }

 private:
  std::vector<Rng> streams_;
};

}  // namespace commsched::sim
