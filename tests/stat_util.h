// Statistical-equivalence primitives for comparing seeded simulator runs:
//   * the difference of sample means inside a Welch confidence interval
//     widened by an application margin, and
//   * two empirical distributions within a two-sample Kolmogorov-Smirnov
//     bound.
// No simulator test uses them any more: there is one engine, pinned byte
// for byte by tests/data/sim_metrics.golden.txt. ROADMAP item 1 lists this
// header and its unit tests for deletion.
// Header-only; test-tree only (not part of the library).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"

namespace commsched::testing {

struct SampleStats {
  std::size_t n = 0;
  double mean = 0.0;
  double variance = 0.0;  // unbiased (n - 1 denominator)
};

[[nodiscard]] inline SampleStats Summarize(const std::vector<double>& xs) {
  SampleStats s;
  s.n = xs.size();
  if (s.n == 0) return s;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n < 2) return s;
  double ss = 0.0;
  for (const double x : xs) ss += (x - s.mean) * (x - s.mean);
  s.variance = ss / static_cast<double>(s.n - 1);
  return s;
}

/// Two-sided standard-normal quantile z with P(|Z| <= z) = 1 - alpha,
/// via Acklam's rational approximation of the inverse normal CDF
/// (relative error < 1.2e-9 — far below statistical noise here).
[[nodiscard]] inline double NormalQuantileTwoSided(double alpha) {
  CS_CHECK(alpha > 0.0 && alpha < 1.0, "alpha out of range: ", alpha);
  const double p = 1.0 - alpha / 2.0;  // upper quantile position
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0));
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0));
}

/// Student-t two-sided quantile with `df` degrees of freedom, from the
/// normal quantile via the Cornish-Fisher expansion — accurate to a few
/// percent for df >= 5, which only makes the CI slightly conservative.
[[nodiscard]] inline double StudentTQuantileTwoSided(double alpha, double df) {
  CS_CHECK(df > 0.0, "degrees of freedom must be positive");
  const double z = NormalQuantileTwoSided(alpha);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  return z + (z3 + z) / (4.0 * df) +
         (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * df * df);
}

struct WelchResult {
  double mean_diff = 0.0;  // mean(a) - mean(b)
  double half_width = 0.0;  // CI is mean_diff +/- half_width
  double df = 0.0;          // Welch-Satterthwaite degrees of freedom
};

/// Welch two-sample confidence interval for the difference of means at
/// confidence level 1 - alpha (unequal variances, unequal sizes).
[[nodiscard]] inline WelchResult WelchMeanDifference(const std::vector<double>& a,
                                                    const std::vector<double>& b,
                                                    double alpha) {
  const SampleStats sa = Summarize(a);
  const SampleStats sb = Summarize(b);
  CS_CHECK(sa.n >= 2 && sb.n >= 2, "Welch CI needs >= 2 samples per side");
  WelchResult r;
  r.mean_diff = sa.mean - sb.mean;
  const double va = sa.variance / static_cast<double>(sa.n);
  const double vb = sb.variance / static_cast<double>(sb.n);
  const double se2 = va + vb;
  if (se2 <= 0.0) {
    // Both samples are constant: the CI collapses to the point difference.
    r.half_width = 0.0;
    r.df = static_cast<double>(sa.n + sb.n - 2);
    return r;
  }
  r.df = se2 * se2 /
         (va * va / static_cast<double>(sa.n - 1) + vb * vb / static_cast<double>(sb.n - 1));
  r.half_width = StudentTQuantileTwoSided(alpha, r.df) * std::sqrt(se2);
  return r;
}

/// True when the two samples' means agree at level alpha up to `margin`:
/// the Welch CI of mean(a) - mean(b), widened by margin, contains zero.
/// `margin` absorbs genuine (tiny) model differences between the engines.
[[nodiscard]] inline bool MeansEquivalent(const std::vector<double>& a,
                                          const std::vector<double>& b, double alpha,
                                          double margin) {
  const WelchResult r = WelchMeanDifference(a, b, alpha);
  return std::abs(r.mean_diff) <= r.half_width + margin;
}

/// Two-sample Kolmogorov-Smirnov statistic: the maximum gap between the
/// empirical CDFs of a and b. Inputs need not be sorted.
[[nodiscard]] inline double KsStatistic(std::vector<double> a, std::vector<double> b) {
  CS_CHECK(!a.empty() && !b.empty(), "KS statistic needs non-empty samples");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double gap = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    gap = std::max(gap, std::abs(static_cast<double>(i) / na -
                                 static_cast<double>(j) / nb));
  }
  return gap;
}

/// Rejection threshold for the two-sample KS statistic at level alpha
/// (asymptotic Kolmogorov bound): samples from the same distribution exceed
/// it with probability <= alpha.
[[nodiscard]] inline double KsBound(std::size_t n, std::size_t m, double alpha) {
  CS_CHECK(n > 0 && m > 0, "KS bound needs positive sample sizes");
  CS_CHECK(alpha > 0.0 && alpha < 1.0, "alpha out of range: ", alpha);
  const double nn = static_cast<double>(n);
  const double mm = static_cast<double>(m);
  return std::sqrt(-std::log(alpha / 2.0) / 2.0 * (nn + mm) / (nn * mm));
}

/// True when the KS statistic of the two samples is within the alpha bound
/// plus `margin` (same role as in MeansEquivalent).
[[nodiscard]] inline bool DistributionsEquivalent(const std::vector<double>& a,
                                                  const std::vector<double>& b,
                                                  double alpha, double margin = 0.0) {
  return KsStatistic(a, b) <= KsBound(a.size(), b.size(), alpha) + margin;
}

}  // namespace commsched::testing
