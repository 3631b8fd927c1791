#include "linalg/solve.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace commsched::linalg {
namespace {

/// A^T A + n I, row-major: symmetric positive definite.
std::vector<double> RandomSpd(std::size_t n, commsched::Rng& rng) {
  std::vector<double> a(n * n);
  for (double& v : a) v = rng.NextDouble() * 2.0 - 1.0;
  std::vector<double> spd(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t k = 0; k < n; ++k) spd[r * n + c] += a[k * n + r] * a[k * n + c];
    }
    spd[r * n + r] += static_cast<double>(n);
  }
  return spd;
}

std::vector<double> MatVec(const std::vector<double>& m, const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> y(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) y[r] += m[r * n + c] * x[c];
  }
  return y;
}

/// Factors a copy of `a` in place and solves for `b`; the factorization
/// must succeed.
std::vector<double> Solve(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  EXPECT_TRUE(CholeskyFactorInPlace(a.data(), n));
  CholeskySolveInPlace(a.data(), n, b.data());
  return b;
}

TEST(Cholesky, SolvesSpdSystem) {
  commsched::Rng rng(7);
  const std::vector<double> a = RandomSpd(8, rng);
  std::vector<double> x_true(8);
  for (auto& v : x_true) v = rng.NextDouble();
  const std::vector<double> x = Solve(a, MatVec(a, x_true));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Cholesky, RandomRoundTrip) {
  commsched::Rng rng(99);
  for (std::size_t n : {1u, 3u, 7u, 15u}) {
    const std::vector<double> a = RandomSpd(n, rng);  // well-conditioned
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.NextDouble() * 4.0 - 2.0;
    const std::vector<double> x = Solve(a, MatVec(a, x_true));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  std::vector<double> a = {1.0, 2.0,
                           2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactorInPlace(a.data(), 2));
}

TEST(Cholesky, RejectsSingularMatrix) {
  std::vector<double> zero(4, 0.0);
  EXPECT_FALSE(CholeskyFactorInPlace(zero.data(), 2));
}

}  // namespace
}  // namespace commsched::linalg
