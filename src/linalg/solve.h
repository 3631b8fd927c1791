// Direct solvers: LU with partial pivoting and Cholesky (LL^T).
// Sized for the small dense systems arising from resistor networks.
#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace commsched::linalg {

/// LU factorization with partial pivoting of a square matrix.
/// Factor once, solve many right-hand sides.
class LuFactorization {
 public:
  /// Factors `a`; returns nullopt if the matrix is singular (to working
  /// precision, pivot < tol * max|a|).
  [[nodiscard]] static std::optional<LuFactorization> Compute(const Matrix& a,
                                                              double tol = 1e-12);

  /// Solves A x = b. b.size() must equal the matrix order.
  [[nodiscard]] std::vector<double> Solve(const std::vector<double>& b) const;

  /// Determinant of A (product of pivots with sign of the permutation).
  [[nodiscard]] double Determinant() const;

  [[nodiscard]] std::size_t order() const { return lu_.rows(); }

 private:
  LuFactorization(Matrix lu, std::vector<std::size_t> perm, int perm_sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), perm_sign_(perm_sign) {}

  Matrix lu_;                       // packed L (unit diag) and U
  std::vector<std::size_t> perm_;   // row permutation
  int perm_sign_;
};

/// In-place Cholesky factorization A = L L^T of the n x n row-major
/// symmetric positive-definite matrix at `a`, over a caller-owned buffer:
/// the lower triangle (diagonal included) is overwritten with L and the
/// strict upper triangle is left as it was. Returns false, with `a` partly
/// overwritten, if the matrix is not positive definite (a pivot at or below
/// tol * max(max|a_ii|, 1)). This and CholeskySolveInPlace are the one copy
/// of the Cholesky loops; CholeskyFactorization and the resistance solves
/// all run on them.
[[nodiscard]] bool CholeskyFactorInPlace(double* a, std::size_t n, double tol = 1e-12);

/// Solves L L^T x = b in place (`b` becomes x), given the n x n factor
/// written by CholeskyFactorInPlace. Reads only the lower triangle.
void CholeskySolveInPlace(const double* l, std::size_t n, double* b);

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
class CholeskyFactorization {
 public:
  /// Returns nullopt if `a` is not positive definite (within tolerance).
  [[nodiscard]] static std::optional<CholeskyFactorization> Compute(const Matrix& a,
                                                                    double tol = 1e-12);

  [[nodiscard]] std::vector<double> Solve(const std::vector<double>& b) const;

  [[nodiscard]] std::size_t order() const { return l_.rows(); }

 private:
  explicit CholeskyFactorization(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // L in the lower triangle; the upper triangle is unused
};

/// One-shot convenience: solves A x = b by LU; throws ContractError on a
/// singular matrix.
[[nodiscard]] std::vector<double> SolveLinearSystem(const Matrix& a, const std::vector<double>& b);

}  // namespace commsched::linalg
