#include "linalg/solve.h"

#include <algorithm>
#include <cmath>

namespace commsched::linalg {

std::optional<LuFactorization> LuFactorization::Compute(const Matrix& a, double tol) {
  CS_CHECK(a.rows() == a.cols(), "LU requires a square matrix");
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;

  double max_abs = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      max_abs = std::max(max_abs, std::abs(lu(r, c)));
    }
  }
  const double threshold = tol * std::max(max_abs, 1.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at/below the diagonal.
    std::size_t pivot_row = k;
    double pivot_val = std::abs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(lu(r, k)) > pivot_val) {
        pivot_val = std::abs(lu(r, k));
        pivot_row = r;
      }
    }
    if (pivot_val <= threshold) {
      return std::nullopt;  // singular
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu(k, c), lu(pivot_row, c));
      }
      std::swap(perm[k], perm[pivot_row]);
      sign = -sign;
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu(r, k) * inv_pivot;
      lu(r, k) = factor;
      if (factor == 0.0) continue;
      double* rrow = lu.row(r);
      const double* krow = lu.row(k);
      for (std::size_t c = k + 1; c < n; ++c) {
        rrow[c] -= factor * krow[c];
      }
    }
  }
  return LuFactorization(std::move(lu), std::move(perm), sign);
}

std::vector<double> LuFactorization::Solve(const std::vector<double>& b) const {
  const std::size_t n = order();
  CS_CHECK(b.size() == n, "rhs size mismatch");
  std::vector<double> x(n);
  // Apply permutation, forward-substitute L (unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[perm_[i]];
    const double* row = lu_.row(i);
    for (std::size_t j = 0; j < i; ++j) {
      sum -= row[j] * x[j];
    }
    x[i] = sum;
  }
  // Back-substitute U.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    const double* row = lu_.row(ii);
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= row[j] * x[j];
    }
    x[ii] = sum / row[ii];
  }
  return x;
}

double LuFactorization::Determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < order(); ++i) {
    det *= lu_(i, i);
  }
  return det;
}

bool CholeskyFactorInPlace(double* a, std::size_t n, double tol) {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a[i * n + i]));
  const double threshold = tol * std::max(max_diag, 1.0);

  // Column by column: column j reads only a's own entries of column j and
  // the L entries of the columns before it, so L can overwrite a in place.
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = a + j * n;
    double diag = row_j[j];
    for (std::size_t k = 0; k < j; ++k) {
      diag -= row_j[k] * row_j[k];
    }
    if (diag <= threshold) {
      return false;  // not SPD
    }
    row_j[j] = std::sqrt(diag);
    const double inv = 1.0 / row_j[j];
    for (std::size_t i = j + 1; i < n; ++i) {
      double* row_i = a + i * n;
      double sum = row_i[j];
      for (std::size_t k = 0; k < j; ++k) {
        sum -= row_i[k] * row_j[k];
      }
      row_i[j] = sum * inv;
    }
  }
  return true;
}

void CholeskySolveInPlace(const double* l, std::size_t n, double* b) {
  // Forward substitution L y = b, then back substitution L^T x = y; each
  // step reads only entries already turned into y (or x).
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) {
      sum -= l[i * n + j] * b[j];
    }
    b[i] = sum / l[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= l[j * n + ii] * b[j];
    }
    b[ii] = sum / l[ii * n + ii];
  }
}

std::optional<CholeskyFactorization> CholeskyFactorization::Compute(const Matrix& a, double tol) {
  CS_CHECK(a.rows() == a.cols(), "Cholesky requires a square matrix");
  Matrix l = a;
  if (!CholeskyFactorInPlace(l.data(), l.rows(), tol)) {
    return std::nullopt;
  }
  return CholeskyFactorization(std::move(l));
}

std::vector<double> CholeskyFactorization::Solve(const std::vector<double>& b) const {
  CS_CHECK(b.size() == order(), "rhs size mismatch");
  std::vector<double> x = b;
  CholeskySolveInPlace(l_.data(), order(), x.data());
  return x;
}

std::vector<double> SolveLinearSystem(const Matrix& a, const std::vector<double>& b) {
  auto lu = LuFactorization::Compute(a);
  CS_CHECK(lu.has_value(), "singular system in SolveLinearSystem");
  return lu->Solve(b);
}

}  // namespace commsched::linalg
