#include "linalg/solve.h"

#include <algorithm>
#include <cmath>

namespace commsched::linalg {

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

}  // namespace commsched::linalg
