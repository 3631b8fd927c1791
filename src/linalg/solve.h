// In-place Cholesky (LL^T) over caller-owned row-major buffers, sized for
// the small dense systems of the equivalent-distance solve (§3).
#pragma once

#include <cstddef>

namespace commsched::linalg {

/// In-place Cholesky factorization A = L L^T of the n x n row-major
/// symmetric positive-definite matrix at `a`, over a caller-owned buffer:
/// the lower triangle (diagonal included) is overwritten with L and the
/// strict upper triangle is left as it was. Returns false, with `a` partly
/// overwritten, if the matrix is not positive definite (a pivot at or below
/// tol * max(max|a_ii|, 1)).
[[nodiscard]] bool CholeskyFactorInPlace(double* a, std::size_t n, double tol = 1e-12);

/// Solves L L^T x = b in place (`b` becomes x), given the n x n factor
/// written by CholeskyFactorInPlace. Reads only the lower triangle.
void CholeskySolveInPlace(const double* l, std::size_t n, double* b);

}  // namespace commsched::linalg
