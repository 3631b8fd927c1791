// Dense row-major matrix of doubles.  Networks in this library have at most
// a few dozen switches, so dense storage and O(n^3) factorizations are the
// right tool; no sparse machinery is warranted.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/check.h"

namespace commsched::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity matrix of order n.
  [[nodiscard]] static Matrix Identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    CS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    CS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// The rows*cols elements, row-major and contiguous.
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Raw row pointer (row-major, contiguous).
  [[nodiscard]] double* row(std::size_t r) { return &data_[r * cols_]; }
  [[nodiscard]] const double* row(std::size_t r) const { return &data_[r * cols_]; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  [[nodiscard]] Matrix Transposed() const;

  /// Matrix product (dims must agree).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Max-abs element difference; matrices must have equal shape.
  [[nodiscard]] double MaxAbsDiff(const Matrix& other) const;

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace commsched::linalg
