// Small dense linear algebra.
//
// redspot needs linear algebra in two places: the Markov uptime model
// (probability-vector / transition-matrix products, Appendix B) and the
// vector auto-regression of Section 3.1 (OLS fits, covariance determinants
// for AIC). Problem sizes are tiny (state spaces < 256, VAR dimension 3), so
// a straightforward row-major dense implementation is the right tool; no
// external BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "common/check.hpp"

namespace redspot {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// From nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Reshapes to rows x cols, zero-filled, reusing the storage when it is
  /// large enough (hot paths refit into one matrix without allocating).
  void resize(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    REDSPOT_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    REDSPOT_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous row-major storage (for tight loops).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Matrix transposed() const;

  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(double k) const;

  /// Matrix-vector product; v.size() must equal cols().
  std::vector<double> operator*(const std::vector<double>& v) const;

  /// Max-abs elementwise difference; matrices must be the same shape.
  double max_abs_diff(const Matrix& o) const;

  /// Frobenius norm.
  double frobenius_norm() const;

  bool operator==(const Matrix& o) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Row-vector times matrix: result_j = sum_i v_i * m(i, j).
std::vector<double> vec_mat(const std::vector<double>& v, const Matrix& m);

/// Dot product; vectors must have equal size.
double dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace redspot
