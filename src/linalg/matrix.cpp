#include "linalg/matrix.hpp"

#include <cmath>
#include <ostream>

namespace redspot {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    REDSPOT_CHECK_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator+(const Matrix& o) const {
  REDSPOT_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] += o.data_[i];
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  REDSPOT_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] -= o.data_[i];
  return r;
}

Matrix Matrix::operator*(const Matrix& o) const {
  REDSPOT_CHECK_MSG(cols_ == o.rows_, "shape mismatch in Matrix::operator*");
  Matrix r(rows_, o.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both r and o.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* orow = o.data() + k * o.cols_;
      double* rrow = r.data() + i * o.cols_;
      for (std::size_t j = 0; j < o.cols_; ++j) rrow[j] += a * orow[j];
    }
  }
  return r;
}

Matrix Matrix::operator*(double k) const {
  Matrix r = *this;
  for (auto& x : r.data_) x *= k;
  return r;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  REDSPOT_CHECK(v.size() == cols_);
  std::vector<double> r(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = data() + i * cols_;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * v[j];
    r[i] = acc;
  }
  return r;
}

double Matrix::max_abs_diff(const Matrix& o) const {
  REDSPOT_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - o.data_[i]));
  return m;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << (r + 1 < m.rows() ? ";\n" : "]");
  }
  return os;
}

std::vector<double> vec_mat(const std::vector<double>& v, const Matrix& m) {
  REDSPOT_CHECK(v.size() == m.rows());
  std::vector<double> r(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double a = v[i];
    if (a == 0.0) continue;
    const double* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) r[j] += a * row[j];
  }
  return r;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  REDSPOT_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace redspot
