#include "linalg/lu.hpp"

#include <cmath>

namespace redspot {

namespace detail {

bool lu_factor_inplace(double* lu, std::size_t n, std::size_t* perm,
                       int* perm_sign) {
  bool singular = false;
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  // The hot loops index the row-major storage directly: the checked
  // Matrix accessor costs more than the arithmetic at these sizes.
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu[i * n + k]);
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best == 0.0) {
      singular = true;
      continue;  // keep factoring the remaining columns for determinant = 0
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu[k * n + j], lu[pivot * n + j]);
      std::swap(perm[k], perm[pivot]);
      *perm_sign = -*perm_sign;
    }
    const double inv_pivot = 1.0 / lu[k * n + k];
    const double* row_k = lu + k * n;
    for (std::size_t i = k + 1; i < n; ++i) {
      double* row_i = lu + i * n;
      const double factor = row_i[k] * inv_pivot;
      row_i[k] = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j)
        row_i[j] -= factor * row_k[j];
    }
  }
  return singular;
}

void lu_solve_inplace(const double* lu, std::size_t n,
                      const std::size_t* perm, const double* b, double* x) {
  // Forward substitution with permuted b (L has unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lu + i * n;
    double acc = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu + ii * n;
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
}

}  // namespace detail

LuDecomposition::LuDecomposition(const Matrix& a)
    : n_(a.rows()), lu_(a), perm_(a.rows()) {
  REDSPOT_CHECK_MSG(a.square(), "LU requires a square matrix");
  singular_ =
      detail::lu_factor_inplace(lu_.data(), n_, perm_.data(), &perm_sign_);
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
  REDSPOT_CHECK_MSG(!singular_, "solve() on a singular matrix");
  REDSPOT_CHECK(b.size() == n_);
  std::vector<double> x(n_);
  detail::lu_solve_inplace(lu_.data(), n_, perm_.data(), b.data(), x.data());
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  REDSPOT_CHECK(b.rows() == n_);
  Matrix x(n_, b.cols());
  std::vector<double> col(n_);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n_; ++r) col[r] = b(r, c);
    const std::vector<double> sol = solve(col);
    for (std::size_t r = 0; r < n_; ++r) x(r, c) = sol[r];
  }
  return x;
}

double LuDecomposition::determinant() const {
  if (singular_) return 0.0;
  double det = static_cast<double>(perm_sign_);
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

double LuDecomposition::log_abs_determinant() const {
  REDSPOT_CHECK_MSG(!singular_, "log-determinant of a singular matrix");
  double acc = 0.0;
  for (std::size_t i = 0; i < n_; ++i) acc += std::log(std::fabs(lu_(i, i)));
  return acc;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(n_));
}

std::vector<double> solve(const Matrix& a, const std::vector<double>& b) {
  return LuDecomposition(a).solve(b);
}

}  // namespace redspot
