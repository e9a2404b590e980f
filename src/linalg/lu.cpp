#include "linalg/lu.hpp"

#include <cmath>

namespace redspot {

namespace detail {

namespace {

/// The trailing update of one row: y[j] -= a * x[j]. Rows i != k never
/// overlap, and saying so lets the loop vectorize; each element still
/// takes one multiply and one subtract, rounded separately (no FMA), so
/// the factors are bit-identical to the plain loop.
void subtract_scaled(double* __restrict y, const double* __restrict x,
                     double a, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) y[j] -= a * x[j];
}

/// subtract_scaled on two rows at once, reading the pivot row once: the
/// same operation per element, half the loop overhead on short rows.
void subtract_scaled2(double* __restrict y1, double* __restrict y2,
                      const double* __restrict x, double a1, double a2,
                      std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    const double xj = x[j];
    y1[j] -= a1 * xj;
    y2[j] -= a2 * xj;
  }
}

}  // namespace

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
    // Eliminate below the pivot, two rows per pass. Each row i takes
    // factor = a[i][k] / pivot (as a product with the inverse) and, unless
    // the factor is zero, the update of its columns after k.
    const double inv_pivot = 1.0 / lu[k * n + k];
    const double* tail_k = lu + k * n + k + 1;
    const std::size_t len = n - k - 1;
    std::size_t i = k + 1;
    for (; i + 1 < n; i += 2) {
      double* row1 = lu + i * n;
      double* row2 = row1 + n;
      const double f1 = row1[k] * inv_pivot;
      const double f2 = row2[k] * inv_pivot;
      row1[k] = f1;
      row2[k] = f2;
      if (f1 != 0.0 && f2 != 0.0) {
        subtract_scaled2(row1 + k + 1, row2 + k + 1, tail_k, f1, f2, len);
        continue;
      }
      if (f1 != 0.0) subtract_scaled(row1 + k + 1, tail_k, f1, len);
      if (f2 != 0.0) subtract_scaled(row2 + k + 1, tail_k, f2, len);
    }
    if (i < n) {
      double* row = lu + i * n;
      const double f = row[k] * inv_pivot;
      row[k] = f;
      if (f != 0.0) subtract_scaled(row + k + 1, tail_k, f, len);
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
