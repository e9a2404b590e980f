// LU decomposition with partial pivoting.
//
// Used to solve the VAR normal equations and to compute the log-determinant
// of residual covariance matrices for AIC lag selection.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace redspot {

/// PA = LU factorization of a square matrix, with solve / determinant.
class LuDecomposition {
 public:
  /// Factors `a` (must be square). Singular matrices are detected lazily:
  /// `singular()` reports it and solve() refuses.
  explicit LuDecomposition(const Matrix& a);

  bool singular() const { return singular_; }

  /// Solves A x = b. Requires !singular() and b.size() == n.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves A X = B column-by-column. Requires !singular().
  Matrix solve(const Matrix& b) const;

  /// det(A). Zero when singular.
  double determinant() const;

  /// log |det(A)| — stable for matrices whose determinant under/overflows.
  /// Requires !singular().
  double log_abs_determinant() const;

  /// A^{-1}. Requires !singular().
  Matrix inverse() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                   // combined L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
  bool singular_ = false;
};

/// Convenience: solves A x = b directly. Throws CheckFailure when singular.
std::vector<double> solve(const Matrix& a, const std::vector<double>& b);

namespace detail {

/// Factors the row-major n x n matrix `lu` in place (PA = LU, partial
/// pivoting); fills `perm` and flips `*perm_sign` per row swap. Returns
/// whether the matrix is singular. Exactly LuDecomposition's arithmetic,
/// exposed over caller-owned storage so hot paths can reuse buffers.
bool lu_factor_inplace(double* lu, std::size_t n, std::size_t* perm,
                       int* perm_sign);

/// Solves A x = b given a factorization from lu_factor_inplace. `x` must
/// not alias `b`.
void lu_solve_inplace(const double* lu, std::size_t n,
                      const std::size_t* perm, const double* b, double* x);

}  // namespace detail

}  // namespace redspot
