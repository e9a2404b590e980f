// Unit tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/ols.hpp"

namespace redspot {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
  EXPECT_THROW(m(2, 0), CheckFailure);
  EXPECT_THROW(m(0, 3), CheckFailure);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), CheckFailure);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Transpose) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, AddSubtract) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  EXPECT_EQ(a + b, (Matrix{{6, 8}, {10, 12}}));
  EXPECT_EQ(b - a, (Matrix{{4, 4}, {4, 4}}));
  EXPECT_THROW(a + Matrix(3, 3), CheckFailure);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  EXPECT_EQ(a * b, (Matrix{{19, 22}, {43, 50}}));
  EXPECT_EQ(a * Matrix::identity(2), a);
  EXPECT_THROW(a * Matrix(3, 2), CheckFailure);
}

TEST(Matrix, MultiplyRectangular) {
  const Matrix a{{1, 2, 3}};        // 1x3
  const Matrix b{{4}, {5}, {6}};    // 3x1
  const Matrix ab = a * b;          // 1x1
  EXPECT_EQ(ab(0, 0), 32.0);
  const Matrix ba = b * a;          // 3x3
  EXPECT_EQ(ba(2, 0), 6.0);
  EXPECT_EQ(ba(0, 2), 12.0);
}

TEST(Matrix, ScalarMultiply) {
  EXPECT_EQ((Matrix{{1, 2}} * 3.0), (Matrix{{3, 6}}));
}

TEST(Matrix, VectorMultiply) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{5, 6};
  const std::vector<double> r = a * v;
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], 17.0);
  EXPECT_EQ(r[1], 39.0);
}

TEST(Matrix, VecMat) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{5, 6};
  const std::vector<double> r = vec_mat(v, a);
  EXPECT_EQ(r[0], 23.0);
  EXPECT_EQ(r[1], 34.0);
}

TEST(Matrix, Norms) {
  const Matrix a{{3, 4}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(Matrix{{0, 0}}), 4.0);
}

TEST(Matrix, Dot) {
  EXPECT_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_THROW(dot({1}, {1, 2}), CheckFailure);
}

// --- LU ----------------------------------------------------------------------

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2, 1}, {1, 3}};
  const std::vector<double> x = solve(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  const Matrix a{{0, 1}, {1, 0}};
  const std::vector<double> x = solve(a, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, Determinant) {
  EXPECT_NEAR(LuDecomposition(Matrix{{2, 0}, {0, 3}}).determinant(), 6.0,
              1e-12);
  EXPECT_NEAR(LuDecomposition(Matrix{{0, 1}, {1, 0}}).determinant(), -1.0,
              1e-12);
  EXPECT_NEAR(LuDecomposition(Matrix{{1, 2}, {2, 4}}).determinant(), 0.0,
              1e-12);
}

TEST(Lu, DetectsSingular) {
  LuDecomposition lu(Matrix{{1, 2}, {2, 4}});
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve(std::vector<double>{1, 2}), CheckFailure);
  EXPECT_THROW(lu.log_abs_determinant(), CheckFailure);
}

TEST(Lu, Inverse) {
  const Matrix a{{4, 7}, {2, 6}};
  const Matrix inv = LuDecomposition(a).inverse();
  const Matrix prod = a * inv;
  EXPECT_LT(prod.max_abs_diff(Matrix::identity(2)), 1e-12);
}

TEST(Lu, LogAbsDeterminantMatchesDeterminant) {
  const Matrix a{{3, 1, 0}, {1, 4, 2}, {0, 2, 5}};
  LuDecomposition lu(a);
  EXPECT_NEAR(lu.log_abs_determinant(), std::log(std::fabs(lu.determinant())),
              1e-12);
}

TEST(Lu, MatrixRhs) {
  const Matrix a{{2, 0}, {0, 4}};
  const Matrix b{{2, 4}, {8, 12}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_LT(x.max_abs_diff(Matrix{{1, 2}, {2, 3}}), 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  // Property: for random well-conditioned A and x, solve(A, A x) == x.
  Rng rng(314);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(6);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
      a(r, r) += static_cast<double>(n);  // diagonal dominance
    }
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-5, 5);
    const std::vector<double> b = a * x;
    const std::vector<double> got = solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], x[i], 1e-9);
  }
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), CheckFailure);
}

/// The plain indexed loop detail::lu_factor_inplace must reproduce: every
/// expected up-time (markov/uptime) is a function of these exact doubles.
bool reference_lu_factor(double* lu, std::size_t n, std::size_t* perm,
                         int* perm_sign) {
  bool singular = false;
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
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
      continue;
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

TEST(Lu, FactorIsBitIdenticalToReferenceLoop) {
  Rng rng(2718);
  std::size_t singular_seen = 0;
  std::size_t swaps_seen = 0;
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<double> a(n * n);
      if (shape == 0) {
        // I - Q over a smoothed, substochastic transition block (the
        // expected-uptime solve's input): diagonally heavy, rarely swaps.
        for (std::size_t r = 0; r < n; ++r) {
          double total = 0.0;
          for (std::size_t c = 0; c < n; ++c) {
            a[r * n + c] = rng.uniform() < 0.7 ? 0.0 : rng.uniform();
            total += a[r * n + c];
          }
          const double keep = rng.uniform(0.5, 1.0);
          for (std::size_t c = 0; c < n; ++c) {
            const double q = total > 0.0 ? a[r * n + c] / total * keep : 0.0;
            a[r * n + c] = (r == c ? 1.0 : 0.0) - q;
          }
        }
      } else {
        // General: dense normals (pivot swaps), sparse with exact zeros
        // (zero factors), and sparse with one all-zero column (singular).
        for (double& v : a)
          v = shape == 1 || rng.uniform() < 0.3 ? rng.normal() : 0.0;
        if (shape == 3) {
          const std::size_t col = rng.uniform_index(n);
          for (std::size_t r = 0; r < n; ++r) a[r * n + col] = 0.0;
        }
      }
      std::vector<double> got = a;
      std::vector<double> want = a;
      std::vector<std::size_t> got_perm(n), want_perm(n);
      int got_sign = 1, want_sign = 1;
      const bool got_singular =
          detail::lu_factor_inplace(got.data(), n, got_perm.data(), &got_sign);
      const bool want_singular = reference_lu_factor(
          want.data(), n, want_perm.data(), &want_sign);
      ASSERT_EQ(got_singular, want_singular) << "n=" << n << " shape=" << shape;
      ASSERT_EQ(got_perm, want_perm) << "n=" << n << " shape=" << shape;
      ASSERT_EQ(got_sign, want_sign) << "n=" << n << " shape=" << shape;
      for (std::size_t i = 0; i < n * n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "n=" << n << " shape=" << shape << " entry " << i;
      }
      singular_seen += want_singular ? 1 : 0;
      swaps_seen += want_sign < 0 ? 1 : 0;
    }
  }
  EXPECT_GT(singular_seen, 0u);
  EXPECT_GT(swaps_seen, 0u);
}

// --- OLS ----------------------------------------------------------------------

TEST(Ols, RecoversExactLinearModel) {
  // y = 2 + 3 x, no noise.
  Matrix x(10, 2);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = static_cast<double>(i);
    y[i] = 2.0 + 3.0 * static_cast<double>(i);
  }
  const OlsFit fit = ols_fit(x, y);
  EXPECT_NEAR(fit.beta[0], 2.0, 1e-10);
  EXPECT_NEAR(fit.beta[1], 3.0, 1e-10);
  EXPECT_NEAR(fit.rss, 0.0, 1e-10);
}

TEST(Ols, ResidualsOrthogonalToDesign) {
  Rng rng(2718);
  Matrix x(50, 3);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.normal();
    x(i, 2) = rng.normal();
    y[i] = 1.0 + 0.5 * x(i, 1) - 2.0 * x(i, 2) + rng.normal(0, 0.1);
  }
  const OlsFit fit = ols_fit(x, y);
  for (std::size_t j = 0; j < 3; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 50; ++i) acc += x(i, j) * fit.residuals[i];
    EXPECT_NEAR(acc, 0.0, 1e-8);
  }
}

TEST(Ols, ThrowsOnCollinearDesign) {
  Matrix x(5, 2);
  std::vector<double> y(5, 1.0);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = 2.0;  // collinear with the intercept
  }
  EXPECT_THROW(ols_fit(x, y), CheckFailure);
}

TEST(Ols, ThrowsOnUnderdetermined) {
  EXPECT_THROW(ols_fit(Matrix(2, 3), std::vector<double>(2, 0.0)),
               CheckFailure);
}

TEST(Ols, MultiResponseMatchesPerColumn) {
  Rng rng(99);
  Matrix x(30, 2);
  Matrix y(30, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.normal();
    y(i, 0) = 2.0 + x(i, 1) + rng.normal(0, 0.01);
    y(i, 1) = -1.0 + 4.0 * x(i, 1) + rng.normal(0, 0.01);
  }
  const MultiOlsFit multi = ols_fit_multi(x, y);
  for (std::size_t col = 0; col < 2; ++col) {
    std::vector<double> yc(30);
    for (std::size_t i = 0; i < 30; ++i) yc[i] = y(i, col);
    const OlsFit single = ols_fit(x, yc);
    EXPECT_NEAR(multi.beta(0, col), single.beta[0], 1e-10);
    EXPECT_NEAR(multi.beta(1, col), single.beta[1], 1e-10);
    for (std::size_t i = 0; i < 30; ++i)
      EXPECT_NEAR(multi.residuals(i, col), single.residuals[i], 1e-10);
  }
}

}  // namespace
}  // namespace redspot
