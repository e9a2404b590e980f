#include "trace/var.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "linalg/lu.hpp"
#include "linalg/ols.hpp"
#include "stats/timeseries.hpp"

namespace redspot {

VarFit fit_var(const std::vector<std::vector<double>>& series,
               std::size_t lag_order) {
  REDSPOT_CHECK(lag_order >= 1);
  REDSPOT_CHECK(!series.empty());
  const std::size_t k = series.size();
  const std::size_t t_total = series[0].size();
  for (const auto& s : series) REDSPOT_CHECK(s.size() == t_total);
  REDSPOT_CHECK_MSG(t_total > lag_order + k * lag_order + 1,
                    "too few samples for VAR(" << lag_order << ")");

  const std::size_t t_eff = t_total - lag_order;
  const std::size_t num_regressors = 1 + k * lag_order;

  Matrix x(t_eff, num_regressors);
  Matrix y(t_eff, k);
  for (std::size_t row = 0; row < t_eff; ++row) {
    const std::size_t t = row + lag_order;
    x(row, 0) = 1.0;  // intercept
    for (std::size_t l = 1; l <= lag_order; ++l)
      for (std::size_t j = 0; j < k; ++j)
        x(row, 1 + (l - 1) * k + j) = series[j][t - l];
    for (std::size_t j = 0; j < k; ++j) y(row, j) = series[j][t];
  }

  const MultiOlsFit ols = ols_fit_multi(x, y);

  VarFit fit;
  fit.lag_order = lag_order;
  fit.effective_samples = t_eff;
  fit.intercept.resize(k);
  for (std::size_t i = 0; i < k; ++i) fit.intercept[i] = ols.beta(0, i);
  fit.coefficients.reserve(lag_order);
  for (std::size_t l = 1; l <= lag_order; ++l) {
    Matrix a(k, k);
    for (std::size_t i = 0; i < k; ++i)       // equation (target series)
      for (std::size_t j = 0; j < k; ++j)     // regressor series
        a(i, j) = ols.beta(1 + (l - 1) * k + j, i);
    fit.coefficients.push_back(std::move(a));
  }

  // ML residual covariance.
  fit.residual_cov = Matrix(k, k);
  for (std::size_t row = 0; row < t_eff; ++row)
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        fit.residual_cov(i, j) +=
            ols.residuals(row, i) * ols.residuals(row, j);
  fit.residual_cov = fit.residual_cov * (1.0 / static_cast<double>(t_eff));

  LuDecomposition lu(fit.residual_cov);
  // A singular residual covariance (perfectly collinear residuals) cannot
  // happen with noisy data; guard anyway with a -inf-avoiding floor.
  const double log_det =
      lu.singular() ? -1e9 : lu.log_abs_determinant();
  fit.aic = var_aic(log_det, lag_order, k, t_eff);
  return fit;
}

VarFit fit_var_aic(const std::vector<std::vector<double>>& series,
                   std::size_t max_lag) {
  REDSPOT_CHECK(max_lag >= 1);
  VarFit best;
  double best_aic = std::numeric_limits<double>::infinity();
  for (std::size_t p = 1; p <= max_lag; ++p) {
    VarFit fit = fit_var(series, p);
    if (fit.aic < best_aic) {
      best_aic = fit.aic;
      best = std::move(fit);
    }
  }
  return best;
}

std::vector<std::vector<double>> to_series(const ZoneTraceSet& traces) {
  std::vector<std::vector<double>> out;
  out.reserve(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    out.push_back(traces.zone(z).to_doubles());
  return out;
}

CrossZoneEffects cross_zone_effects(const VarFit& fit) {
  CrossZoneEffects e;
  std::size_t n_within = 0;
  std::size_t n_cross = 0;
  for (const Matrix& a : fit.coefficients) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (i == j) {
          e.mean_abs_within += std::fabs(a(i, j));
          ++n_within;
        } else {
          e.mean_abs_cross += std::fabs(a(i, j));
          ++n_cross;
        }
      }
    }
  }
  if (n_within > 0) e.mean_abs_within /= static_cast<double>(n_within);
  if (n_cross > 0) e.mean_abs_cross /= static_cast<double>(n_cross);
  e.within_to_cross_ratio = e.mean_abs_cross > 0
                                ? e.mean_abs_within / e.mean_abs_cross
                                : std::numeric_limits<double>::infinity();
  return e;
}

}  // namespace redspot
