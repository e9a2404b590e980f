// Vector auto-regression of zone prices (Section 3.1).
//
// The paper justifies redundancy by showing that spot-price movements in
// different zones are nearly independent: a VAR fit (lag order chosen by
// the Akaike criterion) has same-zone lagged-price coefficients 1-2 orders
// of magnitude larger than cross-zone ones. This module reproduces that
// analysis: VAR(p) estimation by per-equation OLS, AIC lag selection, and
// the within/cross effect-size comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

/// A fitted VAR(p): x_t = c + sum_l A_l x_{t-l} + e_t.
struct VarFit {
  std::size_t lag_order = 0;
  /// A_1..A_p; A_l(i, j) is the effect of series j at lag l on series i.
  std::vector<Matrix> coefficients;
  std::vector<double> intercept;
  /// Maximum-likelihood residual covariance (divides by effective T).
  Matrix residual_cov;
  /// ln det(residual_cov) + 2 p K^2 / T (see stats/timeseries.hpp).
  double aic = 0.0;
  std::size_t effective_samples = 0;
};

/// Fits a VAR of the given lag order to K series of equal length.
/// Requires lag_order >= 1 and enough samples for the design matrix.
VarFit fit_var(const std::vector<std::vector<double>>& series,
               std::size_t lag_order);

/// Fits VAR(1..max_lag) and returns the fit minimizing AIC.
VarFit fit_var_aic(const std::vector<std::vector<double>>& series,
                   std::size_t max_lag);

/// Convenience: extracts per-zone sample vectors from a trace window.
std::vector<std::vector<double>> to_series(const ZoneTraceSet& traces);

/// Within-zone vs cross-zone lagged effect sizes of a fit.
struct CrossZoneEffects {
  double mean_abs_within = 0.0;  ///< average |A_l(i,i)|
  double mean_abs_cross = 0.0;   ///< average |A_l(i,j)|, i != j
  /// mean_abs_within / mean_abs_cross; the paper reports 1-2 orders of
  /// magnitude (ratio 10-100).
  double within_to_cross_ratio = 0.0;
};

CrossZoneEffects cross_zone_effects(const VarFit& fit);

}  // namespace redspot
