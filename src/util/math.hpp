#pragma once

// Small numeric utilities: robust bisection, monotone inversion, clamping,
// approximate comparisons. These underpin the utility/demand curve inversion
// at the heart of the hypothetical-utility equalizer.

#include <cmath>
#include <functional>
#include <limits>

namespace heteroplace::util {

/// Absolute-or-relative approximate equality.
[[nodiscard]] inline bool almost_equal(double a, double b, double abs_tol = 1e-9,
                                       double rel_tol = 1e-9) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::fmax(std::fabs(a), std::fabs(b));
}

/// Result of a bisection search.
struct BisectResult {
  double x{std::numeric_limits<double>::quiet_NaN()};
  double fx{std::numeric_limits<double>::quiet_NaN()};
  int iterations{0};
  bool converged{false};
};

/// Find x in [lo, hi] with f(x) ~= 0 for a function that is monotone
/// non-decreasing in x (f(lo) <= 0 <= f(hi) is assumed; endpoints are
/// clamped if the root lies outside). Tolerances are on the x interval.
///
/// The equalizer relies on this being robust to flat regions (piecewise
/// utility functions have them), hence plain bisection rather than secant.
[[nodiscard]] BisectResult bisect_increasing(const std::function<double(double)>& f, double lo,
                                             double hi, double x_tol = 1e-9, int max_iter = 200);

/// Invert a monotone non-increasing function g on [lo, hi]: find x with
/// g(x) ~= target. If target >= g(lo) returns lo; if target <= g(hi)
/// returns hi.
[[nodiscard]] double invert_decreasing(const std::function<double(double)>& g, double target,
                                       double lo, double hi, double x_tol = 1e-9,
                                       int max_iter = 200);

/// Linear interpolation: value at `t` on the segment (x0,y0)-(x1,y1).
[[nodiscard]] inline double lerp_at(double x0, double y0, double x1, double y1, double t) {
  if (x1 == x0) return y0;
  const double a = (t - x0) / (x1 - x0);
  return y0 + a * (y1 - y0);
}

}  // namespace heteroplace::util
