#include "util/math.hpp"

#include <algorithm>

namespace heteroplace::util {

BisectResult bisect_increasing(const std::function<double(double)>& f, double lo, double hi,
                               double x_tol, int max_iter) {
  BisectResult r;
  double flo = f(lo);
  double fhi = f(hi);
  if (flo >= 0.0) {  // root at or below lo
    r.x = lo;
    r.fx = flo;
    r.converged = true;
    return r;
  }
  if (fhi <= 0.0) {  // root at or above hi
    r.x = hi;
    r.fx = fhi;
    r.converged = true;
    return r;
  }
  for (int i = 0; i < max_iter; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    r.iterations = i + 1;
    if (fmid <= 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= x_tol) {
      r.x = 0.5 * (lo + hi);
      r.fx = f(r.x);
      r.converged = true;
      return r;
    }
  }
  r.x = 0.5 * (lo + hi);
  r.fx = f(r.x);
  r.converged = false;
  return r;
}

double invert_decreasing(const std::function<double(double)>& g, double target, double lo,
                         double hi, double x_tol, int max_iter) {
  const auto res =
      bisect_increasing([&](double x) { return target - g(x); }, lo, hi, x_tol, max_iter);
  return std::clamp(res.x, lo, hi);
}

}  // namespace heteroplace::util
