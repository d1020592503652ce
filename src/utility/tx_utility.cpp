#include "utility/tx_utility.hpp"

#include <algorithm>
#include <cmath>

namespace heteroplace::utility {

// Importance semantics (matches JobUtilityModel): the equalized quantity
// is raw/importance, so more-important apps sustain proportionally higher
// raw utility under contention.

double TxCurve::utility(double alloc) const {
  double raw;
  if (alloc <= 0.0) {
    // Nothing allocated but load offered: strongly unsatisfied. Use a
    // large negative value that still orders below any finite-RT utility.
    raw = -1e3;
  } else {
    const auto perf = perfmodel::evaluate_tx(lambda, service_demand, util::CpuMhz{alloc}, rho_cap);
    raw = (rt_goal - perf.response_time.get()) / rt_goal;
    raw = std::min(raw, utility_cap);
    if (raw > 0.0 && perf.throughput_ratio < 1.0) {
      raw *= std::pow(perf.throughput_ratio, throughput_exponent);
    }
  }
  return raw / importance;
}

double TxCurve::alloc_for_utility(double u) const {
  if (u >= utility_cap / importance) return demand_hi;
  // Bisection on utility(x) − u, monotone non-decreasing in x. The
  // resolution is relative to the demand ceiling.
  double lo = 0.0;
  double hi = demand_hi;
  const double x_tol = 1e-6 * std::max(1.0, hi);
  if (utility(lo) - u >= 0.0) return lo;
  if (utility(hi) - u <= 0.0) return hi;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (utility(mid) - u <= 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= x_tol) break;
  }
  return std::clamp(0.5 * (lo + hi), 0.0, demand_hi);
}

TxCurve TxUtilityModel::curve(const workload::TxAppSpec& spec, double lambda) const {
  TxCurve c;
  c.lambda = lambda;
  c.service_demand = spec.service_demand;
  c.rt_goal = spec.rt_goal.get();
  c.utility_cap = spec.utility_cap;
  c.rho_cap = spec.max_utilization;
  c.throughput_exponent = spec.throughput_exponent;
  c.importance = spec.importance > 0.0 ? spec.importance : 1.0;
  c.demand_hi = demand_for_max_utility(spec, lambda).get();
  return c;
}

double TxUtilityModel::utility(const workload::TxAppSpec& spec, double lambda,
                               util::CpuMhz alloc) const {
  // No load: the app is maximally satisfied regardless of allocation.
  if (lambda <= 0.0) return max_utility(spec);
  return curve(spec, lambda).utility(alloc.get());
}

double TxUtilityModel::max_utility(const workload::TxAppSpec& spec) const {
  const double w = spec.importance > 0.0 ? spec.importance : 1.0;
  return spec.utility_cap / w;
}

util::CpuMhz TxUtilityModel::demand_for_max_utility(const workload::TxAppSpec& spec,
                                                    double lambda) const {
  if (lambda <= 0.0) return util::CpuMhz{0.0};
  // Unsaturated closed form: u_cap corresponds to RT = T(1 − u_cap).
  const double rt_floor = spec.rt_goal.get() * (1.0 - spec.utility_cap);
  const auto cap = perfmodel::capacity_for_response_time(lambda, spec.service_demand,
                                                         util::Seconds{rt_floor});
  return cap;
}

util::CpuMhz TxUtilityModel::alloc_for_utility(const workload::TxAppSpec& spec, double lambda,
                                               double u) const {
  if (lambda <= 0.0) return util::CpuMhz{0.0};
  return util::CpuMhz{curve(spec, lambda).alloc_for_utility(u)};
}

}  // namespace heteroplace::utility
