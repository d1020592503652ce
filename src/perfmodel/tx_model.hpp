#pragma once

// Transactional performance model with flow control.
//
// The app's middleware enforces a maximum utilization ρ_cap by shedding
// (or queueing outside the system) excess requests; admitted requests see
// an M/G/1-PS queue whose capacity is the total CPU granted by the
// placement controller. This is the analytic stand-in for the flow
// controller + queueing predictor of the paper's transactional framework
// ([2], NOMS 2008).

#include <algorithm>
#include <limits>

#include "util/units.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::perfmodel {

struct TxPerfResult {
  double offered_rate{0.0};    // λ (req/s)
  double admitted_rate{0.0};   // λ_adm after flow control
  double throughput_ratio{1.0};  // λ_adm / λ (1 when nothing shed)
  double utilization{0.0};     // λ_adm·d / ω
  util::Seconds response_time{0.0};  // mean RT of admitted requests
  bool saturated{false};       // flow control engaged
};

/// Evaluate the model at arrival rate `lambda`, per-request demand `d`
/// (MHz·s), allocated capacity `capacity`, and flow-control cap `rho_cap`.
///
/// capacity <= 0 yields a fully-shed, infinitely slow result.
///
/// Inline because the equalizer evaluates it inside nested bisections
/// (through utility::TxCurve) dozens of times per consumer per cycle.
[[nodiscard]] inline TxPerfResult evaluate_tx(double lambda, double service_demand,
                                              util::CpuMhz capacity, double rho_cap) {
  TxPerfResult r;
  r.offered_rate = lambda;
  if (capacity.get() <= 0.0 || service_demand <= 0.0) {
    r.admitted_rate = 0.0;
    r.throughput_ratio = lambda > 0.0 ? 0.0 : 1.0;
    r.utilization = 0.0;
    r.response_time = util::Seconds{std::numeric_limits<double>::infinity()};
    r.saturated = lambda > 0.0;
    return r;
  }

  const double mu = capacity.get() / service_demand;  // service rate (req/s)
  const double admit_cap = rho_cap * mu;
  r.admitted_rate = std::min(lambda, admit_cap);
  r.saturated = lambda > admit_cap;
  r.throughput_ratio = lambda > 0.0 ? r.admitted_rate / lambda : 1.0;
  r.utilization = r.admitted_rate / mu;
  // M/G/1-PS mean response time on admitted traffic. Guaranteed finite:
  // admitted utilization <= rho_cap < 1.
  r.response_time = util::Seconds{1.0 / (mu - r.admitted_rate)};
  return r;
}

/// Capacity that yields a target mean response time at the given load
/// (ignoring flow control — valid for rt below the flow-control regime):
///   ω = λ·d + d / RT.
[[nodiscard]] util::CpuMhz capacity_for_response_time(double lambda, double service_demand,
                                                      util::Seconds rt);

/// Convenience: evaluate using an app's spec and trace at time t.
[[nodiscard]] TxPerfResult evaluate_tx_app(const workload::TxApp& app, util::Seconds t,
                                           util::CpuMhz capacity);

}  // namespace heteroplace::perfmodel
