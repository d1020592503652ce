#pragma once

// Transactional utility model.
//
// Composes the queueing performance model with a response-time utility:
//   u_raw = (T − RT) / T          (1 at RT→0, 0 at the goal, <0 beyond)
//   u     = min(u_raw, u_cap) · τ^κ  for u_raw > 0,  else u_raw
// where τ is the throughput ratio after flow control and κ >= 0 penalizes
// shed load. The result is monotone non-decreasing in allocated CPU, so a
// unique inverse (CPU needed for a target utility) exists and is computed
// by bisection.

#include "perfmodel/tx_model.hpp"
#include "util/units.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::utility {

/// One app's utility curve at a fixed arrival rate λ > 0, as flat
/// parameters. This is the only implementation of the transactional
/// curve: TxUtilityModel delegates to it, and the equalizer snapshots
/// one per app per call and evaluates it directly.
struct TxCurve {
  double lambda{0.0};
  double service_demand{0.0};
  double rt_goal{0.0};
  double utility_cap{0.0};
  double rho_cap{0.0};
  double throughput_exponent{0.0};
  double importance{1.0};
  double demand_hi{0.0};  // CPU that reaches utility_cap (demand_for_max_utility)

  /// Importance-weighted utility with `alloc` MHz of CPU.
  [[nodiscard]] double utility(double alloc) const;

  /// Minimum CPU achieving utility `u`, clamped to [0, demand_hi].
  [[nodiscard]] double alloc_for_utility(double u) const;
};

class TxUtilityModel {
 public:
  TxUtilityModel() = default;

  /// The curve of app `spec` at arrival rate `lambda` (> 0).
  [[nodiscard]] TxCurve curve(const workload::TxAppSpec& spec, double lambda) const;

  /// Utility of app `spec` at arrival rate `lambda` with `alloc` CPU.
  [[nodiscard]] double utility(const workload::TxAppSpec& spec, double lambda,
                               util::CpuMhz alloc) const;

  /// Minimum CPU achieving utility `u` (clamped to [0, demand_max]).
  [[nodiscard]] util::CpuMhz alloc_for_utility(const workload::TxAppSpec& spec, double lambda,
                                               double u) const;

  /// Best achievable utility (the cap, modulated by importance).
  [[nodiscard]] double max_utility(const workload::TxAppSpec& spec) const;

  /// CPU demand to reach maximum utility — the "transactional demand"
  /// series of the paper's Figure 2.
  [[nodiscard]] util::CpuMhz demand_for_max_utility(const workload::TxAppSpec& spec,
                                                    double lambda) const;
};

}  // namespace heteroplace::utility
