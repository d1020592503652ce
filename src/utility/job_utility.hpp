#pragma once

// Job utility model: maps (predicted) completion times to utility and
// back. Implements the paper's "hypothetical utility" for jobs — the
// utility a job would achieve if, from now on, it ran at a hypothetical
// speed ω — and the inverse (speed needed for a target utility), which is
// what the equalizer consumes.

#include <algorithm>
#include <memory>

#include "util/units.hpp"
#include "utility/utility_fn.hpp"
#include "workload/job.hpp"

namespace heteroplace::utility {

/// The job inverse once the utility function has been inverted: the
/// speed that finishes `remaining` work by the absolute time at
/// completion ratio `x` (submit + x·goal), clamped to [0, max_speed];
/// max_speed when that time is already past. Inline: the equalizer calls
/// it per job per bisection step.
[[nodiscard]] inline double speed_for_ratio(double x, double submit, double goal, double now,
                                            double remaining, double max_speed) {
  const double completion = submit + x * goal;
  const double horizon = completion - now;
  // Even instant completion misses the target utility: demand the max.
  if (horizon <= 0.0) return max_speed;
  return std::clamp(remaining / horizon, 0.0, max_speed);
}

class JobUtilityModel {
 public:
  explicit JobUtilityModel(std::shared_ptr<const UtilityFunction> fn = default_job_utility())
      : fn_(std::move(fn)) {}

  [[nodiscard]] const UtilityFunction& fn() const { return *fn_; }

  /// Utility achieved if the job completes at absolute time `completion`.
  /// Used both for actual utility at completion and for predictions.
  [[nodiscard]] double utility_at_completion(const workload::JobSpec& spec,
                                             util::Seconds completion) const;

  /// Hypothetical utility at time `now` under hypothetical speed `speed`
  /// (the job's remaining work would finish at now + remaining/speed).
  /// speed <= 0 with remaining work yields the utility limit at infinite
  /// completion (very negative for decreasing-to-negative shapes).
  [[nodiscard]] double hypothetical_utility(const workload::Job& job, util::Seconds now,
                                            util::CpuMhz speed) const;

  /// Inverse: the minimum speed that achieves utility `u` from `now`,
  /// clamped to [0, max_speed]. If even max_speed cannot reach `u`,
  /// returns max_speed; if `u` is achieved with arbitrarily small speed
  /// (never, for ratios that keep growing) returns the computed speed.
  [[nodiscard]] util::CpuMhz speed_for_utility(const workload::Job& job, util::Seconds now,
                                               double u) const;

  /// Best achievable utility from `now` (i.e., at max speed). Decays as
  /// the job waits — this is what makes queued jobs progressively more
  /// "urgent" to the equalizer.
  [[nodiscard]] double max_achievable_utility(const workload::Job& job, util::Seconds now) const;

  /// CPU demand for maximum utility, as reported in the paper's Figure 2:
  /// the speed that reaches the utility plateau if reachable, otherwise
  /// max_speed.
  [[nodiscard]] util::CpuMhz demand_for_max_utility(const workload::Job& job,
                                                    util::Seconds now) const;

 private:
  std::shared_ptr<const UtilityFunction> fn_;
};

}  // namespace heteroplace::utility
