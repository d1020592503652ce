#include "utility/job_utility.hpp"

#include <cmath>
#include <limits>

namespace heteroplace::utility {

namespace {
/// Relative completion ratio x = (completion − submit) / goal.
double completion_ratio(const workload::JobSpec& spec, util::Seconds completion) {
  const double goal = spec.completion_goal.get();
  if (goal <= 0.0) return std::numeric_limits<double>::infinity();
  return (completion.get() - spec.submit_time.get()) / goal;
}
}  // namespace

// Importance semantics: a consumer's *equalized* utility is raw/importance,
// so under contention the equalizer drives raw utilities toward
// importance × u* — a class with twice the importance sustains twice the
// (positive) utility level. (A multiplicative weight would invert the
// priority: equalizing w·u forces the important class to a LOWER raw u.)

double JobUtilityModel::utility_at_completion(const workload::JobSpec& spec,
                                              util::Seconds completion) const {
  const double w = spec.importance > 0.0 ? spec.importance : 1.0;
  const double x = completion_ratio(spec, completion);
  if (!std::isfinite(x)) {
    // Push the utility to the function's limit at very large ratios.
    return fn_->value(1e9) / w;
  }
  return fn_->value(x) / w;
}

double JobUtilityModel::hypothetical_utility(const workload::Job& job, util::Seconds now,
                                             util::CpuMhz speed) const {
  const double w = job.spec().importance > 0.0 ? job.spec().importance : 1.0;
  if (job.finished()) return utility_at_completion(job.spec(), now);
  const util::Seconds completion = job.predicted_completion(now, speed);
  if (!std::isfinite(completion.get())) return fn_->value(1e9) / w;
  return utility_at_completion(job.spec(), completion);
}

util::CpuMhz JobUtilityModel::speed_for_utility(const workload::Job& job, util::Seconds now,
                                                double u) const {
  const auto& spec = job.spec();
  if (job.finished()) return util::CpuMhz{0.0};
  const double importance = spec.importance > 0.0 ? spec.importance : 1.0;
  // Largest completion ratio that still yields (weighted) utility u.
  const double x = fn_->inverse(u * importance);
  return util::CpuMhz{speed_for_ratio(x, spec.submit_time.get(), spec.completion_goal.get(),
                                      now.get(), job.remaining().get(), spec.max_speed.get())};
}

double JobUtilityModel::max_achievable_utility(const workload::Job& job,
                                               util::Seconds now) const {
  return hypothetical_utility(job, now, job.spec().max_speed);
}

util::CpuMhz JobUtilityModel::demand_for_max_utility(const workload::Job& job,
                                                     util::Seconds now) const {
  if (job.finished()) return util::CpuMhz{0.0};
  const double w = job.spec().importance > 0.0 ? job.spec().importance : 1.0;
  // Speed that reaches the utility plateau (fn's max), else max speed.
  const double u_plateau = fn_->max_utility() / w;
  return speed_for_utility(job, now, u_plateau);
}

}  // namespace heteroplace::utility
