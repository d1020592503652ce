#include "scenario/power_factory.hpp"

#include <stdexcept>

#include "power/policy.hpp"
#include "util/config.hpp"

namespace heteroplace::scenario {

void validate_power_spec(const PowerSpec& spec) {
  try {
    (void)power::make_consolidation_policy(spec.policy);
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("power.policy: ") + e.what());
  }
  try {
    (void)power::park_depth_from_string(spec.park_state);
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("power.park_state: ") + e.what());
  }
  if (spec.check_interval_s < 0.0) {
    throw util::ConfigError("power.check_interval_s: must be nonnegative (0 = control cycle)");
  }
  if (spec.idle_timeout_s < 0.0) {
    throw util::ConfigError("power.idle_timeout_s: must be nonnegative");
  }
  if (spec.headroom_factor < 1.0) {
    throw util::ConfigError("power.headroom_factor: must be >= 1");
  }
  if (spec.min_active_nodes < 0) {
    throw util::ConfigError("power.min_active_nodes: must be nonnegative");
  }
  if (spec.cap_w < 0.0) {
    throw util::ConfigError("power.cap_w: must be nonnegative (0 = uncapped)");
  }
  try {
    power_model_from_spec(spec).validate();
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("power.*: ") + e.what());
  }
}

power::PowerModel power_model_from_spec(const PowerSpec& spec) {
  power::PowerModel model = power::PowerModel::ladder(spec.active_w, spec.pstates);
  model.standby_w = spec.standby_w;
  model.off_w = spec.off_w;
  model.park_latency_s = spec.park_latency_s;
  model.wake_latency_s = spec.wake_latency_s;
  return model;
}

}  // namespace heteroplace::scenario
