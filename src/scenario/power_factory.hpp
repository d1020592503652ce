#pragma once

// Power-spec validation, shared by the config loader and the runner.
//
// The runner (scenario/federation_experiment.cpp) builds one
// PowerManager per domain from the same PowerSpec; the loader rejects a
// spec the runner could not build, with the same power.* key names.

#include "power/power_model.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

/// Throw util::ConfigError naming the offending power.* key on an
/// invalid spec (unknown policy/park state, nonpositive latencies where
/// positive is required, out-of-range ladder depth, ...). The config
/// loader and the runner call this.
void validate_power_spec(const PowerSpec& spec);

/// Build the node power table a spec describes (validate_power_spec
/// checks the table this returns).
[[nodiscard]] power::PowerModel power_model_from_spec(const PowerSpec& spec);

}  // namespace heteroplace::scenario
