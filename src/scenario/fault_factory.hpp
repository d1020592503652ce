#pragma once

// Fault-subsystem construction and validation.
//
// The config loader and the runner must reject a bad spec with the same
// fault.* key names, and the runner must translate a FaultSpec into a
// deterministic FaultSchedule, so both live here once.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

/// Throw util::ConfigError naming the offending fault.* key on an invalid
/// spec: negative rates or durations, half-configured MTTF/MTTR pairs,
/// unknown event kinds, out-of-range targets, severities outside (0, 1],
/// link/domain faults in a run that cannot express them (link faults need
/// migration; link faults and blackouts need >= 2 domains), or
/// overlapping explicit windows on the same target. `nodes_per_domain`
/// describes the topology the events are checked against (one entry per
/// domain); `migration_enabled` describes the run. The config loader and
/// run_federated_experiment call this.
void validate_fault_spec(const FaultSpec& spec, const std::vector<std::size_t>& nodes_per_domain,
                         bool migration_enabled, double horizon_s);

/// Build the schedule a (validated) spec describes: explicit events plus
/// the stochastic processes, seeded by spec.seed (or `scenario_seed` when
/// spec.seed is 0) on streams independent of every workload stream.
[[nodiscard]] faults::FaultSchedule build_fault_schedule(
    const FaultSpec& spec, std::uint64_t scenario_seed, double horizon_s,
    const std::vector<std::size_t>& nodes_per_domain);

}  // namespace heteroplace::scenario
